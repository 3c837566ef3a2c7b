"""Meta-learned implicit neural codec for MIMO-OFDM CSI feedback.

The root exports the public chain and each file format's save/load pair;
layer internals stay in their submodules.
"""

from .channel import SystemConfig, half_wavelength_config
from .dataset import (
    Dataset,
    SamplingSpec,
    generate_dataset,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .model import (
    ArchConfig,
    CoordinateGrid,
    ModelParams,
    load_checkpoint,
    save_checkpoint,
)
from .training import TrainConfig, TrainLog, train
from .codec import (
    Bitstream,
    CodecState,
    TrainingDiverged,
    decode_sample,
    encode_sample,
    fit_codec_state,
    load_bitstream,
    load_sidecar,
    save_bitstream,
    save_sidecar,
)
from .evaluate import MetricReport, evaluate_model

__version__ = "0.1.0"
