"""Synthetic CSI dataset generation and the on-disk dataset format.

Samples are drawn by sampling fresh multipath parameters per channel matrix,
normalised by one global scalar so the largest real or imaginary magnitude
across the whole dataset is 1, and stored as paired float32 planes. Each
sample uses its own seed-derived random stream, so generation order (serial
or parallel) cannot change the result.

File layout (a util.Container, little-endian): magic "CSID", version u32,
num_antennas u32, num_subcarriers u32, count u32, norm_scale f64, seed u64,
then count matrices as row-major interleaved (re, im) float32.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channel import PathSet, SystemConfig, channel_matrix
from .util import DIM, POSITIVE, Container

FORMAT = Container(
    "dataset", b"CSID", 1,
    (("num_antennas", "I", DIM), ("num_subcarriers", "I", DIM),
     ("count", "I", None), ("norm_scale", "d", POSITIVE), ("seed", "Q", None)),
    lambda f: 8 * f["count"] * f["num_antennas"] * f["num_subcarriers"])


@dataclass(frozen=True)
class SamplingSpec:
    """Distributions for per-path parameters.

    Path gains follow an exponential power-decay profile g_p = exp(-p/P) * u_p
    with u_p ~ Uniform(jitter_lo, jitter_hi), normalised to unit total power.
    Delays are Uniform(0, delay_max); initial phases Uniform[0, 2*pi);
    departure angles Uniform[-pi/2, pi/2].
    """

    delay_max: float = 1e-6
    jitter_lo: float = 0.5
    jitter_hi: float = 1.0

    def __post_init__(self):
        if self.delay_max <= 0:
            raise ValueError("delay_max must be positive")
        if not (0 <= self.jitter_lo <= self.jitter_hi):
            raise ValueError("need 0 <= jitter_lo <= jitter_hi")


def sample_paths(rng: np.random.Generator, cfg: SystemConfig,
                 spec: SamplingSpec) -> PathSet:
    """Draw one PathSet. Draw order is fixed: jitters, delays, phases, angles."""
    p = np.arange(1, cfg.num_paths + 1, dtype=np.float64)
    jitter = rng.uniform(spec.jitter_lo, spec.jitter_hi, cfg.num_paths)
    raw = np.exp(-p / cfg.num_paths) * jitter
    gains = raw / np.sqrt(np.sum(raw ** 2))
    delays = rng.uniform(0.0, spec.delay_max, cfg.num_paths)
    phases = rng.uniform(0.0, 2.0 * np.pi, cfg.num_paths)
    aods = rng.uniform(-np.pi / 2, np.pi / 2, cfg.num_paths)
    return PathSet(gains, delays, phases, aods)


@dataclass(frozen=True)
class Dataset:
    """Normalised CSI samples with their normalisation scale and seed.

    planes has shape (count, num_antennas, num_subcarriers, 2) holding
    (re, im) float32 pairs after division by norm_scale.
    """

    planes: np.ndarray
    norm_scale: float
    seed: int

    def __len__(self) -> int:
        return self.planes.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.planes.shape[1]

    @property
    def num_subcarriers(self) -> int:
        return self.planes.shape[2]

    def matrices(self, denormalise: bool = False) -> np.ndarray:
        """Samples as a complex array (count, num_antennas, num_subcarriers)."""
        out = self.planes[..., 0] + 1j * self.planes[..., 1]
        if denormalise:
            out = out * self.norm_scale
        return out

    def slice(self, start: int, stop: int | None = None) -> "Dataset":
        """Samples start to stop - 1 (stop None: to the end) on the same
        storage. The one check on sample windows: a window that breaks
        0 <= start <= stop <= len(self) raises ValueError naming start, stop
        and the size; an empty window is allowed."""
        stop = len(self) if stop is None else stop
        if not 0 <= start <= stop <= len(self):
            raise ValueError(f"sample window start {start}, stop {stop} does "
                             f"not fit a dataset of {len(self)} samples")
        return replace(self, planes=self.planes[start:stop])


def split_dataset(ds: Dataset, counts: tuple[int, int, int]) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic contiguous train/validation/test split, disjoint by
    construction; Dataset.slice refuses counts that do not fit."""
    n_train, n_val, n_test = counts
    b = n_train + n_val
    return ds.slice(0, n_train), ds.slice(n_train, b), ds.slice(b, b + n_test)


def generate_dataset(count: int, seed: int, cfg: SystemConfig,
                     sampling: SamplingSpec | None = None) -> Dataset:
    """Generate `count` channel matrices with a shared global normalisation.

    Sample i is drawn from the i-th child stream of SeedSequence(seed), so
    the result is a pure function of (count, seed, cfg, sampling).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    spec = sampling if sampling is not None else SamplingSpec()
    children = np.random.SeedSequence(seed).spawn(count)
    raw = np.empty((count, cfg.num_antennas, cfg.num_subcarriers), dtype=np.complex128)
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        raw[i] = channel_matrix(sample_paths(rng, cfg, spec), cfg)
    norm_scale = float(max(np.abs(raw.real).max(), np.abs(raw.imag).max()))
    if norm_scale <= 0 or not np.isfinite(norm_scale):
        raise ValueError("degenerate dataset: zero or non-finite peak magnitude")
    planes = np.empty((count, cfg.num_antennas, cfg.num_subcarriers, 2), dtype=np.float32)
    planes[..., 0] = (raw.real / norm_scale).astype(np.float32)
    planes[..., 1] = (raw.imag / norm_scale).astype(np.float32)
    return Dataset(planes=planes, norm_scale=norm_scale, seed=seed)


def save_dataset(ds: Dataset, path) -> None:
    header = FORMAT.pack(ds.num_antennas, ds.num_subcarriers, len(ds),
                         ds.norm_scale, ds.seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ds.planes, dtype="<f4").tobytes())


def load_dataset(path) -> Dataset:
    f, body = FORMAT.load(path)
    planes = np.frombuffer(body, dtype="<f4").reshape(
        f["count"], f["num_antennas"], f["num_subcarriers"], 2).copy()
    if not np.all(np.isfinite(planes)):
        raise ValueError(f"{path}: non-finite sample values")
    return Dataset(planes=planes, norm_scale=f["norm_scale"], seed=f["seed"])
