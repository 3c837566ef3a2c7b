"""Model parameterization for the modulated sinusoidal coordinate network.

The network maps a normalized (antenna, subcarrier) coordinate pair to the
(re, im) parts of one channel matrix entry. A fixed random Fourier matrix
lifts the 2-D coordinate into sinusoidal features, a stack of sine layers
transforms them, and a short per-sample codeword scales and shifts every
layer's pre-activation (FiLM style) so a single shared base network can
represent many different channel matrices.

This module owns the parameter container, initialization, the coordinate
grid convention, and the checkpoint file format. The forward/backward math
lives in `siren`; decoding codewords to channel matrices is
`codec.decode_matrices`.

Parameters have one layout: the fixed Fourier matrix plus one flat vector
of every trainable block, raveled in `ArchConfig.block_shapes()` order (the
checkpoint's order). `ArchConfig.split`, the only code that knows that
order, names the blocks of a params vector and of a gradient alike.

A ModelParams' arrays are never written in place: the constructor marks
both read-only, so a write raises instead of going unseen. Every update
(an Adam step, a cast, `with_blocks`) builds new params around a new
vector, so an old one (a best checkpoint kept during training) stays as
it was, and values derived from one (the stacked modulation maps) stay
valid for as long as it lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .util import DIM, POSITIVE, Container

# Modulation maps get a small random init (see init_params); this is the scale.
DEFAULT_MOD_SCALE = 0.1


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class ArchConfig:
    """Architecture hyperparameters.

    hidden_dim is the width of every sine layer, num_layers the depth of the
    modulated stack, codeword_dim the length of the per-sample codeword,
    omega0 the sine frequency multiplier, fourier_scale the stddev of the
    random Fourier matrix entries.
    """

    hidden_dim: int = 512
    num_layers: int = 10
    codeword_dim: int = 32
    omega0: float = 50.0
    fourier_scale: float = 10.0

    def __post_init__(self):
        if self.hidden_dim < 1 or self.num_layers < 1 or self.codeword_dim < 1:
            raise ValueError("hidden_dim, num_layers, codeword_dim must be >= 1")
        if not (0 < self.omega0 < math.inf and 0 < self.fourier_scale < math.inf):
            raise ValueError("omega0 and fourier_scale must be positive and finite")

    def block_shapes(self) -> MappingProxyType:
        """Shape of every parameter block: "fourier", then the trainable
        blocks in flat-layout order (the checkpoint's order). Computed once
        per configuration; the mapping is read-only."""
        return self._block_shapes

    @cached_property
    def _block_shapes(self) -> MappingProxyType:
        d, n = self.hidden_dim, self.codeword_dim
        shapes = {"fourier": (d, 2)}
        for k in range(1, self.num_layers + 1):
            # layer 1 reads the 2*d_h Fourier features
            shapes.update({f"w{k}": (d, 2 * d if k == 1 else d), f"b{k}": (d,),
                           f"scale_w{k}": (d, n), f"scale_b{k}": (d,),
                           f"shift_w{k}": (d, n), f"shift_b{k}": (d,)})
        shapes.update(out_w=(2, d), out_b=(2,))
        return MappingProxyType(shapes)

    @cached_property
    def _layout(self) -> tuple:
        """(name, start, stop, shape) of every trainable block in the flat
        layout: block_shapes() order without "fourier"."""
        layout, start = [], 0
        for name, shape in list(self.block_shapes().items())[1:]:
            stop = start + math.prod(shape)
            layout.append((name, start, stop, shape))
            start = stop
        return tuple(layout)

    def param_count(self) -> int:
        """Scalars in all blocks, the fixed Fourier matrix included; closed
        form, so a checkpoint header can be sized without building blocks."""
        d, n, L = self.hidden_dim, self.codeword_dim, self.num_layers
        return (L + 1) * d * d + L * (3 * d + 2 * d * n) + 4 * d + 2

    @property
    def vector_size(self) -> int:
        """Length of the flat layout: every block but the Fourier matrix."""
        return self.param_count() - 2 * self.hidden_dim

    def split(self, vector: np.ndarray) -> dict:
        """Name the blocks of a flat-layout vector, of params or of a
        gradient: a dict of reshaped views in block_shapes() order without
        "fourier". The views share the vector's memory and writeability."""
        if np.shape(vector) != (self.vector_size,):
            raise ValueError(f"vector must have shape ({self.vector_size},)")
        return {name: vector[start:stop].reshape(shape)
                for name, start, stop, shape in self._layout}


@dataclass(frozen=True)
class ModelParams:
    """All network parameters plus the dataset normalization scale.

    fourier is the fixed Fourier matrix (never trained); vector holds the
    trainable blocks in the flat layout, and `blocks` maps each block name
    (1-based layer numbers: w1, b1, scale_w1, ..., out_w, out_b) to its
    view into vector, built once per params. norm_scale records the global
    scale of the dataset the model was trained on, so a decoder can map
    outputs back to the physical domain. The constructor marks both arrays
    read-only, the caller's own included (see the module docstring).
    """

    arch: ArchConfig
    fourier: np.ndarray            # (d_h, 2), fixed
    vector: np.ndarray             # (arch.vector_size,), trainable
    norm_scale: float = 1.0
    blocks: MappingProxyType = field(init=False, repr=False, compare=False)
    # values derived per coordinate grid, keyed by its shape (codec._grid_values)
    grid_cache: dict = field(init=False, repr=False, compare=False,
                             default_factory=dict)

    def __post_init__(self):
        shape = self.arch.block_shapes()["fourier"]
        if np.shape(self.fourier) != shape:
            raise ValueError(f"fourier must have shape {shape}")
        if not (self.norm_scale > 0 and np.isfinite(self.norm_scale)):
            raise ValueError("norm_scale must be positive and finite")
        self.fourier.setflags(write=False)
        self.vector.setflags(write=False)    # first, so the views are read-only
        object.__setattr__(self, "blocks",
                           MappingProxyType(self.arch.split(self.vector)))

    def with_blocks(self, blocks: dict) -> "ModelParams":
        """New ModelParams with the named trainable blocks replaced by
        `blocks` and the others kept. Each must have its block's shape; a
        block is never raveled into place by size alone."""
        for name, block in blocks.items():
            if np.shape(block) != self.blocks[name].shape:
                raise ValueError(f"{name} must have shape {self.blocks[name].shape}")
        merged = {**self.blocks, **blocks}          # keeps the layout's order
        return replace(self, vector=np.concatenate(
            [np.ravel(b) for b in merged.values()], dtype=self.vector.dtype))

    @cached_property
    def modulation(self) -> tuple:
        """(M, m): scale_w1..L then shift_w1..L stacked by rows, shape
        (2*L*d_h, n), and scale_b1..L, shift_b1..L stacked the same way.

        `codewords @ M.T + m` holds every layer's gamma, then every eta, and
        equals the per-layer products bit for bit as long as M.T is the
        transposed view of this C-contiguous M. Built once per params;
        both are read-only.
        """
        b, layers = self.blocks, range(1, self.arch.num_layers + 1)
        stack = lambda kind: _read_only(np.concatenate(
            [b[f"scale_{kind}{k}"] for k in layers] + [b[f"shift_{kind}{k}"] for k in layers]))
        return stack("w"), stack("b")

    def cast(self, dtype) -> "ModelParams":
        """Copy with both arrays cast to dtype (float64 for verification)."""
        return replace(self, fourier=self.fourier.astype(dtype),
                       vector=self.vector.astype(dtype))


def init_params(seed: int, arch: ArchConfig,
                mod_scale: float = DEFAULT_MOD_SCALE) -> ModelParams:
    """Seeded parameter initialization.

    Fourier matrix entries are N(0, fourier_scale^2) and stay fixed. Sine
    layers use the standard sinusoidal-network scheme: layer 1 uniform in
    +-1/fan_in, deeper layers and the output uniform in +-sqrt(6/fan_in)/omega0.
    All plain biases start at zero.

    Modulation: scale_b starts at one and shift_b at zero, so the zero
    codeword is exactly the identity modulation. The codeword-to-modulation
    maps scale_w/shift_w start small random, uniform in +-mod_scale, not zero:
    the codeword always starts its inner descent at zero, and with zero maps
    both the codeword gradient and the maps' own gradients vanish identically,
    so a zero init would freeze the whole modulation path forever.
    """
    a, d = arch, arch.hidden_dim
    rng = np.random.default_rng(seed)
    layers = range(1, a.num_layers + 1)

    # draws in a fixed order: Fourier matrix, layer weights, head, scale
    # maps, shift maps; each is rounded to float32 where it is stored
    fourier = np.asarray(rng.normal(0.0, a.fourier_scale, (d, 2)), dtype=np.float32)
    vector = np.zeros(a.vector_size, dtype=np.float32)
    blocks = a.split(vector)
    deep = np.sqrt(6.0 / d) / a.omega0
    for k in layers:
        bound = 1.0 / (2 * d) if k == 1 else deep
        blocks[f"w{k}"][...] = rng.uniform(-bound, bound, blocks[f"w{k}"].shape)
        blocks[f"scale_b{k}"][...] = 1.0
    blocks["out_w"][...] = rng.uniform(-deep, deep, (2, d))
    for name in (*(f"scale_w{k}" for k in layers), *(f"shift_w{k}" for k in layers)):
        blocks[name][...] = rng.uniform(-mod_scale, mod_scale, blocks[name].shape)
    return ModelParams(a, fourier, vector)


@dataclass(frozen=True)
class CoordinateGrid:
    """Normalized coordinates for an antenna-by-subcarrier grid.

    Index (i, j), 1-based, maps to (2(i-1)/(R-1) - 1, 2(j-1)/(C-1) - 1); an
    axis of size 1 maps to 0. The mapping is a bijection with index pairs.
    """

    num_rows: int
    num_cols: int

    def __post_init__(self):
        if self.num_rows < 1 or self.num_cols < 1:
            raise ValueError("grid dimensions must be >= 1")

    def __len__(self) -> int:
        return self.num_rows * self.num_cols

    @staticmethod
    def _axis(count: int) -> np.ndarray:
        if count == 1:
            return np.zeros(1)
        return 2.0 * np.arange(count) / (count - 1) - 1.0

    def flat_coords(self) -> np.ndarray:
        """All coordinate pairs, shape (num_rows*num_cols, 2), row-major."""
        r = self._axis(self.num_rows)
        c = self._axis(self.num_cols)
        rr, cc = np.meshgrid(r, c, indexing="ij")
        return np.stack([rr.ravel(), cc.ravel()], axis=1)


def _arch_of(fields: dict) -> ArchConfig:
    return ArchConfig(fields["hidden_dim"], fields["num_layers"],
                      fields["codeword_dim"], fields["omega0"],
                      fields["fourier_scale"])


# The checkpoint: header, then every block of ArchConfig.block_shapes() as f32.
FORMAT = Container(
    "checkpoint", b"CSIN", 1,
    (("hidden_dim", "I", DIM), ("num_layers", "I", DIM), ("codeword_dim", "I", DIM),
     ("omega0", "d", POSITIVE), ("fourier_scale", "d", POSITIVE),
     ("norm_scale", "d", POSITIVE)),
    lambda f: 4 * _arch_of(f).param_count())


def save_checkpoint(params: ModelParams, path) -> None:
    """Versioned little-endian binary: header, then the Fourier matrix and
    the flat vector as f32, which is every block in block_shapes() order."""
    a = params.arch
    header = FORMAT.pack(a.hidden_dim, a.num_layers, a.codeword_dim, a.omega0,
                         a.fourier_scale, params.norm_scale)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (params.fourier, params.vector):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> ModelParams:
    f, body = FORMAT.load(path)
    arch = _arch_of(f)
    d = arch.hidden_dim
    fourier = np.frombuffer(body, dtype="<f4", count=2 * d).astype(np.float32)
    vector = np.frombuffer(body, dtype="<f4", offset=8 * d).astype(np.float32)
    if not (np.isfinite(fourier).all() and np.isfinite(vector).all()):
        blocks = {"fourier": fourier, **arch.split(vector)}
        name = next(k for k, b in blocks.items() if not np.isfinite(b).all())
        raise ValueError(f"{path}: non-finite values in block {name}")
    return ModelParams(arch, fourier.reshape(d, 2), vector, f["norm_scale"])
