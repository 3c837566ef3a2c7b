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

A ModelParams' arrays are never written in place: the constructor marks
every array it is given read-only, so a write raises instead of going
unseen. Every update (an Adam step, a cast, `with_blocks`) builds new
arrays and a new ModelParams, so an old one (a best checkpoint kept during
training) stays as it was, and values derived from one (the stacked
modulation maps) stay valid for as long as it lives. The trainable blocks
also have one flat layout: raveled and concatenated in `trainable_blocks()`
order (`trainable_vector`, `with_vector`), which the optimizer works on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from .util import DIM, POSITIVE, Container

# Modulation maps get a small random init (see init_params); this is the scale.
DEFAULT_MOD_SCALE = 0.1


# Per-layer blocks: name prefixes in trainable_blocks() order, and the
# ModelParams field holding each.
_LAYER_BLOCKS = ("w", "b", "scale_w", "scale_b", "shift_w", "shift_b")
_LAYER_FIELDS = ("layer_w", "layer_b", "scale_w", "scale_b", "shift_w", "shift_b")
_shape = attrgetter("shape")


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
        """Shape of every parameter block: "fourier", then the
        trainable_blocks() names in their order (the checkpoint's order).
        Computed once per configuration; the mapping is read-only."""
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
    def _layer_names(self) -> tuple:
        """Block names of each per-layer ModelParams field, in field order."""
        return tuple(tuple(f"{name}{k}" for k in range(1, self.num_layers + 1))
                     for name in _LAYER_BLOCKS)

    @cached_property
    def _field_shapes(self) -> tuple:
        """block_shapes() in ModelParams field order: fourier, every layer's
        w, then every b, scale_w, scale_b, shift_w, shift_b, then the head."""
        s = self.block_shapes()
        return (s["fourier"], *(s[name] for names in self._layer_names for name in names),
                s["out_w"], s["out_b"])

    @cached_property
    def _vector_slices(self) -> tuple:
        """(start, stop, shape) of every trainable block in the flat layout."""
        slices, start = [], 0
        for shape in list(self.block_shapes().values())[1:]:
            stop = start + math.prod(shape)
            slices.append((start, stop, shape))
            start = stop
        return tuple(slices)

    def param_count(self) -> int:
        """Scalars in all blocks, the fixed Fourier matrix included; closed
        form, so a checkpoint header can be sized without building blocks."""
        d, n, L = self.hidden_dim, self.codeword_dim, self.num_layers
        return (L + 1) * d * d + L * (3 * d + 2 * d * n) + 4 * d + 2


@dataclass(frozen=True)
class ModelParams:
    """All network parameters plus the dataset normalization scale.

    The Fourier matrix is fixed (never trained). Weight lists are indexed by
    layer, 0-based internally; block names use 1-based layer numbers.
    norm_scale records the global scale of the dataset the model was trained
    on, so a decoder can map outputs back to the physical domain. The
    constructor marks every array read-only, the caller's own arrays
    included (see the module docstring).
    """

    arch: ArchConfig
    fourier: np.ndarray            # (d_h, 2), fixed
    layer_w: tuple                 # per layer: (d_h, in_dim)
    layer_b: tuple                 # per layer: (d_h,)
    scale_w: tuple                 # per layer: (d_h, n), codeword -> gamma
    scale_b: tuple
    shift_w: tuple                 # per layer: (d_h, n), codeword -> eta
    shift_b: tuple
    out_w: np.ndarray              # (2, d_h)
    out_b: np.ndarray              # (2,)
    norm_scale: float = 1.0

    def __post_init__(self):
        a = self.arch
        for t in _LAYER_FIELDS:
            if len(getattr(self, t)) != a.num_layers:
                raise ValueError(f"{t} must have {a.num_layers} entries")
        arrays = (self.fourier, *self.layer_w, *self.layer_b, *self.scale_w,
                  *self.scale_b, *self.shift_w, *self.shift_b, self.out_w, self.out_b)
        if tuple(map(_shape, arrays)) != a._field_shapes:
            blocks = {"fourier": self.fourier, **self.trainable_blocks()}
            for name, shape in a.block_shapes().items():
                if blocks[name].shape != shape:
                    raise ValueError(f"{name} must have shape {shape}")
        if not (self.norm_scale > 0 and np.isfinite(self.norm_scale)):
            raise ValueError("norm_scale must be positive and finite")
        for x in arrays:
            if x.flags.writeable:       # views of a read-only vector are not
                x.setflags(write=False)

    def trainable_blocks(self) -> dict:
        """Named trainable arrays in a fixed order. Excludes the Fourier matrix."""
        blocks = {}
        for i in range(self.arch.num_layers):
            k = i + 1
            blocks[f"w{k}"] = self.layer_w[i]
            blocks[f"b{k}"] = self.layer_b[i]
            blocks[f"scale_w{k}"] = self.scale_w[i]
            blocks[f"scale_b{k}"] = self.scale_b[i]
            blocks[f"shift_w{k}"] = self.shift_w[i]
            blocks[f"shift_b{k}"] = self.shift_b[i]
        blocks["out_w"] = self.out_w
        blocks["out_b"] = self.out_b
        return blocks

    @classmethod
    def from_blocks(cls, arch: ArchConfig, blocks: dict,
                    norm_scale: float) -> "ModelParams":
        """ModelParams from named blocks: "fourier" plus every
        trainable_blocks() name."""
        return cls(arch, blocks["fourier"],
                   *(tuple(map(blocks.__getitem__, names)) for names in arch._layer_names),
                   blocks["out_w"], blocks["out_b"], norm_scale)

    def with_blocks(self, blocks: dict) -> "ModelParams":
        """New ModelParams with trainable arrays replaced by `blocks`."""
        return self.from_blocks(self.arch, {"fourier": self.fourier, **blocks},
                                self.norm_scale)

    @cached_property
    def trainable_vector(self) -> np.ndarray:
        """The trainable blocks in the flat layout: raveled and concatenated
        in trainable_blocks() order. Built once; for params made by
        with_vector it is that vector itself. Read-only."""
        return _read_only(np.concatenate([b.ravel() for b in
                                          self.trainable_blocks().values()]))

    def with_vector(self, vector: np.ndarray) -> "ModelParams":
        """New ModelParams whose trainable blocks are views into `vector`, a
        flat-layout vector, which becomes read-only."""
        _read_only(vector)
        views = [vector[start:stop].reshape(shape)
                 for start, stop, shape in self.arch._vector_slices]
        L6 = 6 * self.arch.num_layers
        new = ModelParams(self.arch, self.fourier,
                          *(tuple(views[k:L6:6]) for k in range(len(_LAYER_FIELDS))),
                          views[L6], views[L6 + 1], self.norm_scale)
        new.__dict__["trainable_vector"] = vector    # the cached property's value
        return new

    @cached_property
    def modulation(self) -> tuple:
        """(M, m): scale_w1..L then shift_w1..L stacked by rows, shape
        (2*L*d_h, n), and scale_b1..L, shift_b1..L stacked the same way.

        `codewords @ M.T + m` holds every layer's gamma, then every eta, and
        equals the per-layer products bit for bit as long as M.T is the
        transposed view of this C-contiguous M. Built once per params;
        both are read-only.
        """
        return (_read_only(np.concatenate((*self.scale_w, *self.shift_w))),
                _read_only(np.concatenate((*self.scale_b, *self.shift_b))))

    def cast(self, dtype) -> "ModelParams":
        """Copy with every array cast to dtype (float64 for verification)."""
        copy = lambda x: np.array(x, dtype=dtype)
        return ModelParams(self.arch, copy(self.fourier),
                           *(tuple(map(copy, getattr(self, t))) for t in _LAYER_FIELDS),
                           copy(self.out_w), copy(self.out_b), self.norm_scale)


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
    a = arch
    d, n, L = a.hidden_dim, a.codeword_dim, a.num_layers
    rng = np.random.default_rng(seed)
    f32 = lambda x: np.asarray(x, dtype=np.float32)

    fourier = f32(rng.normal(0.0, a.fourier_scale, (d, 2)))
    deep = np.sqrt(6.0 / d) / a.omega0
    layer_w = []
    for i in range(1, L + 1):
        bound = 1.0 / (2 * d) if i == 1 else deep
        layer_w.append(f32(rng.uniform(-bound, bound, a.block_shapes()[f"w{i}"])))
    out_w = f32(rng.uniform(-deep, deep, (2, d)))
    scale_w = [f32(rng.uniform(-mod_scale, mod_scale, (d, n))) for _ in range(L)]
    shift_w = [f32(rng.uniform(-mod_scale, mod_scale, (d, n))) for _ in range(L)]

    zeros = lambda: np.zeros(d, dtype=np.float32)
    return ModelParams(
        arch=a,
        fourier=fourier,
        layer_w=tuple(layer_w),
        layer_b=tuple(zeros() for _ in range(L)),
        scale_w=tuple(scale_w),
        scale_b=tuple(np.ones(d, dtype=np.float32) for _ in range(L)),
        shift_w=tuple(shift_w),
        shift_b=tuple(zeros() for _ in range(L)),
        out_w=out_w,
        out_b=np.zeros(2, dtype=np.float32),
    )


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

    def locate(self, coords: np.ndarray) -> np.ndarray:
        """Inverse mapping: normalized pairs back to 1-based (i, j) indices."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        out = np.empty(coords.shape, dtype=np.int64)
        for axis, count in enumerate((self.num_rows, self.num_cols)):
            v = coords[:, axis]
            idx = np.ones(v.shape, dtype=np.int64) if count == 1 \
                else np.rint((v + 1.0) * (count - 1) / 2.0).astype(np.int64) + 1
            if np.any(idx < 1) or np.any(idx > count):
                raise ValueError("coordinate outside the grid")
            out[:, axis] = idx
        return out


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
    """Versioned little-endian binary: header, then parameter blocks as f32."""
    a = params.arch
    header = FORMAT.pack(a.hidden_dim, a.num_layers, a.codeword_dim, a.omega0,
                         a.fourier_scale, params.norm_scale)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (params.fourier, *params.trainable_blocks().values()):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> ModelParams:
    f, body = FORMAT.load(path)
    arch = _arch_of(f)
    offset = 0
    loaded = {}
    for name, shape in arch.block_shapes().items():
        size = math.prod(shape)
        loaded[name] = np.frombuffer(body, dtype="<f4", count=size,
                                     offset=offset).reshape(shape).copy()
        offset += 4 * size
        if not np.all(np.isfinite(loaded[name])):
            raise ValueError(f"{path}: non-finite values in block {name}")
    return ModelParams.from_blocks(arch, loaded, f["norm_scale"])
