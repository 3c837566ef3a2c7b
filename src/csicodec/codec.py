"""Transmitter and receiver chains: the inner loop that fits codewords,
uniform scalar quantization, entropy coding, and the feedback bitstream wire
format.

The transmitter adapts a codeword to the channel matrix by a few inner
gradient steps (inner_adapt_batch, the one adapter; meta-training calls it
too), quantizes it with per-dimension uniform bins, and entropy codes the
symbols against a table fitted on training codewords. The receiver inverts
the chain and reconstructs the channel through the shared base network.
Both ends must hold the same codec sidecar (quantizer bounds plus frequency
table); every quantized bitstream carries a digest of the sidecar so drift
is detected instead of silently decoded.

Channel matrices cross this module's public API in the physical domain;
normalization by the checkpoint's norm_scale happens internally.

There is one batched path each way: encode_dataset (through
adapt_codewords) and decode_matrices. The single-message encode_sample and
decode_sample are their batch-of-one calls, and training's validation is
evaluate_model's unquantized round trip through both. Both batched paths
split the stack into tiles of TILE rows and run them on every CPU in the
process's affinity mask, with NumPy's OpenBLAS pinned to one thread while
they run and restored afterwards (util.map_tiles); a stack of one runs
inline. Each tile writes its own rows of one preallocated result, so the
output does not depend on the thread count. Every codec adaptation takes
its first inner step in closed form from the zero codeword's outputs and
Jacobian (siren.zero_start), built once per params and grid, so codec
codewords differ from the plain loop of the training steps in the last
bits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import (
    FrequencyTable,
    entropy_decode,
    entropy_encode,
    fit_frequency_table,
    pack_symbols,
    unpack_symbols,
)
from .model import CoordinateGrid, ModelParams, _read_only
from .siren import (
    ActivationTape,
    backward_batch,
    forward_batch,
    fourier_features,
    zero_start,
)
from .util import BIT_WIDTH, DIM, Container, map_tiles

FLAG_UNQUANTIZED = 0
FLAG_RAW = 1
FLAG_ENTROPY = 2

# Sidecar: header, then lower and upper bounds as f64, then the table as u16.
SIDECAR = Container(
    "sidecar", b"CSIQ", 1,
    (("codeword_dim", "I", DIM), ("bit_width", "I", BIT_WIDTH)),
    lambda f: 16 * f["codeword_dim"] + 2 * (1 << f["bit_width"]))
# Stream: header, then the payload; the fields are Bitstream's, plus a
# reserved u16 written as 0. bit_width is 0 for unquantized streams.
STREAM = Container(
    "stream", b"CSIF", 1,
    (("codeword_dim", "I", DIM), ("bit_width", "B", (0, BIT_WIDTH[1])),
     ("flags", "B", (FLAG_UNQUANTIZED, FLAG_ENTROPY)), ("reserved", "H", None),
     ("sidecar_digest", "16s", None), ("payload_bits", "I", None)),
    lambda f: (f["payload_bits"] + 7) // 8)

_NO_DIGEST = bytes(16)

# Rows per tile of every batched path, so a 16-sample validation split still
# runs as two parallel tiles. Each worker's activation tape holds one tile:
# at the desk shape, 8 rows in place of 16 lowered every benchmark
# workload's peak RSS by ~16 MB (2 vCPUs), with eval-batch throughput the
# same within run-to-run spread.
TILE = 8


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite; names the step."""


def inner_adapt_batch(params: ModelParams, feats: np.ndarray,
                      targets: np.ndarray, steps: int, lr: float,
                      tape: ActivationTape | None = None,
                      at_zero: tuple | None = None) -> np.ndarray:
    """Adapt one codeword per target by plain gradient descent from zero.

    targets: (B, C, 2). Returns the adapted codewords (B, n). The params are
    read only; steps = 0 returns all-zero codewords without any evaluation.
    A tape that fits the batch (as in forward_batch) is overwritten by every
    step, so a caller that loops can keep one; any other tape is left alone
    and the steps share a fresh one. Raises TrainingDiverged naming the step
    when a loss, gradient or updated codeword is non-finite.

    at_zero, siren.zero_start's (outputs, J) for these params and feats,
    makes step 1 one product with J; its codewords then differ from the
    plain step's in the last bits, so the training steps do not pass it.
    """
    dt = params.fourier.dtype
    cw = np.zeros((targets.shape[0], params.arch.codeword_dim), dtype=dt)
    for j in range(1, steps + 1):
        if j == 1 and at_zero is not None:   # G is finite where the loss is
            G = (at_zero[0] - np.asarray(targets, dt)) * (2.0 / targets.shape[1])
            per_sample, grad_cw = G, G.reshape(len(G), -1) @ at_zero[1]
        else:
            _, tape = forward_batch(params, cw, feats=feats, tape=tape)
            per_sample, grad_cw, _ = backward_batch(tape, params, targets,
                                                    need_params=False)
        if not (np.all(np.isfinite(per_sample)) and np.all(np.isfinite(grad_cw))):
            raise TrainingDiverged(f"inner step {j}: non-finite loss or gradient")
        cw = cw - lr * grad_cw
        if not np.all(np.isfinite(cw)):
            raise TrainingDiverged(f"inner step {j}: non-finite codeword")
    return cw


@dataclass(frozen=True)
class QuantizerConfig:
    """Per-dimension uniform quantizer: 2^bit_width bins between lower and
    upper, kept as read-only copies (CodecState hashes them once)."""

    bit_width: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if not (1 <= self.bit_width <= 16):
            raise ValueError("bit_width must be in 1..16")
        lo = _read_only(np.array(self.lower, dtype=np.float64))
        hi = _read_only(np.array(self.upper, dtype=np.float64))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("bounds must be matching one-dimensional arrays")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("bounds must be finite")
        if np.any(lo >= hi):
            raise ValueError("need lower < upper per dimension")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def codeword_dim(self) -> int:
        return self.lower.shape[0]

    @property
    def bin_width(self) -> np.ndarray:
        return (self.upper - self.lower) / (1 << self.bit_width)


def fit_quantizer(codewords: np.ndarray, bit_width: int) -> QuantizerConfig:
    """Per-dimension min/max bounds widened by 1% of the range on each side.

    A degenerate dimension (zero range) is widened to +-1e-6 around its value.
    """
    cw = np.asarray(codewords, dtype=np.float64)
    if cw.ndim != 2 or cw.shape[0] < 1:
        raise ValueError("need a nonempty (count, dim) codeword array")
    lo = cw.min(axis=0)
    hi = cw.max(axis=0)
    rng = hi - lo
    degenerate = rng == 0
    margin = np.where(degenerate, 1e-6, 0.01 * rng)
    return QuantizerConfig(bit_width, lo - margin, hi + margin)


def quantize(codeword: np.ndarray, q: QuantizerConfig) -> np.ndarray:
    """Nearest-bin symbols; out-of-range values clamp to the edge bins.

    Non-finite entries have no bin and raise ValueError.
    """
    x = np.asarray(codeword, dtype=np.float64)
    if x.shape != (q.codeword_dim,):
        raise ValueError("codeword length does not match the quantizer")
    if not np.all(np.isfinite(x)):
        raise ValueError("codeword has non-finite entries")
    idx = np.floor((x - q.lower) / q.bin_width).astype(np.int64)
    return np.clip(idx, 0, (1 << q.bit_width) - 1).astype(np.int32)


def dequantize(symbols: np.ndarray, q: QuantizerConfig) -> np.ndarray:
    """Bin-center values for each symbol."""
    s = np.asarray(symbols, dtype=np.int64)
    if s.shape != (q.codeword_dim,):
        raise ValueError("symbol count does not match the quantizer")
    if np.any(s < 0) or np.any(s >= (1 << q.bit_width)):
        raise ValueError("symbol outside the bin range")
    return q.lower + (s + 0.5) * q.bin_width


@dataclass(frozen=True)
class CodecState:
    """Shared sidecar: quantizer bounds plus the symbol frequency table."""

    quantizer: QuantizerConfig
    table: FrequencyTable

    def __post_init__(self):
        if self.table.num_symbols != (1 << self.quantizer.bit_width):
            raise ValueError("table alphabet does not match the bit width")

    def digest(self) -> bytes:
        return self._digest

    @cached_property
    def _digest(self) -> bytes:     # once per state: its arrays are read-only
        return hashlib.sha256(sidecar_bytes(self)).digest()[:16]


def sidecar_bytes(state: CodecState) -> bytes:
    q = state.quantizer
    head = SIDECAR.pack(q.codeword_dim, q.bit_width)
    body = (np.ascontiguousarray(q.lower, dtype="<f8").tobytes()
            + np.ascontiguousarray(q.upper, dtype="<f8").tobytes()
            + np.ascontiguousarray(state.table.counts, dtype="<u2").tobytes())
    return head + body


def save_sidecar(state: CodecState, path) -> None:
    with open(path, "wb") as fh:
        fh.write(sidecar_bytes(state))


def load_sidecar(path) -> CodecState:
    f, body = SIDECAR.load(path)
    n, b = f["codeword_dim"], f["bit_width"]
    lo = np.frombuffer(body, dtype="<f8", count=n).copy()
    hi = np.frombuffer(body, dtype="<f8", count=n, offset=8 * n).copy()
    counts = np.frombuffer(body, dtype="<u2", count=1 << b, offset=16 * n)
    try:
        return CodecState(QuantizerConfig(b, lo, hi),
                          FrequencyTable(counts.astype(np.int64)))
    except ValueError as err:   # bounds or table that no fit produces
        raise ValueError(f"{path}: {err}") from err


@dataclass(frozen=True)
class Bitstream:
    """One feedback message: header fields plus the payload bits."""

    codeword_dim: int
    bit_width: int          # 0 for unquantized streams
    flags: int
    sidecar_digest: bytes
    payload: bytes
    payload_bits: int

    def __post_init__(self):
        if self.flags not in (FLAG_UNQUANTIZED, FLAG_RAW, FLAG_ENTROPY):
            raise ValueError(f"unknown flags value {self.flags}")
        if len(self.sidecar_digest) != 16:
            raise ValueError("sidecar digest must be 16 bytes")
        if len(self.payload) != (self.payload_bits + 7) // 8:
            raise ValueError("payload length does not match the bit count")


def save_bitstream(stream: Bitstream, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_bitstream(stream))


def load_bitstream(path) -> Bitstream:
    with open(path, "rb") as fh:
        blob = fh.read()
    return parse_bitstream(blob, context=str(path))


def parse_bitstream(blob: bytes, context: str = "bitstream") -> Bitstream:
    f, body = STREAM.unpack(blob, context)
    payload, bits = bytes(body), f["payload_bits"]
    if bits % 8 and payload and payload[-1] & ((1 << (8 - bits % 8)) - 1):
        raise ValueError(f"{context}: nonzero padding bits")
    del f["reserved"]
    return Bitstream(payload=payload, **f)


def serialize_bitstream(stream: Bitstream) -> bytes:
    header = STREAM.pack(stream.codeword_dim, stream.bit_width, stream.flags, 0,
                         stream.sidecar_digest, stream.payload_bits)
    return header + stream.payload


def _to_planes(params: ModelParams, matrices: np.ndarray):
    """Physical complex matrices (N, R, C) to normalized planes (N, R*C, 2)."""
    m = np.asarray(matrices)
    if not np.iscomplexobj(m) or m.ndim != 3:
        raise ValueError("expected complex matrices with shape (count, rows, cols)")
    n_samp, rows, cols = m.shape
    if n_samp == 0:
        raise ValueError("empty stack: no channel matrices to encode")
    planes = np.empty((n_samp, rows * cols, 2), dtype=np.float32)
    planes[..., 0] = (m.real / params.norm_scale).reshape(n_samp, -1)
    planes[..., 1] = (m.imag / params.norm_scale).reshape(n_samp, -1)
    return planes, CoordinateGrid(rows, cols)


def _grid_values(params: ModelParams, grid: CoordinateGrid, first_step: bool):
    """The grid's Fourier features and, when first_step, zero_start's
    (outputs, J) on them. Each is built once per params and grid shape on
    the calling thread, J with BLAS pinned to one thread as for a tile (at
    the caller's two threads the desk benchmark's peak RSS read ~3 MB
    higher), and kept read-only in params.grid_cache."""
    cache = params.grid_cache.setdefault((grid.num_rows, grid.num_cols), {})
    if "feats" not in cache:
        cache["feats"] = _read_only(fourier_features(params, grid.flat_coords()))
    if first_step and "zero" not in cache:
        def build(start, stop, carry):      # a tile of one runs inline
            cache["zero"] = tuple(map(_read_only, zero_start(params, cache["feats"])))
        map_tiles(build, 1, 1)
    return cache["feats"], cache["zero"] if first_step else None


def adapt_codewords(params: ModelParams, matrices: np.ndarray, inner_steps: int,
                    inner_lr: float = 1e-2) -> np.ndarray:
    """Inner-loop codewords for a stack of physical channel matrices.

    Tiles of at most TILE matrices adapt in parallel (util.map_tiles);
    each worker reuses one activation tape across its tiles. Step 1 is
    inner_adapt_batch's closed-form one, from _grid_values' cache. Refuses
    inner_steps < 0 and an inner_lr that is not finite and positive."""
    if inner_steps < 0:
        raise ValueError(f"inner_steps must be >= 0, got {inner_steps}")
    if not 0 < inner_lr < np.inf:
        raise ValueError(f"inner_lr must be finite and positive, got {inner_lr}")
    planes, grid = _to_planes(params, matrices)
    feats, at_zero = _grid_values(params, grid, inner_steps > 0)
    a, dt = params.arch, params.fourier.dtype
    out = np.empty((planes.shape[0], a.codeword_dim), dtype=dt)

    def adapt(start, stop, tape):
        if tape is None:
            tape = ActivationTape.empty(stop - start, len(grid), a.hidden_dim,
                                        a.num_layers, dt)
        out[start:stop] = inner_adapt_batch(params, feats, planes[start:stop],
                                            inner_steps, inner_lr, tape=tape,
                                            at_zero=at_zero)
        return tape

    map_tiles(adapt, planes.shape[0], TILE)
    return out


def fit_codec_state(params: ModelParams, matrices: np.ndarray, bit_width: int,
                    inner_steps: int, inner_lr: float = 1e-2) -> CodecState:
    """Fit quantizer bounds and frequency table on training-set codewords.

    Codewords are produced exactly the way encode_dataset produces them, so
    the fitted bounds describe the codewords the codec will actually see.
    """
    codewords = adapt_codewords(params, matrices, inner_steps, inner_lr)
    q = fit_quantizer(codewords, bit_width)
    symbols = np.stack([quantize(cw, q) for cw in codewords])
    return CodecState(q, fit_frequency_table(symbols, 1 << bit_width))


def _payload_for(symbols: np.ndarray, state: CodecState):
    """Entropy-coded payload, falling back to fixed-width packing when that
    is not shorter. Keeps every stream at or below codeword_dim * bit_width
    payload bits."""
    coded, coded_bits = entropy_encode(symbols, state.table)
    if coded_bits < symbols.size * state.quantizer.bit_width:
        return FLAG_ENTROPY, coded, coded_bits
    return FLAG_RAW, *pack_symbols(symbols, state.quantizer.bit_width)


def encode_sample(params: ModelParams, matrix: np.ndarray, inner_steps: int,
                  state: CodecState | None = None,
                  inner_lr: float = 1e-2) -> Bitstream:
    """Transmitter chain for one physical channel matrix: encode_dataset on
    a stack of one."""
    return encode_dataset(params, np.asarray(matrix)[None], inner_steps,
                          state, inner_lr)[0]


def decode_codeword(params: ModelParams, stream: Bitstream,
                    state: CodecState | None = None) -> np.ndarray:
    """Recover the (possibly dequantized) codeword from a bitstream."""
    n = params.arch.codeword_dim
    if stream.codeword_dim != n:
        raise ValueError(f"stream codeword length {stream.codeword_dim} does "
                         f"not match the model ({n})")
    if stream.flags == FLAG_UNQUANTIZED:
        if stream.payload_bits != 32 * n:
            raise ValueError("unquantized payload has the wrong size")
        cw = np.frombuffer(stream.payload, dtype="<f4", count=n).astype(np.float64)
        if not np.all(np.isfinite(cw)):
            raise ValueError("unquantized payload holds non-finite values")
        return cw
    if state is None:
        raise ValueError("quantized stream needs the codec sidecar")
    if stream.bit_width != state.quantizer.bit_width:
        raise ValueError("stream bit width does not match the sidecar")
    if stream.sidecar_digest != state.digest():
        raise ValueError("sidecar digest mismatch: encoder and decoder "
                         "hold different codec state")
    if stream.flags == FLAG_ENTROPY:
        symbols = entropy_decode(stream.payload, stream.payload_bits,
                                 state.table, n)
    else:
        symbols = unpack_symbols(stream.payload, stream.payload_bits,
                                 stream.bit_width, n)
    return dequantize(symbols, state.quantizer)


def decode_sample(params: ModelParams, stream: Bitstream, grid: CoordinateGrid,
                  state: CodecState | None = None) -> np.ndarray:
    """Receiver chain for one bitstream: decode_matrices on a list of one."""
    return decode_matrices(params, [stream], grid, state)[0]


def decode_matrices(params: ModelParams, streams, grid: CoordinateGrid,
                    state: CodecState | None = None) -> np.ndarray:
    """Receiver chain: bitstreams to physical complex matrices (N, R, C).

    Each codeword is recovered from its stream, then tiles of at most TILE
    codewords run through the shared base network in parallel
    (util.map_tiles); each worker reuses one activation tape.
    """
    cws = [decode_codeword(params, s, state) for s in streams]
    if not cws:
        raise ValueError("empty stack: no bitstreams to decode")
    cws = np.stack(cws)
    feats, _ = _grid_values(params, grid, False)
    out = np.empty((cws.shape[0], len(grid), 2))

    def decode(start, stop, tape):
        batch, tape = forward_batch(params, cws[start:stop], feats=feats,
                                    tape=tape)
        out[start:stop] = batch
        return tape

    map_tiles(decode, cws.shape[0], TILE)
    re = out[..., 0].reshape(-1, grid.num_rows, grid.num_cols)
    im = out[..., 1].reshape(-1, grid.num_rows, grid.num_cols)
    return (re + 1j * im) * params.norm_scale


def encode_dataset(params: ModelParams, matrices: np.ndarray, inner_steps: int,
                   state: CodecState | None = None,
                   inner_lr: float = 1e-2) -> list:
    """Transmitter chain over a stack of physical channel matrices.

    Adapts a codeword per matrix from zero with the base network frozen
    (adapt_codewords), then either quantizes and entropy codes it (state
    given) or emits the raw float32 codeword with the unquantized flag
    (state None). Returns one Bitstream per matrix.
    """
    cws = adapt_codewords(params, matrices, inner_steps, inner_lr)
    n = params.arch.codeword_dim
    if state is None:
        return [Bitstream(n, 0, FLAG_UNQUANTIZED, _NO_DIGEST,
                          np.ascontiguousarray(cw, dtype="<f4").tobytes(), 32 * n)
                for cw in cws]
    streams, digest = [], state.digest()
    for cw in cws:
        flags, payload, bits = _payload_for(quantize(cw, state.quantizer), state)
        streams.append(Bitstream(n, state.quantizer.bit_width, flags, digest,
                                 payload, bits))
    return streams
