"""Static-table arithmetic coding for quantized codeword symbols.

The coder is the classic bit-oriented integer arithmetic coder with a
32-bit state and carry handling via pending bits. It was chosen over a
byte-oriented range coder because feedback messages here are tiny (tens of
symbols); the flush overhead is a couple of bits rather than several
bytes, which is what makes entropy coding a net win at all at these
payload sizes. Cumulative totals are capped at 2^16 so every intermediate
product fits well within the 32-bit interval arithmetic, and streams are
bit-exact across platforms.

Also provides the trivial fixed-width bit packing used as the raw
(non-entropy-coded) payload alternative.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_TOTAL = 1 << 16

_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_QUARTERS = 3 << 30
_MASK = (1 << 32) - 1


@dataclass(frozen=True)
class FrequencyTable:
    """Smoothed symbol counts shared by encoder and decoder.

    counts[s] >= 1 for every symbol, sum(counts) <= 2^16, and cum holds the
    strictly increasing cumulative sums with cum[0] = 0. counts is a read-only
    copy, so cum (not to be modified) and total are computed once per table.
    """

    counts: np.ndarray

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)
        c.setflags(write=False)
        if c.ndim != 1 or c.shape[0] < 2:
            raise ValueError("need counts for at least two symbols")
        if np.any(c < 1):
            raise ValueError("every symbol count must be >= 1")
        if int(c.sum()) > MAX_TOTAL:
            raise ValueError(f"total count must be <= {MAX_TOTAL}")
        object.__setattr__(self, "counts", c)

    @property
    def num_symbols(self) -> int:
        return self.counts.shape[0]

    @cached_property
    def total(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def cum(self) -> list:
        return [0, *np.cumsum(self.counts).tolist()]


def fit_frequency_table(symbols, num_symbols: int) -> FrequencyTable:
    """Pooled Laplace-smoothed counts, renormalized to total <= 2^16.

    symbols: any integer array of training symbols in [0, num_symbols).
    Every symbol keeps count >= 1 so unseen values stay decodable.
    """
    s = np.asarray(symbols, dtype=np.int64).ravel()
    if s.size == 0:
        raise ValueError("cannot fit a frequency table on no symbols")
    if num_symbols < 2 or num_symbols > MAX_TOTAL:
        raise ValueError("num_symbols must be in 2..65536")
    if np.any(s < 0) or np.any(s >= num_symbols):
        raise ValueError("symbol outside the alphabet")
    counts = np.bincount(s, minlength=num_symbols) + 1
    total = int(counts.sum())
    if total > MAX_TOTAL:
        counts = np.maximum(1, (counts * MAX_TOTAL) // total)
        # the max(1, .) bumps can overshoot; shave the largest counts
        while int(counts.sum()) > MAX_TOTAL:
            i = int(np.argmax(counts))
            counts[i] -= min(counts[i] - 1, int(counts.sum()) - MAX_TOTAL)
    return FrequencyTable(counts)


def entropy_encode(symbols, table: FrequencyTable):
    """Arithmetic-code a symbol sequence. Returns (payload bytes, bit count)."""
    syms = np.asarray(symbols, dtype=np.int64).ravel()
    if np.any(syms < 0) or np.any(syms >= table.num_symbols):
        raise ValueError("symbol outside the table alphabet")
    cum = table.cum
    total = table.total
    bits = []
    low, high, pending = 0, _MASK, 0

    def emit(bit: int) -> None:
        nonlocal pending
        bits.append(bit)
        bits.extend((bit ^ 1,) * pending)
        pending = 0

    for s in syms:
        span = high - low + 1
        high = low + (span * cum[s + 1]) // total - 1
        low = low + (span * cum[s]) // total
        while True:
            if high < _HALF:
                emit(0)
            elif low >= _HALF:
                emit(1)
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
    pending += 1
    emit(0 if low < _QUARTER else 1)
    return np.packbits(np.array(bits, dtype=np.uint8)).tobytes(), len(bits)


def entropy_decode(payload: bytes, nbits: int, table: FrequencyTable,
                   count: int) -> np.ndarray:
    """Recover exactly `count` symbols. Inverse of entropy_encode.

    Bits past the stream end read as zero (the standard convention; the
    encoder's final flush guarantees this resolves correctly). A bit count
    longer than the payload is rejected as malformed.
    """
    if nbits < 0 or nbits > 8 * len(payload):
        raise ValueError("declared bit length does not fit the payload")
    if count < 0:
        raise ValueError("count must be >= 0")
    cum = table.cum
    total = table.total
    pos = 0

    def next_bit() -> int:
        nonlocal pos
        if pos >= nbits:
            return 0
        bit = (payload[pos >> 3] >> (7 - (pos & 7))) & 1
        pos += 1
        return bit

    value = 0
    for _ in range(32):
        value = (value << 1) | next_bit()
    low, high = 0, _MASK
    out = np.empty(count, dtype=np.int32)
    for k in range(count):
        span = high - low + 1
        offset = ((value - low + 1) * total - 1) // span
        s = bisect_right(cum, offset) - 1
        out[k] = s
        high = low + (span * cum[s + 1]) // total - 1
        low = low + (span * cum[s]) // total
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                value -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                low -= _QUARTER
                high -= _QUARTER
                value -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            value = (value << 1) | next_bit()
    return out


def pack_symbols(symbols, bit_width: int):
    """Fixed-width big-endian bit packing. Returns (payload bytes, bit count)."""
    syms = np.asarray(symbols, dtype=np.int64).ravel()
    if bit_width < 1 or bit_width > 16:
        raise ValueError("bit_width must be in 1..16")
    if np.any(syms < 0) or np.any(syms >= (1 << bit_width)):
        raise ValueError("symbol does not fit the bit width")
    bits = (syms[:, None] >> np.arange(bit_width - 1, -1, -1)) & 1
    return np.packbits(bits.astype(np.uint8)).tobytes(), bits.size


def unpack_symbols(payload: bytes, nbits: int, bit_width: int,
                   count: int) -> np.ndarray:
    if count < 0 or nbits != count * bit_width or nbits > 8 * len(payload):
        raise ValueError("payload length does not match count * bit_width")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=nbits)
    weights = 1 << np.arange(bit_width - 1, -1, -1)
    return (bits.reshape(count, bit_width) @ weights).astype(np.int32)
