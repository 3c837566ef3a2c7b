"""Arithmetic coder, frequency tables, and fixed-width bit packing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csicodec.entropy import (
    FrequencyTable,
    entropy_decode,
    entropy_encode,
    fit_frequency_table,
    pack_symbols,
    unpack_symbols,
)


def test_round_trip_small_sequence():
    table = FrequencyTable(np.array([5, 3, 2, 1]))
    syms = np.array([0, 1, 0, 3, 2, 2, 0, 1, 0, 0])
    payload, nbits = entropy_encode(syms, table)
    assert nbits <= 8 * len(payload)
    np.testing.assert_array_equal(
        entropy_decode(payload, nbits, table, len(syms)), syms)


def test_round_trip_empty_sequence():
    table = FrequencyTable(np.array([1, 1]))
    payload, nbits = entropy_encode(np.array([], dtype=np.int64), table)
    assert entropy_decode(payload, nbits, table, 0).size == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_any_table_and_message(data):
    k = data.draw(st.integers(2, 24), label="alphabet")
    counts = data.draw(st.lists(st.integers(1, 500), min_size=k, max_size=k),
                       label="counts")
    syms = data.draw(st.lists(st.integers(0, k - 1), min_size=0, max_size=200),
                     label="symbols")
    table = FrequencyTable(np.array(counts))
    payload, nbits = entropy_encode(np.array(syms, dtype=np.int64), table)
    np.testing.assert_array_equal(
        entropy_decode(payload, nbits, table, len(syms)),
        np.array(syms, dtype=np.int32))


def test_skewed_table_compresses_the_likely_symbol():
    table = FrequencyTable(np.array([60000, 1]))
    _, nbits = entropy_encode(np.zeros(1000, dtype=np.int64), table)
    assert nbits < 100


def test_uniform_symbols_cost_about_log2_alphabet():
    rng = np.random.default_rng(0)
    syms = rng.integers(0, 8, 2000)
    table = FrequencyTable(np.full(8, 100))
    _, nbits = entropy_encode(syms, table)
    ideal = 2000 * math.log2(8)
    assert 0.99 * ideal <= nbits <= 1.01 * ideal + 64


def test_table_validation():
    with pytest.raises(ValueError):
        FrequencyTable(np.array([5]))
    with pytest.raises(ValueError):
        FrequencyTable(np.array([5, 0]))
    with pytest.raises(ValueError):
        FrequencyTable(np.array([1 << 16, 1]))
    t = FrequencyTable(np.array([2, 3, 4]))
    assert t.cum == [0, 2, 5, 9]
    assert t.total == 9


def test_a_16_bit_table_derives_its_sums_once():
    rng = np.random.default_rng(16)
    t = fit_frequency_table(rng.integers(0, 1 << 16, 4096), 1 << 16)
    reference = [0]
    for c in t.counts:
        reference.append(reference[-1] + int(c))
    assert t.cum == reference and all(type(c) is int for c in t.cum)
    assert t.cum is t.cum and t.total == reference[-1]
    with pytest.raises(ValueError):
        t.counts[0] = 5                  # the sums stay those of the counts
    message = rng.integers(0, 1 << 16, 16)
    payload, nbits = entropy_encode(message, t)
    again = FrequencyTable(np.array(t.counts))
    assert entropy_encode(message, again) == (payload, nbits)
    np.testing.assert_array_equal(entropy_decode(payload, nbits, t, 16), message)


def test_a_table_copies_the_callers_counts():
    counts = np.array([2, 3, 4], dtype=np.int64)
    t = FrequencyTable(counts)
    counts[0] = 7
    assert t.cum == [0, 2, 5, 9]


def test_fit_adds_one_to_every_count():
    t = fit_frequency_table(np.array([0, 0, 1]), 3)
    np.testing.assert_array_equal(t.counts, [3, 2, 1])


def test_fit_rescales_oversized_totals():
    syms = np.zeros(200_000, dtype=np.int64)
    syms[:100] = 1
    t = fit_frequency_table(syms, 3)
    assert t.total <= 1 << 16
    assert np.all(t.counts >= 1)
    assert t.counts[0] > t.counts[1] > t.counts[2]


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_frequency_table(np.array([], dtype=np.int64), 4)
    with pytest.raises(ValueError):
        fit_frequency_table(np.array([0]), 1)
    with pytest.raises(ValueError):
        fit_frequency_table(np.array([4]), 4)
    with pytest.raises(ValueError):
        fit_frequency_table(np.array([-1]), 4)


def test_encode_rejects_foreign_symbols():
    table = FrequencyTable(np.array([1, 1]))
    with pytest.raises(ValueError):
        entropy_encode(np.array([2]), table)
    with pytest.raises(ValueError):
        entropy_encode(np.array([-1]), table)


def test_decode_rejects_overlong_bit_count():
    table = FrequencyTable(np.array([1, 1]))
    payload, nbits = entropy_encode(np.array([0, 1, 0]), table)
    with pytest.raises(ValueError):
        entropy_decode(payload, 8 * len(payload) + 1, table, 3)
    with pytest.raises(ValueError):
        entropy_decode(payload, nbits, table, -1)


def reference_pack(symbols, bit_width):
    """Bit-by-bit big-endian packing, last byte zero-padded."""
    bits = [(s >> k) & 1 for s in symbols for k in range(bit_width - 1, -1, -1)]
    bits += [0] * (-len(bits) % 8)
    return bytes(int("".join(map(str, bits[i:i + 8])), 2)
                 for i in range(0, len(bits), 8))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.data())
def test_pack_unpack_is_exact(bit_width, data):
    syms = data.draw(st.lists(st.integers(0, (1 << bit_width) - 1),
                              min_size=0, max_size=64))
    payload, nbits = pack_symbols(np.array(syms, dtype=np.int64), bit_width)
    assert nbits == len(syms) * bit_width
    assert payload == reference_pack(syms, bit_width)
    np.testing.assert_array_equal(
        unpack_symbols(payload, nbits, bit_width, len(syms)),
        np.array(syms, dtype=np.int32))


def test_pack_validation():
    with pytest.raises(ValueError):
        pack_symbols(np.array([4]), 2)
    with pytest.raises(ValueError):
        pack_symbols(np.array([0]), 0)
    with pytest.raises(ValueError):
        pack_symbols(np.array([0]), 17)
    payload, nbits = pack_symbols(np.array([1, 2, 3]), 4)
    with pytest.raises(ValueError):
        unpack_symbols(payload, nbits, 4, 4)
    with pytest.raises(ValueError):
        unpack_symbols(payload, nbits + 8, 4, 3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decoding_any_bytes_returns_symbols_in_range_or_raises(data):
    # A receiver gets arbitrary bytes; within a valid bit count every
    # payload decodes to `count` symbols of the alphabet, and only an
    # invalid bit count or count raises, always as ValueError.
    k = data.draw(st.integers(2, 32), label="alphabet")
    counts = data.draw(st.lists(st.integers(1, 2048), min_size=k, max_size=k),
                       label="counts")
    table = FrequencyTable(np.array(counts))
    payload = data.draw(st.binary(max_size=40), label="payload")
    nbits = data.draw(st.integers(-2, 8 * len(payload) + 2), label="nbits")
    count = data.draw(st.integers(-1, 64), label="count")
    if 0 <= nbits <= 8 * len(payload) and count >= 0:
        out = entropy_decode(payload, nbits, table, count)
        assert out.shape == (count,)
        assert np.all((out >= 0) & (out < k))
    else:
        with pytest.raises(ValueError):
            entropy_decode(payload, nbits, table, count)
