"""Quantizer, sidecar, and bitstream behaviour of the feedback codec."""

import numpy as np
import pytest

import hashlib
from dataclasses import replace

from csicodec import codec, util
from csicodec.codec import (
    FLAG_ENTROPY,
    FLAG_RAW,
    FLAG_UNQUANTIZED,
    Bitstream,
    CodecState,
    QuantizerConfig,
    TrainingDiverged,
    _payload_for,
    adapt_codewords,
    decode_codeword,
    decode_matrices,
    decode_sample,
    dequantize,
    encode_dataset,
    encode_sample,
    fit_codec_state,
    fit_quantizer,
    inner_adapt_batch,
    load_bitstream,
    load_sidecar,
    parse_bitstream,
    quantize,
    save_bitstream,
    save_sidecar,
    serialize_bitstream,
)
from csicodec.entropy import FrequencyTable, entropy_encode, pack_symbols
from csicodec.evaluate import evaluate_model
from csicodec.model import ArchConfig, CoordinateGrid, init_params
from csicodec.siren import forward_batch, fourier_features, zero_start

ARCH = ArchConfig(hidden_dim=8, num_layers=2, codeword_dim=4,
                  omega0=30.0, fourier_scale=2.0)
GRID = CoordinateGrid(4, 4)


def make_model(seed=0):
    return init_params(seed, ARCH, mod_scale=0.5)


def make_matrices(seed, count=6):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(count, 4, 4))
            + 1j * rng.normal(size=(count, 4, 4)))


def reconstruct(params, codeword, grid):
    """Reference decoder for one codeword: a batch-of-one forward, rescaled."""
    out, _ = forward_batch(params, np.asarray(codeword)[None],
                           feats=fourier_features(params, grid.flat_coords()))
    re, im = (out[0, :, k].astype(np.float64).reshape(grid.num_rows, grid.num_cols)
              for k in (0, 1))
    return (re + 1j * im) * params.norm_scale


def simple_quantizer(bit_width=3):
    return QuantizerConfig(bit_width, np.array([-1.0, 0.0]),
                           np.array([1.0, 4.0]))


def test_quantizer_error_is_at_most_half_a_bin():
    q = simple_quantizer(4)
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = q.lower + rng.uniform(0, 1, 2) * (q.upper - q.lower)
        s = quantize(x, q)
        assert np.all(s >= 0) and np.all(s < 16)
        err = np.abs(dequantize(s, q) - x)
        assert np.all(err <= q.bin_width / 2 + 1e-12)


def test_quantization_is_idempotent():
    q = simple_quantizer(5)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.uniform(-2, 5, 2)
        s = quantize(x, q)
        np.testing.assert_array_equal(quantize(dequantize(s, q), q), s)


def test_out_of_range_values_clamp_to_edge_bins():
    q = simple_quantizer(3)
    np.testing.assert_array_equal(quantize(np.array([-9.0, -1.0]), q), [0, 0])
    np.testing.assert_array_equal(quantize(np.array([9.0, 99.0]), q), [7, 7])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_codeword_entries_are_rejected(bad):
    q = simple_quantizer(3)
    with pytest.raises(ValueError, match="non-finite"):
        quantize(np.array([0.0, bad]), q)


def test_fit_quantizer_widens_bounds_by_one_percent():
    cw = np.array([[0.0, 5.0], [2.0, 5.0], [1.0, 5.0]])
    q = fit_quantizer(cw, 4)
    np.testing.assert_allclose(q.lower, [-0.02, 5.0 - 1e-6], atol=1e-15)
    np.testing.assert_allclose(q.upper, [2.02, 5.0 + 1e-6], atol=1e-15)
    with pytest.raises(ValueError):
        fit_quantizer(cw[0], 4)
    with pytest.raises(ValueError):
        fit_quantizer(cw[:0], 4)


def test_quantizer_validation():
    with pytest.raises(ValueError):
        QuantizerConfig(0, np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        QuantizerConfig(17, np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        QuantizerConfig(3, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        QuantizerConfig(3, np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        QuantizerConfig(3, np.array([np.inf]), np.array([1.0]))
    q = simple_quantizer(3)
    with pytest.raises(ValueError):
        quantize(np.zeros(3), q)
    with pytest.raises(ValueError):
        dequantize(np.array([0, 8]), q)
    with pytest.raises(ValueError):
        dequantize(np.array([-1, 0]), q)


def test_sidecar_round_trip(tmp_path):
    params = make_model()
    state = fit_codec_state(params, make_matrices(3), bit_width=4,
                            inner_steps=2)
    path = tmp_path / "codec.sidecar"
    save_sidecar(state, path)
    back = load_sidecar(path)
    assert back.digest() == state.digest()
    np.testing.assert_array_equal(back.quantizer.lower, state.quantizer.lower)
    np.testing.assert_array_equal(back.quantizer.upper, state.quantizer.upper)
    np.testing.assert_array_equal(back.table.counts, state.table.counts)


def test_sidecar_rejects_corruption(tmp_path):
    params = make_model()
    state = fit_codec_state(params, make_matrices(3), bit_width=3,
                            inner_steps=2)
    path = tmp_path / "codec.sidecar"
    save_sidecar(state, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.sidecar"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="bad magic"):
        load_sidecar(bad)
    bad.write_bytes(blob[:-3])
    with pytest.raises(ValueError):
        load_sidecar(bad)


def test_mismatched_sidecar_is_refused():
    params = make_model()
    mats = make_matrices(4)
    state_a = fit_codec_state(params, mats[:3], bit_width=3, inner_steps=2)
    state_b = CodecState(
        QuantizerConfig(3, state_a.quantizer.lower - 0.5,
                        state_a.quantizer.upper + 0.5),
        state_a.table)
    stream = encode_sample(params, mats[3], 2, state_a)
    with pytest.raises(ValueError, match="digest mismatch"):
        decode_codeword(params, stream, state_b)
    with pytest.raises(ValueError, match="sidecar"):
        decode_codeword(params, stream, None)


def test_unquantized_stream_is_lossless_in_float32():
    params = make_model()
    mat = make_matrices(5, count=1)[0]
    stream = encode_sample(params, mat, 3, state=None)
    assert stream.flags == FLAG_UNQUANTIZED
    assert stream.payload_bits == 32 * ARCH.codeword_dim
    cw = decode_codeword(params, stream)
    expected = adapt_codewords(params, mat[None, :, :], 3)[0]
    np.testing.assert_array_equal(cw.astype(np.float32), expected)
    np.testing.assert_allclose(decode_sample(params, stream, GRID),
                               reconstruct(params, cw, GRID))


def test_payload_never_exceeds_the_fixed_width_budget():
    params = make_model()
    mats = make_matrices(6, count=12)
    for b in (1, 3, 8):
        state = fit_codec_state(params, mats, bit_width=b, inner_steps=2)
        for stream in encode_dataset(params, mats, 2, state):
            assert stream.payload_bits <= ARCH.codeword_dim * b
            assert len(stream.payload) == (stream.payload_bits + 7) // 8
            assert stream.flags in (FLAG_RAW, FLAG_ENTROPY)


def test_zero_inner_steps_sends_the_zero_codeword():
    params = make_model()
    mat = make_matrices(7, count=1)[0]
    stream = encode_sample(params, mat, 0, state=None)
    np.testing.assert_array_equal(decode_codeword(params, stream),
                                  np.zeros(ARCH.codeword_dim))
    np.testing.assert_allclose(
        decode_sample(params, stream, GRID),
        reconstruct(params, np.zeros(ARCH.codeword_dim), GRID))


def test_quantized_round_trip_recovers_bin_centers():
    params = make_model()
    mats = make_matrices(8, count=10)
    state = fit_codec_state(params, mats, bit_width=8, inner_steps=2)
    from csicodec.codec import adapt_codewords
    cws = adapt_codewords(params, mats, 2)
    for i, stream in enumerate(encode_dataset(params, mats, 2, state)):
        got = decode_codeword(params, stream, state)
        expected = dequantize(quantize(cws[i].astype(np.float64),
                                       state.quantizer), state.quantizer)
        np.testing.assert_allclose(got, expected, atol=1e-6)


def test_bitstream_file_round_trip(tmp_path):
    params = make_model()
    mats = make_matrices(9, count=4)
    state = fit_codec_state(params, mats, bit_width=3, inner_steps=2)
    stream = encode_sample(params, mats[0], 2, state)
    path = tmp_path / "sample.csibit"
    save_bitstream(stream, path)
    back = load_bitstream(path)
    assert back == stream
    assert serialize_bitstream(stream) == path.read_bytes()


def test_bitstream_parse_rejects_malformed_blobs(tmp_path):
    params = make_model()
    stream = encode_sample(params, make_matrices(10, count=1)[0], 2, None)
    blob = serialize_bitstream(stream)
    with pytest.raises(ValueError, match="bad magic"):
        parse_bitstream(b"NOPE" + blob[4:])
    with pytest.raises(ValueError, match="truncated"):
        parse_bitstream(blob[:8])
    with pytest.raises(ValueError, match="payload length"):
        parse_bitstream(blob + b"\x00")
    with pytest.raises(ValueError):
        Bitstream(4, 0, 7, b"\x00" * 16, b"", 0)
    with pytest.raises(ValueError):
        Bitstream(4, 0, FLAG_UNQUANTIZED, b"\x00" * 5, b"", 0)
    with pytest.raises(ValueError):
        Bitstream(4, 0, FLAG_UNQUANTIZED, b"\x00" * 16, b"\x00", 16)


def test_padding_bits_must_be_zero():
    digest = b"\x00" * 16
    stream = Bitstream(4, 3, FLAG_RAW, digest, b"\xff\xf0", 12)
    blob = serialize_bitstream(stream)
    tampered = blob[:-1] + bytes([blob[-1] | 0x01])
    with pytest.raises(ValueError, match="padding"):
        parse_bitstream(tampered)


def test_decoder_checks_stream_against_the_model():
    params = make_model()
    stream = encode_sample(params, make_matrices(11, count=1)[0], 2, None)
    wrong = Bitstream(ARCH.codeword_dim + 1, 0, FLAG_UNQUANTIZED,
                      stream.sidecar_digest,
                      stream.payload + b"\x00\x00\x00\x00",
                      stream.payload_bits + 32)
    with pytest.raises(ValueError, match="does not match the model"):
        decode_codeword(params, wrong)

    mats = make_matrices(12, count=4)
    state3 = fit_codec_state(params, mats, bit_width=3, inner_steps=2)
    state4 = fit_codec_state(params, mats, bit_width=4, inner_steps=2)
    q_stream = encode_sample(params, mats[0], 2, state3)
    with pytest.raises(ValueError, match="bit width"):
        decode_codeword(params, q_stream, state4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_unquantized_payload_is_refused(bad):
    params = make_model()
    n = ARCH.codeword_dim
    cw = np.zeros(n, dtype="<f4")
    cw[1] = bad
    blob = serialize_bitstream(Bitstream(n, 0, FLAG_UNQUANTIZED, bytes(16),
                                         cw.tobytes(), 32 * n))
    stream = parse_bitstream(blob)
    message = r"^unquantized payload holds non-finite values$"
    with pytest.raises(ValueError, match=message):
        decode_codeword(params, stream)
    with pytest.raises(ValueError, match=message):
        decode_matrices(params, [stream], GRID)


def test_encoding_is_deterministic():
    params = make_model()
    mats = make_matrices(13, count=5)
    s1 = fit_codec_state(params, mats, bit_width=4, inner_steps=2)
    s2 = fit_codec_state(params, mats, bit_width=4, inner_steps=2)
    assert s1.digest() == s2.digest()
    a = encode_sample(params, mats[0], 2, s1)
    b = encode_sample(params, mats[0], 2, s2)
    assert a == b


def test_batched_decode_matches_per_sample_decode(monkeypatch):
    params = make_model()
    mats = make_matrices(14, count=5)
    state = fit_codec_state(params, mats, bit_width=6, inner_steps=2)
    streams = encode_dataset(params, mats, 2, state)
    monkeypatch.setattr(codec, "TILE", 2)
    batched = decode_matrices(params, streams, GRID, state)
    singles = np.stack([decode_sample(params, s, GRID, state)
                        for s in streams])
    np.testing.assert_allclose(batched, singles, atol=1e-6)


def test_single_message_paths_equal_the_per_message_chain():
    # encode_sample and decode_sample are batch-of-one calls of the batched
    # paths; the reference spells out the per-message chain they replaced.
    params = make_model()
    mats = make_matrices(15, count=4)
    state = fit_codec_state(params, mats, bit_width=4, inner_steps=2)
    n = ARCH.codeword_dim
    for st in (None, state):
        for mat in mats:
            stream = encode_sample(params, mat, 2, st)
            cw = adapt_codewords(params, mat[None, :, :], 2)[0]
            if st is None:
                expected = Bitstream(n, 0, FLAG_UNQUANTIZED, bytes(16),
                                     cw.astype("<f4").tobytes(), 32 * n)
            else:
                flags, payload, bits = _payload_for(quantize(cw, st.quantizer), st)
                expected = Bitstream(n, st.quantizer.bit_width, flags,
                                     st.digest(), payload, bits)
            assert serialize_bitstream(stream) == serialize_bitstream(expected)
            np.testing.assert_array_equal(
                decode_sample(params, stream, GRID, st),
                reconstruct(params, decode_codeword(params, stream, st), GRID))


@pytest.mark.parametrize("count", [1, 5, 37])
def test_tiles_give_the_same_arrays_on_any_thread_count(count, tile_threads,
                                                       monkeypatch):
    params = make_model()
    mats = make_matrices(16, count=count)
    state = fit_codec_state(params, mats, bit_width=4, inner_steps=2)
    streams = encode_dataset(params, mats, 2, state)
    monkeypatch.setattr(codec, "TILE", 8)

    def run():
        return (adapt_codewords(params, mats, 2),
                decode_matrices(params, streams, GRID, state))

    parallel = run()
    monkeypatch.setattr(util, "_cpu_count", lambda: 1)
    serial = run()
    monkeypatch.setattr(util, "_cpu_count", lambda: 4)
    monkeypatch.setattr(util, "_openblas_threads", lambda: None)
    no_handle = run()
    for par, ser, fallback in zip(parallel, serial, no_handle):
        np.testing.assert_array_equal(par, ser)
        np.testing.assert_array_equal(par, fallback)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_tile_raises_and_restores_blas_threads(tile_threads, monkeypatch):
    params = make_model()
    mats = make_matrices(17, count=37)
    before = tile_threads.get()
    monkeypatch.setattr(codec, "TILE", 8)
    with pytest.raises(TrainingDiverged, match="inner step 1: non-finite codeword"):
        adapt_codewords(params, mats, 3, inner_lr=1e40)
    assert tile_threads.get() == before


def test_state_table_must_cover_the_alphabet():
    q = simple_quantizer(3)
    with pytest.raises(ValueError):
        CodecState(q, FrequencyTable(np.ones(4, dtype=np.int64)))


@pytest.fixture
def jacobians(monkeypatch):
    """Count the zero-codeword Jacobians the codec builds."""
    built = []

    def counted(params, feats):
        built.append(params)
        return zero_start(params, feats)

    monkeypatch.setattr(codec, "zero_start", counted)
    return built


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_codec_codewords_agree_with_the_plain_loop_on_a_ragged_stack(steps):
    params = make_model(3).cast(np.float64)
    mats = make_matrices(18, count=37)
    got = adapt_codewords(params, mats, steps)
    planes, grid = codec._to_planes(params, mats)
    feats = fourier_features(params, grid.flat_coords())
    plain = inner_adapt_batch(params, feats, planes, steps, 1e-2)
    np.testing.assert_allclose(got, plain, rtol=0, atol=1e-13 * np.abs(plain).max())


def test_zero_steps_and_empty_stacks_build_no_jacobian(jacobians):
    params = make_model()
    mats = make_matrices(19, count=3)
    np.testing.assert_array_equal(adapt_codewords(params, mats, 0), 0.0)
    with pytest.raises(ValueError, match="empty stack"):
        adapt_codewords(params, mats[:0], 3)
    assert jacobians == []
    assert all("zero" not in v for v in params.grid_cache.values())


def test_the_jacobian_is_built_once_per_params_and_grid(jacobians):
    params = make_model()
    mats = make_matrices(20, count=5)
    streams = encode_dataset(params, mats, 2)
    assert encode_sample(params, mats[3], 3) == encode_dataset(params, mats[3:4], 3)[0]
    decode_matrices(params, streams, GRID)
    assert len(jacobians) == 1 and jacobians[0] is params
    adapt_codewords(params, np.ones((2, 2, 8), complex), 1)    # another grid
    other = replace(params, norm_scale=2.0)
    encode_sample(other, mats[0], 2)
    encode_sample(other, mats[1], 2)
    assert len(jacobians) == 3
    assert jacobians[1] is params and jacobians[2] is other


def test_an_empty_stack_is_refused_by_name():
    params = make_model()
    empty = np.zeros((0, 4, 4), complex)
    state = fit_codec_state(params, make_matrices(21), bit_width=3, inner_steps=2)
    for call in (lambda: adapt_codewords(params, empty, 2),
                 lambda: encode_dataset(params, empty, 2, state),
                 lambda: fit_codec_state(params, empty, 3, 2),
                 lambda: evaluate_model(params, empty, 2, state)):
        with pytest.raises(ValueError, match="empty stack: no channel matrices"):
            call()
    with pytest.raises(ValueError, match="empty stack: no bitstreams"):
        decode_matrices(params, [], GRID, state)


def both_payloads(symbols, state):
    """The payload choice that packs every message fixed-width as well."""
    coded, coded_bits = entropy_encode(symbols, state.table)
    raw, raw_bits = pack_symbols(symbols, state.quantizer.bit_width)
    if coded_bits < raw_bits:
        return FLAG_ENTROPY, coded, coded_bits
    return FLAG_RAW, raw, raw_bits


def test_fixed_width_packing_runs_only_on_fallback(monkeypatch):
    params = make_model()
    mats = make_matrices(22, count=40)
    state = fit_codec_state(params, mats[:8], bit_width=3, inner_steps=2)
    packed = []
    monkeypatch.setattr(codec, "pack_symbols",
                        lambda *a: packed.append(a) or pack_symbols(*a))
    flags = []
    for cw in adapt_codewords(params, mats, 2):
        symbols = quantize(cw, state.quantizer)
        got = _payload_for(symbols, state)
        assert got == both_payloads(symbols, state)
        flags.append(got[0])
    assert FLAG_RAW in flags and FLAG_ENTROPY in flags
    assert len(packed) == flags.count(FLAG_RAW)


def test_the_sidecar_digest_is_hashed_once_per_state(monkeypatch):
    params = make_model()
    mats = make_matrices(23, count=4)
    state = fit_codec_state(params, mats, bit_width=16, inner_steps=2)
    expected = hashlib.sha256(codec.sidecar_bytes(state)).digest()[:16]
    assert state.digest() == expected
    hashed = []
    monkeypatch.setattr(codec, "sidecar_bytes",
                        lambda st: hashed.append(st) or b"")
    streams = encode_dataset(params, mats, 2, state)
    decode_matrices(params, streams, GRID, state)
    assert all(s.sidecar_digest == expected for s in streams)
    assert hashed == []     # not hashed again
    with pytest.raises(ValueError):     # bounds are read-only copies
        state.quantizer.lower[0] = 0.0
