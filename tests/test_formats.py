"""The four binary file formats: exact bytes, malformed headers, fuzzing.

The golden-byte references are built with struct and tobytes here, apart
from the writers' own container helper, so they pin the on-disk layout.
"""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csicodec.channel import half_wavelength_config
from csicodec.codec import (
    encode_sample,
    fit_codec_state,
    load_sidecar,
    parse_bitstream,
    save_bitstream,
    save_sidecar,
    serialize_bitstream,
)
from csicodec.dataset import generate_dataset, load_dataset, save_dataset
from csicodec.model import ArchConfig, init_params, load_checkpoint, save_checkpoint

ARCH = ArchConfig(hidden_dim=4, num_layers=2, codeword_dim=3,
                  omega0=30.0, fourier_scale=2.0)
CKPT_HEADER = "<4sIIIIddd"   # magic, version, d, L, n, omega0, fourier_scale, norm_scale
SIDECAR_HEADER = "<4sIII"    # magic, version, codeword_dim, bit_width


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small file of each format, written by the package's writers."""
    root = tmp_path_factory.mktemp("formats")
    ds = generate_dataset(3, 5, half_wavelength_config(
        num_antennas=2, num_subcarriers=3, num_paths=2))
    params = replace(init_params(4, ARCH, 0.5), norm_scale=ds.norm_scale)
    mats = ds.matrices(denormalise=True)
    state = fit_codec_state(params, mats, bit_width=2, inner_steps=2)
    out = {"root": root, "ds": ds, "params": params, "state": state,
           "streams": [encode_sample(params, mats[0], 2, s) for s in (state, None)]}
    for name, save, obj in (("d.csid", save_dataset, ds),
                            ("m.ckpt", save_checkpoint, params),
                            ("s.sidecar", save_sidecar, state),
                            ("q.csibit", save_bitstream, out["streams"][0])):
        save(obj, root / name)
        out[name] = (root / name).read_bytes()
    return out


def test_dataset_bytes_are_the_documented_layout(files):
    ds = files["ds"]
    ref = (struct.pack("<4sIIIIdQ", b"CSID", 1, 2, 3, 3, ds.norm_scale, 5)
           + ds.planes.astype("<f4").tobytes())
    assert files["d.csid"] == ref


def test_checkpoint_bytes_are_the_documented_layout(files):
    p = files["params"]
    blocks = [p.fourier]
    for k in range(1, ARCH.num_layers + 1):
        blocks += [p.blocks[f"{name}{k}"] for name in
                   ("w", "b", "scale_w", "scale_b", "shift_w", "shift_b")]
    blocks += [p.blocks["out_w"], p.blocks["out_b"]]
    ref = struct.pack(CKPT_HEADER, b"CSIN", 1, 4, 2, 3, 30.0, 2.0, p.norm_scale)
    ref += b"".join(np.asarray(b, dtype="<f4").tobytes() for b in blocks)
    assert files["m.ckpt"] == ref


def test_sidecar_bytes_are_the_documented_layout(files):
    q, table = files["state"].quantizer, files["state"].table
    ref = (struct.pack(SIDECAR_HEADER, b"CSIQ", 1, 3, 2)
           + q.lower.astype("<f8").tobytes() + q.upper.astype("<f8").tobytes()
           + table.counts.astype("<u2").tobytes())
    assert files["s.sidecar"] == ref


def test_bitstream_bytes_are_the_documented_layout(files):
    for s in files["streams"]:
        ref = struct.pack("<4sIIBBH16sI", b"CSIF", 1, s.codeword_dim, s.bit_width,
                          s.flags, 0, s.sidecar_digest, s.payload_bits) + s.payload
        assert serialize_bitstream(s) == ref
    assert files["q.csibit"] == serialize_bitstream(files["streams"][0])


def ckpt_header(**fields):
    values = dict(d=4, L=2, n=3, omega0=30.0, fourier_scale=2.0, norm_scale=1.0)
    values.update(fields)
    return struct.pack(CKPT_HEADER, b"CSIN", 1, *values.values())


def test_oversized_checkpoint_header_is_refused_before_any_allocation(tmp_path):
    # 44 bytes claiming width 2000: the size check alone must refuse it, with
    # nothing allocated for the ~130 MB of blocks the header describes.
    path = tmp_path / "wide.ckpt"
    path.write_bytes(ckpt_header(d=2000))
    assert path.stat().st_size == 44
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="wide.ckpt: checkpoint payload length 0"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("field,value", [("omega0", np.nan), ("omega0", np.inf),
                                         ("fourier_scale", np.nan),
                                         ("norm_scale", -np.inf)])
def test_non_finite_checkpoint_scales_are_refused_naming_the_file(tmp_path, field,
                                                                  value):
    path = tmp_path / "scale.ckpt"
    path.write_bytes(ckpt_header(**{field: value}) + bytes(4 * ARCH.param_count()))
    with pytest.raises(ValueError, match=f"scale.ckpt: {field} "):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["d", "L", "n"])
def test_zero_checkpoint_dimension_is_refused_naming_the_file(tmp_path, field):
    path = tmp_path / "zero.ckpt"
    path.write_bytes(ckpt_header(**{field: 0}))
    with pytest.raises(ValueError, match="zero.ckpt: (hidden_dim|num_layers|codeword_dim) 0"):
        load_checkpoint(path)


@pytest.mark.parametrize("bits", [0, 17, 1 << 26, (1 << 32) - 1])
def test_sidecar_bit_width_outside_1_to_16_is_refused_naming_the_file(tmp_path, bits):
    # 2^26 used to fail while formatting a 20-million-digit expected size
    path = tmp_path / "wide.sidecar"
    path.write_bytes(struct.pack(SIDECAR_HEADER, b"CSIQ", 1, 3, bits) + bytes(64))
    with pytest.raises(ValueError, match=f"wide.sidecar: bit_width {bits} "):
        load_sidecar(path)


def test_header_checks_run_in_order(files, tmp_path):
    """Magic, then version, then the header fields, then the exact size."""
    blob = files["s.sidecar"]
    cases = [(b"CSIX" + blob[4:], "bad magic"),
             (blob[:10], "truncated sidecar header"),
             (blob[:4] + struct.pack("<I", 2) + blob[8:] + b"?", "version 2"),
             (blob[:12] + struct.pack("<I", 99) + blob[16:-1], "bit_width 99"),
             (blob + b"\x00", "payload length")]
    for i, (bad, message) in enumerate(cases):
        path = tmp_path / f"case{i}.sidecar"
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=f"case{i}.sidecar: .*{message}"):
            load_sidecar(path)


def damaged(blob: bytes, cut: int, flips: list) -> bytes:
    """blob with the given bits flipped, then cut to at most `cut` bytes."""
    out = bytearray(blob)
    for bit in flips:
        out[bit // 8 % len(out)] ^= 1 << (bit % 8)
    return bytes(out[:cut])


DAMAGE = dict(cut=st.integers(0, 4096),
              flips=st.lists(st.integers(0, 8 * 4096), max_size=3))
FUZZ = settings(max_examples=150, deadline=None)


def load_or_valueerror(load, path):
    """Call load(path): it may return, or raise a ValueError naming path."""
    try:
        load(path)
    except ValueError as err:
        assert str(path) in str(err), err


@pytest.mark.parametrize("name,load", [("d.csid", load_dataset),
                                       ("m.ckpt", load_checkpoint),
                                       ("s.sidecar", load_sidecar)])
@FUZZ
@given(**DAMAGE)
def test_damaged_files_load_or_fail_naming_the_file(files, name, load, cut, flips):
    path = files["root"] / f"fuzz-{name}"
    path.write_bytes(damaged(files[name], cut, flips))
    load_or_valueerror(load, path)


@FUZZ
@given(**DAMAGE)
def test_damaged_streams_parse_or_fail_naming_the_context(files, cut, flips):
    for stream in files["streams"]:
        blob = damaged(serialize_bitstream(stream), cut, flips)
        try:
            parse_bitstream(blob, context="fuzzed stream")
        except ValueError as err:
            assert str(err).startswith("fuzzed stream: "), err
