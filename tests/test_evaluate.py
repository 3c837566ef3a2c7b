"""NMSE metrics, rate accounting, the SVD comparator, and sweep plumbing."""

import csv
import math
import re

import numpy as np
import pytest

from csicodec import codec
from csicodec.channel import half_wavelength_config
from csicodec.dataset import generate_dataset, save_dataset
from csicodec.evaluate import (
    SWEEP_COLUMNS,
    Rates,
    SweepSpec,
    evaluate_model,
    nmse,
    nmse_db,
    parse_sweep_spec,
    per_sample_nmse,
    rates,
    rd_sweep,
    svd_baseline,
    write_report_csv,
)
from csicodec.model import ArchConfig, init_params, save_checkpoint


def random_stack(seed, count=5, rows=4, cols=4):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(count, rows, cols))
            + 1j * rng.normal(size=(count, rows, cols)))


def test_perfect_reconstruction_scores_minus_infinity():
    h = random_stack(0)
    linear, db = nmse(h, h.copy())
    assert linear == 0.0
    assert db == float("-inf")


def test_zero_and_doubled_reconstructions_score_zero_db():
    h = random_stack(1)
    linear, db = nmse(h, np.zeros_like(h))
    assert linear == pytest.approx(1.0, abs=1e-12)
    assert db == pytest.approx(0.0, abs=1e-9)
    linear2, _ = nmse(h, 2.0 * h)
    assert linear2 == pytest.approx(1.0, abs=1e-12)


def test_nmse_is_scale_invariant():
    h = random_stack(2)
    r = random_stack(3)
    base, _ = nmse(h, r)
    scaled, _ = nmse(1e6 * h, 1e6 * r)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_per_sample_accepts_a_single_matrix():
    h = random_stack(4, count=1)
    single = per_sample_nmse(h[0], np.zeros_like(h[0]))
    assert single.shape == (1,)
    assert single[0] == pytest.approx(1.0, abs=1e-12)


def test_metric_validation():
    h = random_stack(5)
    with pytest.raises(ValueError):
        per_sample_nmse(h, h[:, :2, :])
    with pytest.raises(ValueError):
        per_sample_nmse(h[None], h[None])
    bad = h.copy()
    bad[2] = 0
    with pytest.raises(ValueError):
        per_sample_nmse(bad, h)
    with pytest.raises(ValueError):
        nmse_db(-0.1)
    assert nmse_db(0.0) == float("-inf")
    assert nmse_db(0.25) == pytest.approx(10 * math.log10(0.25))


def test_rate_identities():
    r = rates(4, 2, 8, 4, 4)
    assert r.cr == pytest.approx(4 / 32)
    assert r.bit_rate == pytest.approx(8 / 32)
    assert r.coding_gain == pytest.approx(0.0)
    assert rates(4, None, 128, 4, 4).coding_gain is None
    assert rates(96, None, 32 * 96, 32, 32).cr == pytest.approx(96 / 2048)
    # an unquantized codeword may be empty; a quantized one may not
    assert rates(0, None, 0.0, 4, 4) == Rates(cr=0.0, bit_rate=0.0, coding_gain=None)
    with pytest.raises(ValueError):
        rates(0, 2, 8, 4, 4)
    with pytest.raises(ValueError):
        rates(-1, None, 8, 4, 4)
    with pytest.raises(ValueError):
        rates(4, 0, 8, 4, 4)
    with pytest.raises(ValueError):
        rates(4, 2, -1, 4, 4)


def test_svd_reconstructs_training_samples_with_enough_directions():
    h = random_stack(6, count=10)
    report = svd_baseline(h, h, codeword_dim=32)
    assert report.nmse_linear < 1e-24
    assert report.nmse_db == float("-inf") or report.nmse_db < -200


def test_svd_with_zero_directions_is_the_mean_predictor():
    tr = random_stack(7, count=20)
    te = random_stack(8, count=6)
    report = svd_baseline(tr, te, codeword_dim=0)
    assert (report.cr, report.bit_rate, report.raw_bits) == (0.0, 0.0, 0)
    flat = np.concatenate([tr.real.reshape(20, -1), tr.imag.reshape(20, -1)],
                          axis=1)
    mean = flat.mean(axis=0)
    recon = (mean[:16] + 1j * mean[16:]).reshape(4, 4)
    expected = per_sample_nmse(te, np.broadcast_to(recon, te.shape))
    np.testing.assert_allclose(report.per_sample, expected, rtol=1e-12)
    assert report.raw_bits == 0
    assert report.cr == 0.0


def test_svd_error_shrinks_with_more_directions():
    tr = random_stack(9, count=40)
    te = random_stack(10, count=8)
    small = svd_baseline(tr, te, codeword_dim=2)
    big = svd_baseline(tr, te, codeword_dim=8)
    assert np.all(big.per_sample <= small.per_sample + 1e-12)


def test_svd_is_deterministic():
    tr = random_stack(11, count=15)
    te = random_stack(12, count=4)
    a = svd_baseline(tr, te, codeword_dim=5)
    b = svd_baseline(tr, te, codeword_dim=5)
    np.testing.assert_array_equal(a.per_sample, b.per_sample)


def test_svd_validation():
    tr = random_stack(13)
    with pytest.raises(ValueError):
        svd_baseline(tr, random_stack(14, rows=5), 4)
    with pytest.raises(ValueError):
        svd_baseline(tr, tr, 33)
    with pytest.raises(ValueError):
        svd_baseline(tr, tr, -1)


@pytest.mark.parametrize("empty", ["train", "test"])
def test_svd_refuses_an_empty_stack_by_name(empty):
    tr, te = random_stack(15), random_stack(16)
    stacks = {"train": tr, "test": te, empty: (tr if empty == "train" else te)[:0]}
    with pytest.raises(ValueError, match=f"^empty {empty} stack: no channel matrices$"):
        svd_baseline(stacks["train"], stacks["test"], 2)


ARCH = ArchConfig(hidden_dim=8, num_layers=2, codeword_dim=4,
                  omega0=30.0, fourier_scale=2.0)


def test_evaluate_model_matches_the_codec_chain():
    params = init_params(0, ARCH, mod_scale=0.5)
    mats = random_stack(15, count=6)
    report = evaluate_model(params, mats, inner_steps=2, fingerprint="abc")
    from csicodec.model import CoordinateGrid
    streams = codec.encode_dataset(params, mats, 2)
    recons = codec.decode_matrices(params, streams, CoordinateGrid(4, 4))
    linear, db = nmse(mats, recons)
    assert report.nmse_linear == pytest.approx(linear, rel=1e-12)
    assert report.nmse_db == pytest.approx(db, rel=1e-12)
    assert report.count == 6
    assert report.raw_bits == 32 * ARCH.codeword_dim
    assert report.mean_payload_bits == 32.0 * ARCH.codeword_dim
    assert report.coding_gain is None
    assert report.fingerprint == "abc"


def test_evaluate_model_with_quantization_reports_the_gain():
    params = init_params(1, ARCH, mod_scale=0.5)
    mats = random_stack(16, count=8)
    state = codec.fit_codec_state(params, mats, bit_width=3, inner_steps=2)
    report = evaluate_model(params, mats, inner_steps=2, state=state)
    n = ARCH.codeword_dim
    assert report.raw_bits == 3 * n
    assert report.mean_payload_bits <= 3 * n
    assert report.coding_gain == pytest.approx(
        1.0 - report.mean_payload_bits / (3 * n))
    assert report.bit_rate == pytest.approx(report.mean_payload_bits / 32)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def test_report_csv_round_trip(tmp_path):
    rows = [
        {"checkpoint": "a.ckpt", "n": 16, "b": 3, "s_in": 5, "samples": 100,
         "nmse_db": -12.345678901234567, "mean_payload_bits": 42.5,
         "bit_rate": 0.0830078125, "cr": 0.03125, "coding_gain": 0.1146,
         "fingerprint": "deadbeef"},
        {"checkpoint": "a.ckpt", "n": 16, "b": None, "s_in": 3, "samples": 10,
         "nmse_db": float("-inf"), "mean_payload_bits": 512.0,
         "bit_rate": 1.0, "cr": 0.03125, "coding_gain": None,
         "fingerprint": ""},
    ]
    path = tmp_path / "report.csv"
    write_report_csv(rows, path)
    columns, back = read_csv(path)
    assert tuple(columns) == SWEEP_COLUMNS
    assert float(back[0]["nmse_db"]) == rows[0]["nmse_db"]
    assert back[0]["b"] == "3"
    assert back[1]["b"] == ""
    assert back[1]["nmse_db"] == "-inf"
    assert float(back[1]["nmse_db"]) == float("-inf")
    assert back[1]["coding_gain"] == ""
    assert back[1]["fingerprint"] == ""


def test_parse_sweep_spec(tmp_path):
    text = """
# rate-distortion cells
dataset = test.csid
checkpoints = a.ckpt, b.ckpt
bits = none, 8, 3
inner_steps = 3
out = report.csv
eval_count = 64
"""
    path = tmp_path / "sweep.spec"
    path.write_text(text)
    spec = parse_sweep_spec(path)
    assert spec.dataset == "test.csid"
    assert spec.checkpoints == ("a.ckpt", "b.ckpt")
    assert spec.bits == (None, 8, 3)
    assert spec.inner_steps == (3,)
    assert spec.eval_count == 64
    assert spec.fit_dataset is None

    path.write_text("dataset = x\n")
    with pytest.raises(ValueError, match="missing required key"):
        parse_sweep_spec(path)
    path.write_text("just words\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_sweep_spec(path)
    assert spec.settings() == {
        "dataset": "test.csid", "checkpoints": ("a.ckpt", "b.ckpt"),
        "bits": (None, 8, 3), "inner_steps": (3,), "fit_dataset": None,
        "fit_count": None, "eval_offset": 0, "eval_count": 64}
    with pytest.raises(ValueError):
        SweepSpec(dataset="d", checkpoints=(), bits=(3,), inner_steps=(1,),
                  out="o")


@pytest.mark.parametrize("first, message", [
    ("eval_cout = 4", "1: unknown key 'eval_cout'$"),
    ("bits = 8", "4: repeated key 'bits'$"),
    ("eval_count = four", "1: eval_count: invalid literal for int"),
    ("fit_count =", "1: fit_count: invalid literal for int"),
    ("inner_steps = 1, x", "1: inner_steps: invalid literal for int")],
    ids=["unknown", "repeated", "word", "empty", "list-item"])
def test_parse_sweep_spec_refuses_a_bad_line_by_path_and_number(tmp_path, first,
                                                                message):
    path = tmp_path / "sweep.spec"
    path.write_text(f"{first}\ndataset = d\ncheckpoints = c\nbits = 3\n"
                    "inner_steps = 1\nout = o\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{message}"):
        parse_sweep_spec(path)


def test_sweep_runs_every_cell_and_writes_the_report(tmp_path):
    cfg = half_wavelength_config(num_antennas=4, num_subcarriers=4,
                                 num_paths=2)
    ds = generate_dataset(10, 21, cfg)
    ds_path = tmp_path / "tiny.csid"
    save_dataset(ds, ds_path)
    params = init_params(2, ARCH, mod_scale=0.5)
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(params, ckpt)
    out = tmp_path / "report.csv"
    spec = SweepSpec(dataset=str(ds_path), checkpoints=(str(ckpt),),
                     bits=(None, 3), inner_steps=(1, 2), out=str(out),
                     fit_count=8, eval_offset=8, eval_count=2)
    rows = rd_sweep(spec)
    assert len(rows) == 4
    assert all(row["samples"] == 2 for row in rows)
    assert {row["b"] for row in rows} == {None, 3}
    columns, back = read_csv(out)
    assert tuple(columns) == SWEEP_COLUMNS
    assert len(back) == 4
    assert all(row["n"] == str(ARCH.codeword_dim) for row in back)
    assert [float(row["nmse_db"]) for row in back] == [row["nmse_db"] for row in rows]

    missing = SweepSpec(dataset=str(tmp_path / "absent.csid"),
                        checkpoints=(str(ckpt),), bits=(3,),
                        inner_steps=(1,), out=str(out))
    with pytest.raises(ValueError, match="absent.csid"):
        rd_sweep(missing)


@pytest.mark.parametrize("bits", [None, 3])
def test_sweep_refuses_a_negative_inner_step_count_naming_the_cell(tmp_path, bits):
    cfg = half_wavelength_config(num_antennas=4, num_subcarriers=4, num_paths=2)
    ds_path, ckpt = tmp_path / "tiny.csid", tmp_path / "tiny.ckpt"
    save_dataset(generate_dataset(6, 22, cfg), ds_path)
    save_checkpoint(init_params(2, ARCH, mod_scale=0.5), ckpt)
    out = tmp_path / "report.csv"
    spec = SweepSpec(dataset=str(ds_path), checkpoints=(str(ckpt),),
                     bits=(bits,), inner_steps=(2, -1), out=str(out))
    with pytest.raises(ValueError, match=rf"^sweep cell checkpoint={ckpt} b={bits} "
                       r"s_in=-1: inner_steps must be >= 0, got -1$"):
        rd_sweep(spec)
    assert not out.exists()
