"""End-to-end smoke of every CLI subcommand at toy scale."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from csicodec.cli import main
from csicodec.codec import FLAG_UNQUANTIZED, Bitstream, save_bitstream
from csicodec.dataset import load_dataset, save_dataset
from csicodec.evaluate import read_report_csv
from csicodec.model import load_checkpoint

ARCH_ARGS = ["--hidden-dim", "8", "--layers", "2", "--codeword-dim", "4",
             "--omega0", "30", "--fourier-scale", "2"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One dataset + checkpoint + sidecar shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "toy.csid"
    ckpt = root / "toy.ckpt"
    sidecar = root / "toy.sidecar"
    assert main(["gen-data", "--count", "14", "--out", str(ds),
                 "--num-antennas", "4", "--num-subcarriers", "4",
                 "--num-paths", "2", "--seed", "3"]) == 0
    assert main(["train", "--dataset", str(ds), "--out", str(ckpt),
                 "--train-count", "8", "--val-count", "4",
                 "--batch-size", "4", "--epochs", "1",
                 "--mod-scale", "0.5", "--seed", "1", *ARCH_ARGS]) == 0
    assert main(["fit-codec", "--checkpoint", str(ckpt), "--dataset", str(ds),
                 "--out", str(sidecar), "--bits", "3", "--inner-steps", "2",
                 "--count", "8"]) == 0
    return {"root": root, "ds": ds, "ckpt": ckpt, "sidecar": sidecar}


def test_gen_data_writes_a_loadable_dataset(workspace, capsys):
    ds = load_dataset(workspace["ds"])
    assert len(ds) == 14
    assert (ds.num_antennas, ds.num_subcarriers) == (4, 4)
    # same flags, same file bytes
    again = workspace["root"] / "again.csid"
    main(["gen-data", "--count", "14", "--out", str(again),
          "--num-antennas", "4", "--num-subcarriers", "4",
          "--num-paths", "2", "--seed", "3"])
    assert again.read_bytes() == workspace["ds"].read_bytes()
    assert "config " in capsys.readouterr().out


def test_train_writes_checkpoint_and_log(workspace, capsys):
    params = load_checkpoint(workspace["ckpt"])
    assert params.arch.codeword_dim == 4
    log = workspace["root"] / "train.csv"
    ckpt2 = workspace["root"] / "toy2.ckpt"
    main(["train", "--dataset", str(workspace["ds"]), "--out", str(ckpt2),
          "--log", str(log), "--train-count", "8", "--val-count", "4",
          "--batch-size", "4", "--epochs", "1", "--mod-scale", "0.5",
          "--seed", "1", *ARCH_ARGS])
    out = capsys.readouterr().out
    assert "epoch 0" in out and "best" in out
    assert log.read_text().startswith("step,loss,epoch,val_nmse_db")
    # deterministic training: re-run reproduces the checkpoint bytes
    assert ckpt2.read_bytes() == workspace["ckpt"].read_bytes()


def test_encode_decode_round_trip(workspace, capsys):
    root = workspace["root"]
    stream = root / "s0.csibit"
    recon = root / "s0.npy"
    assert main(["encode", "--checkpoint", str(workspace["ckpt"]),
                 "--dataset", str(workspace["ds"]), "--index", "9",
                 "--out", str(stream), "--sidecar", str(workspace["sidecar"]),
                 "--inner-steps", "2"]) == 0
    assert main(["decode", "--checkpoint", str(workspace["ckpt"]),
                 "--stream", str(stream), "--out", str(recon),
                 "--sidecar", str(workspace["sidecar"]),
                 "--reference", str(workspace["ds"]), "--index", "9"]) == 0
    out = capsys.readouterr().out
    assert "payload bits" in out
    assert "NMSE vs reference" in out
    h = np.load(recon)
    assert h.shape == (4, 4) and np.iscomplexobj(h)


def test_decode_without_sidecar_fails_cleanly(workspace, capsys):
    root = workspace["root"]
    stream = root / "s1.csibit"
    main(["encode", "--checkpoint", str(workspace["ckpt"]),
          "--dataset", str(workspace["ds"]), "--out", str(stream),
          "--sidecar", str(workspace["sidecar"]), "--inner-steps", "2"])
    rc = main(["decode", "--checkpoint", str(workspace["ckpt"]),
               "--stream", str(stream), "--out", str(root / "x.npy"),
               "--rows", "4", "--cols", "4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "sidecar" in captured.err


def test_decode_with_a_non_finite_checkpoint_fails_cleanly(workspace, capsys):
    root = workspace["root"]
    stream = root / "s2.csibit"
    main(["encode", "--checkpoint", str(workspace["ckpt"]),
          "--dataset", str(workspace["ds"]), "--out", str(stream),
          "--inner-steps", "2"])
    blob = bytearray(workspace["ckpt"].read_bytes())
    blob[20:28] = struct.pack("<d", float("nan"))     # omega0
    bad = root / "nan-omega0.ckpt"
    bad.write_bytes(bytes(blob))
    rc = main(["decode", "--checkpoint", str(bad), "--stream", str(stream),
               "--out", str(root / "y.npy"), "--rows", "4", "--cols", "4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: {bad}: omega0 nan")


@pytest.mark.parametrize("index", ["99", "14", "-1"])
def test_decode_refuses_a_reference_index_outside_the_dataset(workspace, capsys, index):
    root = workspace["root"]
    stream = root / "s3.csibit"
    main(["encode", "--checkpoint", str(workspace["ckpt"]),
          "--dataset", str(workspace["ds"]), "--out", str(stream),
          "--inner-steps", "2"])
    capsys.readouterr()
    recon = root / f"index{index}.npy"
    with pytest.raises(SystemExit, match=rf"^reference index {index} outside "
                       r"dataset of 14$"):
        main(["decode", "--checkpoint", str(workspace["ckpt"]),
              "--stream", str(stream), "--out", str(recon),
              "--reference", str(workspace["ds"]), "--index", index])
    assert not recon.exists()                  # refused before decoding
    assert "config " not in capsys.readouterr().out


def test_decode_refuses_a_non_finite_unquantized_payload(workspace, capsys):
    root = workspace["root"]
    cw = np.array([0.0, np.nan, 0.0, 0.0], dtype="<f4")
    stream = root / "nan.csibit"
    save_bitstream(Bitstream(4, 0, FLAG_UNQUANTIZED, bytes(16), cw.tobytes(), 128),
                   stream)
    recon = root / "nan.npy"
    rc = main(["decode", "--checkpoint", str(workspace["ckpt"]),
               "--stream", str(stream), "--out", str(recon),
               "--rows", "4", "--cols", "4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: unquantized payload holds non-finite values\n"
    assert not recon.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_training_fails_cleanly(workspace, capsys):
    rc = main(["train", "--dataset", str(workspace["ds"]),
               "--out", str(workspace["root"] / "diverged.ckpt"),
               "--train-count", "8", "--val-count", "4", "--batch-size", "4",
               "--epochs", "1", "--inner-lr", "1e40", "--seed", "1",
               *ARCH_ARGS])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: epoch 0")
    assert not (workspace["root"] / "diverged.ckpt").exists()


def test_train_with_a_nan_mod_scale_fails_cleanly(workspace, capsys):
    rc = main(["train", "--dataset", str(workspace["ds"]),
               "--out", str(workspace["root"] / "nan-scale.ckpt"),
               "--train-count", "8", "--val-count", "4", "--batch-size", "4",
               "--epochs", "1", "--mod-scale", "nan", "--seed", "1", *ARCH_ARGS])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: mod_scale must be finite")
    assert not (workspace["root"] / "nan-scale.ckpt").exists()


def test_train_on_a_non_finite_dataset_fails_cleanly(workspace, capsys):
    ds = load_dataset(workspace["ds"])
    planes = ds.planes[:4].copy()
    planes[1, 2, 0, 1] = np.nan
    bad = workspace["root"] / "nan.csid"
    save_dataset(replace(ds, planes=planes), bad)
    rc = main(["train", "--dataset", str(bad),
               "--out", str(workspace["root"] / "nan.ckpt"),
               "--train-count", "2", "--val-count", "2", "--batch-size", "2",
               "--epochs", "1", "--seed", "1", *ARCH_ARGS])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and "nan.csid" in captured.err
    assert not (workspace["root"] / "nan.ckpt").exists()


def test_eval_prints_metrics_and_writes_csv(workspace, capsys):
    out_csv = workspace["root"] / "eval.csv"
    assert main(["eval", "--checkpoint", str(workspace["ckpt"]),
                 "--dataset", str(workspace["ds"]), "--sidecar",
                 str(workspace["sidecar"]), "--inner-steps", "2",
                 "--offset", "8", "--count", "4", "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "NMSE" in out and "bit rate" in out
    _, rows = read_report_csv(out_csv)
    assert len(rows) == 1
    assert rows[0]["samples"] == 4
    assert rows[0]["b"] == 3


def test_sweep_command_runs_a_spec(workspace, capsys):
    root = workspace["root"]
    report = root / "sweep.csv"
    spec = root / "sweep.spec"
    spec.write_text(
        f"dataset = {workspace['ds']}\n"
        f"checkpoints = {workspace['ckpt']}\n"
        "bits = none, 3\n"
        "inner_steps = 2\n"
        f"out = {report}\n"
        "fit_count = 8\n"
        "eval_offset = 8\neval_count = 4\n")
    assert main(["sweep", "--spec", str(spec)]) == 0
    _, rows = read_report_csv(report)
    assert len(rows) == 2
    assert "swept 2 cells" in capsys.readouterr().out
    # eval builds its row like the sweep does: the same cell, the same row,
    # but for the fingerprint of the command that made it
    eval_csv = root / "cell.csv"
    assert main(["eval", "--checkpoint", str(workspace["ckpt"]),
                 "--dataset", str(workspace["ds"]), "--sidecar",
                 str(workspace["sidecar"]), "--inner-steps", "2",
                 "--offset", "8", "--count", "4", "--out", str(eval_csv)]) == 0
    _, (row,) = read_report_csv(eval_csv)
    swept = next(r for r in rows if r["b"] == 3)
    assert row.pop("fingerprint") != swept.pop("fingerprint")
    assert row == swept


def test_baseline_svd_reports_nmse(workspace, capsys):
    assert main(["baseline-svd", "--dataset", str(workspace["ds"]),
                 "--codeword-dim", "4", "--train-count", "8",
                 "--test-count", "4"]) == 0
    assert "NMSE" in capsys.readouterr().out


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert main(["gradcheck", "--hidden-dim", "8", "--layers", "2",
                 "--codeword-dim", "4", "--omega0", "30",
                 "--fourier-scale", "2", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "codeword" in out


def test_unknown_and_missing_arguments_fail(workspace):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):
        main(["gen-data", "--count", "4"])  # --out is required
    rc = main(["eval", "--checkpoint", str(workspace["root"] / "nope.ckpt"),
               "--dataset", str(workspace["ds"])])
    assert rc == 1
