"""End-to-end smoke of every CLI subcommand at toy scale."""

import argparse
import csv
import shutil
import struct
from dataclasses import replace

import numpy as np
import pytest

from csicodec.cli import build_parser, main
from csicodec.codec import FLAG_UNQUANTIZED, Bitstream, save_bitstream
from csicodec.dataset import load_dataset, save_dataset
from csicodec.model import load_checkpoint

ARCH_ARGS = ["--hidden-dim", "8", "--layers", "2", "--codeword-dim", "4",
             "--omega0", "30", "--fourier-scale", "2"]


def read_report_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
    rc = main(["decode", "--checkpoint", str(workspace["ckpt"]),
               "--stream", str(stream), "--out", str(recon),
               "--reference", str(workspace["ds"]), "--index", index])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (f"error: sample window start {index}, stop "
                            f"{int(index) + 1} does not fit a dataset of 14 samples\n")
    assert not recon.exists()                  # refused before decoding
    assert captured.out == ""


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
    rows = read_report_csv(out_csv)
    assert len(rows) == 1
    assert rows[0]["samples"] == "4"
    assert rows[0]["b"] == "3"


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
    rows = read_report_csv(report)
    assert len(rows) == 2
    assert "swept 2 cells" in capsys.readouterr().out
    # eval builds its row like the sweep does: the same cell, the same row,
    # but for the fingerprint of the command that made it
    eval_csv = root / "cell.csv"
    assert main(["eval", "--checkpoint", str(workspace["ckpt"]),
                 "--dataset", str(workspace["ds"]), "--sidecar",
                 str(workspace["sidecar"]), "--inner-steps", "2",
                 "--offset", "8", "--count", "4", "--out", str(eval_csv)]) == 0
    (row,) = read_report_csv(eval_csv)
    swept = next(r for r in rows if r["b"] == "3")
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


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-4"])
def test_gradcheck_refuses_a_tolerance_that_is_not_finite_and_positive(
        capsys, tolerance):
    assert main(["gradcheck", "--hidden-dim", "8", "--layers", "2",
                 "--codeword-dim", "4", f"--tolerance={tolerance}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: tolerance must be finite and positive\n"
    assert captured.out == ""


def window_argv(workspace, command, window):
    """`command`'s argv on the workspace with `window`'s flags added."""
    root, ds, ckpt = (str(workspace[k]) for k in ("root", "ds", "ckpt"))
    base = {
        "train": ["--dataset", ds, "--out", f"{root}/window-out.ckpt",
                  "--batch-size", "4", "--epochs", "1", *ARCH_ARGS],
        "fit-codec": ["--checkpoint", ckpt, "--dataset", ds, "--bits", "3",
                      "--out", f"{root}/window-out.sidecar"],
        "encode": ["--checkpoint", ckpt, "--dataset", ds,
                   "--out", f"{root}/window-out.csibit"],
        "eval": ["--checkpoint", ckpt, "--dataset", ds,
                 "--out", f"{root}/window-out.csv"],
        "baseline-svd": ["--dataset", ds, "--codeword-dim", "2"],
    }[command]
    return [command, *base, *window.split()]


# Each command on the 14-sample workspace set: a negative window and one
# that runs past the end. decode --reference has its own test above.
WINDOWS = [
    ("train", "--train-count -1 --val-count 4"),
    ("train", "--train-count 8 --val-count -2"),
    ("train", "--train-count 12 --val-count 3"),
    ("fit-codec", "--count -1"),
    ("fit-codec", "--count 15"),
    ("encode", "--index -1"),
    ("encode", "--index 14"),
    ("eval", "--offset -2"),
    ("eval", "--offset 8 --count -1"),
    ("eval", "--offset 8 --count 7"),
    ("baseline-svd", "--train-count -1 --test-count 3"),
    ("baseline-svd", "--train-count 3 --test-count -1"),
    ("baseline-svd", "--train-count 10 --test-count 5"),
]


@pytest.mark.parametrize("command, window", WINDOWS)
def test_a_window_outside_the_dataset_is_refused_before_the_config_line(
        workspace, capsys, command, window):
    argv = window_argv(workspace, command, window)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sample window start ")
    assert captured.err.endswith(" does not fit a dataset of 14 samples\n")
    assert captured.out == ""
    assert not any(workspace["root"].glob("window-out.*")), "wrote an output"


def test_eval_refuses_an_empty_window_on_the_error_path(workspace, capsys):
    assert main(window_argv(workspace, "eval", "--offset 14")) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the evaluation window is empty\n"
    assert captured.out == ""


@pytest.mark.parametrize("window, test", [("--train-count 14 --test-count 0", "test"),
                                          ("--train-count 0 --test-count 3", "train")])
def test_baseline_svd_refuses_an_empty_stack_by_name(workspace, capsys, window, test):
    assert main(window_argv(workspace, "baseline-svd", window)) == 1
    assert capsys.readouterr().err == f"error: empty {test} stack: no channel matrices\n"


@pytest.mark.parametrize("command", ["eval", "encode"])
def test_a_negative_inner_step_count_is_refused(workspace, capsys, command):
    out = workspace["root"] / "negative-steps.out"
    rc = main([command, "--checkpoint", str(workspace["ckpt"]),
               "--dataset", str(workspace["ds"]), "--inner-steps", "-1",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: inner_steps must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("eval_offset", "-3"), ("fit_count", "-2"),
                                        ("eval_count", "15")])
def test_sweep_refuses_a_window_outside_the_dataset(workspace, capsys, key, value):
    root = workspace["root"]
    report = root / "window-sweep.csv"
    spec = root / "window.spec"
    keys = {"fit_count": "8", "eval_offset": "8", "eval_count": "4", key: value}
    spec.write_text(f"dataset = {workspace['ds']}\ncheckpoints = {workspace['ckpt']}\n"
                    f"bits = 3\ninner_steps = 2\nout = {report}\n"
                    + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main(["sweep", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: sweep {'fit ' if key == 'fit_count' else ''}"
                          f"dataset {workspace['ds']}: sample window start ")
    assert not report.exists()


def test_only_the_commands_that_draw_random_numbers_take_a_seed():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    seeded = {name for name, p in sub.choices.items()
              if any("--seed" in a.option_strings for a in p._actions)}
    assert seeded == {"gen-data", "train", "gradcheck"}
    with pytest.raises(SystemExit):
        main(["baseline-svd", "--dataset", "x", "--codeword-dim", "2",
              "--train-count", "1", "--test-count", "1", "--seed", "1"])


def test_unknown_and_missing_arguments_fail(workspace):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):
        main(["gen-data", "--count", "4"])  # --out is required
    rc = main(["eval", "--checkpoint", str(workspace["root"] / "nope.ckpt"),
               "--dataset", str(workspace["ds"])])
    assert rc == 1


def test_gradcheck_refuses_a_fourier_scale_that_overflows(capsys):
    assert main(["gradcheck", "--fourier-scale", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: fourier_scale 1e+308 overflows")
    assert "gradcheck" not in captured.out


def config_line(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()[0]


def test_gen_data_fingerprint_hashes_no_path(tmp_path, capsys):
    # the value these flags have always printed: --out is not an input
    assert config_line(["gen-data", "--count", "4", "--out", str(tmp_path / "a.csid"),
                        "--num-antennas", "4", "--num-subcarriers", "4",
                        "--num-paths", "2", "--seed", "7"],
                       capsys) == "config ea98cc7dac7a"


@pytest.fixture(scope="module")
def fingerprint_cases(workspace):
    """Per command: a base argv; for every option but --out and --log a
    different valid value, with input files copied to another path; and
    other values for the output paths."""
    root, ds, ckpt, side = (workspace[k] for k in ("root", "ds", "ckpt", "sidecar"))
    stream, spec = root / "fp.csibit", root / "fp.spec"
    assert main(["encode", "--checkpoint", str(ckpt), "--dataset", str(ds),
                 "--index", "9", "--out", str(stream), "--sidecar", str(side),
                 "--inner-steps", "2"]) == 0
    spec.write_text(f"dataset = {ds}\ncheckpoints = {ckpt}\nbits = 3\n"
                    f"inner_steps = 2\nout = {root / 'fp.csv'}\nfit_count = 8\n"
                    "eval_offset = 8\neval_count = 4\n")
    (root / "alt").mkdir()
    alt = {}
    for path in (ds, ckpt, side, stream, spec):
        alt[path] = str(shutil.copy(path, root / "alt" / path.name))
    out = {"--out": str(root / "elsewhere")}
    return {
        "gen-data": (
            ["--count", "4", "--out", str(root / "fp.csid"), "--num-antennas", "4",
             "--num-subcarriers", "4", "--num-paths", "2"],
            {"--count": "5", "--num-antennas": "5", "--num-subcarriers": "5",
             "--num-paths": "3", "--base-freq": "3e9", "--bandwidth": "5e7",
             "--delay-max": "2e-6", "--seed": "1"}, out),
        "train": (
            ["--dataset", str(ds), "--out", str(root / "fp.ckpt"), "--train-count", "8",
             "--val-count", "4", "--batch-size", "4", "--epochs", "1",
             "--mod-scale", "0.5", *ARCH_ARGS],
            {"--dataset": alt[ds], "--train-count": "9", "--val-count": "5",
             "--hidden-dim": "9", "--layers": "3", "--codeword-dim": "5",
             "--omega0": "31", "--fourier-scale": "3", "--mod-scale": "0.25",
             "--inner-steps": "2", "--inner-lr": "2e-2", "--outer-lr": "2e-6",
             "--batch-size": "2", "--epochs": "2", "--patience": "3", "--seed": "1"},
            {**out, "--log": str(root / "fp-log.csv")}),
        "fit-codec": (
            ["--checkpoint", str(ckpt), "--dataset", str(ds), "--out",
             str(root / "fp.sidecar"), "--bits", "3", "--inner-steps", "2",
             "--count", "8"],
            {"--checkpoint": alt[ckpt], "--dataset": alt[ds], "--bits": "4",
             "--inner-steps": "1", "--count": "7"}, out),
        "encode": (
            ["--checkpoint", str(ckpt), "--dataset", str(ds), "--index", "9",
             "--out", str(root / "fp2.csibit"), "--sidecar", str(side),
             "--inner-steps", "2"],
            {"--checkpoint": alt[ckpt], "--dataset": alt[ds], "--index": "8",
             "--sidecar": alt[side], "--inner-steps": "1"}, out),
        "decode": (
            ["--checkpoint", str(ckpt), "--stream", str(stream), "--out",
             str(root / "fp.npy"), "--sidecar", str(side), "--rows", "4",
             "--cols", "4"],
            {"--checkpoint": alt[ckpt], "--stream": alt[stream],
             "--sidecar": alt[side], "--rows": "5", "--cols": "5",
             "--reference": alt[ds], "--index": "8"},
            {"--out": str(root / "elsewhere.npy")}),
        "eval": (
            ["--checkpoint", str(ckpt), "--dataset", str(ds), "--sidecar", str(side),
             "--inner-steps", "2", "--offset", "8", "--count", "4"],
            {"--checkpoint": alt[ckpt], "--dataset": alt[ds], "--sidecar": alt[side],
             "--inner-steps": "1", "--offset": "7", "--count": "3"},
            out),
        "sweep": (["--spec", str(spec)], {"--spec": alt[spec]}, {}),
        "baseline-svd": (
            ["--dataset", str(ds), "--codeword-dim", "4", "--train-count", "8",
             "--test-count", "4"],
            {"--dataset": alt[ds], "--codeword-dim": "3", "--train-count": "9",
             "--test-count": "5"}, {}),
        "gradcheck": (
            ARCH_ARGS,
            {"--hidden-dim": "9", "--layers": "3", "--codeword-dim": "5",
             "--omega0": "31", "--fourier-scale": "3", "--rows": "5", "--cols": "5",
             "--tolerance": "1e-3", "--seed": "1"}, {}),
    }


def with_option(argv, flag, value):
    if flag not in argv:
        return [*argv, flag, value]
    i = argv.index(flag)
    return [*argv[:i + 1], value, *argv[i + 2:]]


@pytest.mark.parametrize("command", ["gen-data", "train", "fit-codec", "encode",
                                     "decode", "eval", "sweep", "baseline-svd",
                                     "gradcheck"])
def test_fingerprint_follows_every_input_and_no_output(fingerprint_cases, capsys,
                                                        command):
    base, inputs, outputs = fingerprint_cases[command]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {a.option_strings[-1] for a in sub.choices[command]._actions}
    assert set(inputs) == options - {"--help", "--out", "--log"}
    fp = config_line([command, *base], capsys)
    for flag, value in inputs.items():
        assert config_line([command, *with_option(base, flag, value)], capsys) != fp, flag
    for flag, value in outputs.items():
        assert config_line([command, *with_option(base, flag, value)], capsys) == fp, flag


def test_sweep_fingerprints_follow_the_spec_but_not_its_output(workspace, capsys):
    root = workspace["root"]
    spec = root / "fit.spec"

    def sweep(fit_count, out):
        spec.write_text(f"dataset = {workspace['ds']}\ncheckpoints = {workspace['ckpt']}\n"
                        f"bits = 3\ninner_steps = 2\nout = {out}\n"
                        f"fit_count = {fit_count}\neval_offset = 8\neval_count = 4\n")
        line = config_line(["sweep", "--spec", str(spec)], capsys)
        (row,) = read_report_csv(out)
        return line, row["fingerprint"]

    fit8 = sweep(8, root / "fit8.csv")
    fit6 = sweep(6, root / "fit6.csv")
    assert fit8[0] != fit6[0] and fit8[1] != fit6[1]
    assert sweep(8, root / "elsewhere.csv") == fit8
