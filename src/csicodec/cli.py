"""Command-line front end.

Every subcommand accepts --seed and prints a `config <fingerprint>` line
before doing any work, so runs can be matched to their settings from logs
alone. All heavy lifting lives in the library modules; this file only
parses arguments and formats output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import codec, evaluate
from .dataset import (SamplingSpec, generate_dataset, load_dataset,
                      save_dataset)
from .channel import half_wavelength_config
from .model import (ArchConfig, CoordinateGrid, init_params, load_checkpoint,
                    save_checkpoint)
from .siren import finite_diff_check
from .training import TrainConfig, train
from .util import config_fingerprint


def _print_fingerprint(settings: dict) -> str:
    fp = config_fingerprint(settings)
    print(f"config {fp}")
    return fp


def _fmt_db(value: float) -> str:
    return "-inf" if value == float("-inf") else f"{value:.3f}"


def _arch_from_args(args) -> ArchConfig:
    return ArchConfig(hidden_dim=args.hidden_dim, num_layers=args.layers,
                      codeword_dim=args.codeword_dim, omega0=args.omega0,
                      fourier_scale=args.fourier_scale)


def _add_arch_flags(p, hidden=512, layers=10, codeword=32) -> None:
    p.add_argument("--hidden-dim", type=int, default=hidden)
    p.add_argument("--layers", type=int, default=layers)
    p.add_argument("--codeword-dim", type=int, default=codeword)
    p.add_argument("--omega0", type=float, default=50.0)
    p.add_argument("--fourier-scale", type=float, default=10.0)


def _cmd_gen_data(args) -> int:
    cfg = half_wavelength_config(
        num_antennas=args.num_antennas,
        num_subcarriers=args.num_subcarriers,
        num_paths=args.num_paths,
        base_freq=args.base_freq,
        subcarrier_spacing=args.bandwidth / args.num_subcarriers)
    sampling = SamplingSpec(delay_max=args.delay_max)
    _print_fingerprint({
        "cmd": "gen-data", "count": args.count, "seed": args.seed,
        "num_antennas": cfg.num_antennas, "num_subcarriers": cfg.num_subcarriers,
        "num_paths": cfg.num_paths, "base_freq": cfg.base_freq,
        "bandwidth": args.bandwidth, "delay_max": args.delay_max,
    })
    ds = generate_dataset(args.count, args.seed, cfg, sampling)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples ({cfg.num_antennas}x{cfg.num_subcarriers}, "
          f"norm_scale {ds.norm_scale:.6g}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    ds = load_dataset(args.dataset)
    if args.train_count + args.val_count > len(ds):
        raise SystemExit(f"dataset has {len(ds)} samples, split needs "
                         f"{args.train_count + args.val_count}")
    train_ds = ds.slice(0, args.train_count)
    val_ds = ds.slice(args.train_count, args.train_count + args.val_count)
    arch = _arch_from_args(args)
    cfg = TrainConfig(inner_steps=args.inner_steps, inner_lr=args.inner_lr,
                      outer_lr=args.outer_lr, batch_size=args.batch_size,
                      max_epochs=args.epochs, patience=args.patience,
                      seed=args.seed, mod_scale=args.mod_scale)
    _print_fingerprint({
        "cmd": "train", "dataset": args.dataset,
        "train_count": args.train_count, "val_count": args.val_count,
        "hidden_dim": arch.hidden_dim, "layers": arch.num_layers,
        "codeword_dim": arch.codeword_dim, "omega0": arch.omega0,
        "fourier_scale": arch.fourier_scale, "inner_steps": cfg.inner_steps,
        "inner_lr": cfg.inner_lr, "outer_lr": cfg.outer_lr,
        "batch_size": cfg.batch_size, "epochs": cfg.max_epochs,
        "patience": cfg.patience, "mod_scale": cfg.mod_scale,
        "seed": cfg.seed,
    })
    params, log = train(train_ds, val_ds, arch, cfg)
    save_checkpoint(params, args.out)
    if args.log:
        log.to_csv(args.log)
    first = log.epochs[0][1] if log.epochs else float("nan")
    best = log.epochs[log.best_epoch][1] if log.epochs else float("nan")
    print(f"trained {len(log.steps)} outer steps over {len(log.epochs) - 1} epochs "
          f"in {log.wall_seconds:.1f} s")
    print(f"val NMSE {_fmt_db(first)} dB at epoch 0, best {_fmt_db(best)} dB "
          f"at epoch {log.best_epoch}")
    print(f"wrote checkpoint to {args.out}")
    return 0


def _cmd_fit_codec(args) -> int:
    params = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    _print_fingerprint({
        "cmd": "fit-codec", "checkpoint": args.checkpoint,
        "dataset": args.dataset, "bits": args.bits,
        "inner_steps": args.inner_steps, "count": args.count,
        "seed": args.seed,
    })
    matrices = ds.matrices(denormalise=True)[:args.count]
    state = codec.fit_codec_state(params, matrices, args.bits, args.inner_steps)
    codec.save_sidecar(state, args.out)
    q = state.quantizer
    print(f"fitted {args.bits}-bit quantizer on {matrices.shape[0]} samples: "
          f"bounds within [{q.lower.min():.6g}, {q.upper.max():.6g}], "
          f"widest bin {q.bin_width.max():.6g}")
    print(f"wrote sidecar to {args.out}")
    return 0


def _cmd_encode(args) -> int:
    params = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    if not (0 <= args.index < len(ds)):
        raise SystemExit(f"sample index {args.index} outside dataset of {len(ds)}")
    state = codec.load_sidecar(args.sidecar) if args.sidecar else None
    _print_fingerprint({
        "cmd": "encode", "checkpoint": args.checkpoint, "dataset": args.dataset,
        "index": args.index, "sidecar": args.sidecar,
        "inner_steps": args.inner_steps, "seed": args.seed,
    })
    matrix = ds.matrices(denormalise=True)[args.index]
    stream = codec.encode_sample(params, matrix, args.inner_steps, state)
    codec.save_bitstream(stream, args.out)
    kind = {codec.FLAG_UNQUANTIZED: "unquantized", codec.FLAG_RAW: "raw",
            codec.FLAG_ENTROPY: "entropy"}[stream.flags]
    print(f"encoded sample {args.index}: {stream.payload_bits} payload bits "
          f"({kind}) to {args.out}")
    return 0


def _cmd_decode(args) -> int:
    params = load_checkpoint(args.checkpoint)
    stream = codec.load_bitstream(args.stream)
    state = codec.load_sidecar(args.sidecar) if args.sidecar else None
    ref_ds = load_dataset(args.reference) if args.reference else None
    if ref_ds is not None and not (0 <= args.index < len(ref_ds)):
        raise SystemExit(f"reference index {args.index} outside dataset of {len(ref_ds)}")
    _print_fingerprint({
        "cmd": "decode", "checkpoint": args.checkpoint, "stream": args.stream,
        "sidecar": args.sidecar, "reference": args.reference,
        "index": args.index, "seed": args.seed,
    })
    rows, cols = ((args.rows, args.cols) if ref_ds is None
                  else (ref_ds.num_antennas, ref_ds.num_subcarriers))
    grid = CoordinateGrid(rows, cols)
    matrix = codec.decode_sample(params, stream, grid, state)
    np.save(args.out, matrix)
    print(f"decoded {rows}x{cols} matrix to {args.out}")
    if ref_ds is not None:
        target = ref_ds.matrices(denormalise=True)[args.index]
        linear, db = evaluate.nmse(target, matrix)
        print(f"NMSE vs reference sample {args.index}: {_fmt_db(db)} dB")
    return 0


def _cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    ds = load_dataset(args.dataset)
    state = codec.load_sidecar(args.sidecar) if args.sidecar else None
    fp = _print_fingerprint({
        "cmd": "eval", "checkpoint": args.checkpoint, "dataset": args.dataset,
        "sidecar": args.sidecar, "inner_steps": args.inner_steps,
        "offset": args.offset, "count": args.count, "seed": args.seed,
    })
    stop = None if args.count is None else args.offset + args.count
    matrices = ds.matrices(denormalise=True)[args.offset:stop]
    if matrices.shape[0] == 0:
        raise SystemExit("evaluation slice is empty")
    report = evaluate.evaluate_model(params, matrices, args.inner_steps, state,
                                     fingerprint=fp)
    print(f"evaluated {report.count} samples with s_in={args.inner_steps}")
    print(f"NMSE {report.nmse_linear:.6g} ({_fmt_db(report.nmse_db)} dB)")
    gain = ("n/a" if report.coding_gain is None
            else f"{100 * report.coding_gain:.2f}%")
    print(f"mean payload {report.mean_payload_bits:.2f} bits, "
          f"bit rate {report.bit_rate:.6g}, CR {report.cr:.6g}, "
          f"coding gain {gain}")
    if args.out:
        b = None if state is None else state.quantizer.bit_width
        evaluate.write_report_csv([evaluate.report_row(
            args.checkpoint, params.arch.codeword_dim, b, args.inner_steps, report)],
            args.out)
        print(f"wrote report to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    spec = evaluate.parse_sweep_spec(args.spec)
    _print_fingerprint({
        "cmd": "sweep", "spec": args.spec, "dataset": spec.dataset,
        "checkpoints": list(spec.checkpoints),
        "bits": ["none" if b is None else b for b in spec.bits],
        "inner_steps": list(spec.inner_steps), "seed": args.seed,
    })
    rows = evaluate.rd_sweep(spec)
    print(f"swept {len(rows)} cells to {spec.out}")
    return 0


def _cmd_baseline_svd(args) -> int:
    ds = load_dataset(args.dataset)
    if args.train_count + args.test_count > len(ds):
        raise SystemExit(f"dataset has {len(ds)} samples, split needs "
                         f"{args.train_count + args.test_count}")
    fp = _print_fingerprint({
        "cmd": "baseline-svd", "dataset": args.dataset,
        "codeword_dim": args.codeword_dim, "train_count": args.train_count,
        "test_count": args.test_count, "seed": args.seed,
    })
    m = ds.matrices(denormalise=True)
    report = evaluate.svd_baseline(m[:args.train_count],
                                   m[len(ds) - args.test_count:],
                                   args.codeword_dim, fingerprint=fp)
    print(f"SVD baseline with n={args.codeword_dim} on {report.count} test "
          f"samples: NMSE {report.nmse_linear:.6g} ({_fmt_db(report.nmse_db)} dB)")
    return 0


def _cmd_gradcheck(args) -> int:
    arch = _arch_from_args(args)
    _print_fingerprint({
        "cmd": "gradcheck", "hidden_dim": arch.hidden_dim,
        "layers": arch.num_layers, "codeword_dim": arch.codeword_dim,
        "omega0": arch.omega0, "fourier_scale": arch.fourier_scale,
        "rows": args.rows, "cols": args.cols, "seed": args.seed,
    })
    params = init_params(args.seed, arch)
    grid = CoordinateGrid(args.rows, args.cols)
    rng = np.random.default_rng(args.seed + 1)
    codeword = rng.standard_normal(arch.codeword_dim)
    targets = rng.uniform(-1.0, 1.0, (len(grid), 2))
    errs = finite_diff_check(params, codeword, grid.flat_coords(), targets)
    worst = max(errs.values())
    for name in sorted(errs):
        print(f"  {name:12s} max rel err {errs[name]:.3e}")
    if worst < args.tolerance:
        print(f"gradcheck ok: worst {worst:.3e} < {args.tolerance:g}")
        return 0
    print(f"gradcheck FAILED: worst {worst:.3e} >= {args.tolerance:g}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csicodec",
        description="Neural CSI feedback codec: synthesize channels, "
                    "meta-train the shared network, encode and evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a channel dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--num-antennas", type=int, default=32)
    p.add_argument("--num-subcarriers", type=int, default=32)
    p.add_argument("--num-paths", type=int, default=10)
    p.add_argument("--base-freq", type=float, default=3.5e9)
    p.add_argument("--bandwidth", type=float, default=100e6)
    p.add_argument("--delay-max", type=float, default=1e-6)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="meta-train the shared base network")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="write per-step/per-epoch training CSV here")
    p.add_argument("--train-count", type=int, required=True)
    p.add_argument("--val-count", type=int, required=True)
    _add_arch_flags(p)
    p.add_argument("--mod-scale", type=float, default=0.1)
    p.add_argument("--inner-steps", type=int, default=3)
    p.add_argument("--inner-lr", type=float, default=1e-2)
    p.add_argument("--outer-lr", type=float, default=1e-6)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=8)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fit-codec", help="fit quantizer and frequency table")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--inner-steps", type=int, default=3)
    p.add_argument("--count", type=int, help="limit fitting samples")
    p.set_defaults(func=_cmd_fit_codec)

    p = sub.add_parser("encode", help="encode one dataset sample to a bitstream")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", help="quantize and entropy-code with this state")
    p.add_argument("--inner-steps", type=int, default=3)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a bitstream to a channel matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--out", required=True, help=".npy output path")
    p.add_argument("--sidecar")
    p.add_argument("--rows", type=int, default=32)
    p.add_argument("--cols", type=int, default=32)
    p.add_argument("--reference", help="dataset to compare against")
    p.add_argument("--index", type=int, default=0,
                   help="reference sample index")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("eval", help="measure NMSE and rates over a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--sidecar")
    p.add_argument("--inner-steps", type=int, default=3)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--count", type=int)
    p.add_argument("--out", help="write a one-row CSV report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="run a rate-distortion sweep from a spec file")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("baseline-svd", help="linear principal-basis comparator")
    p.add_argument("--dataset", required=True)
    p.add_argument("--codeword-dim", type=int, required=True)
    p.add_argument("--train-count", type=int, required=True)
    p.add_argument("--test-count", type=int, required=True)
    p.set_defaults(func=_cmd_baseline_svd)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_arch_flags(p, hidden=32, layers=3, codeword=8)
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    for sp in sub.choices.values():
        sp.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, codec.TrainingDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
