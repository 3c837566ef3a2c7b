"""csicodec benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload eval-batch --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Workloads (see BENCHMARK.json and perfbench/README.md):

  train-b1       train() at batch size 1 on a fixed prefix of the train split
  eval-batch     evaluate_model() over the 512-matrix test split, 3-bit sidecar
  feedback-1msg  closed loop, one client: encode_sample then decode_sample
  gradcheck      finite_diff_check() trials on criterion 2's configuration

`--trace 0` runs the workload's own stage for half of `--seconds` and
smaller spot passes of the other three stages for the rest, interleaved
one operation at a time, so that every workload reports every end-to-end
metric. `--trace 1` runs the own stage for `--seconds` untraced and
`--seconds` traced, in alternating blocks, and reports per-layer metrics
instead. Either way the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; lines before it start with
`#` and describe the machine and every figure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPS = 3
# A traced run alternates this many untraced and traced blocks per window.
TRACE_BLOCKS = 5
# Share of a timed run's window that the workload's own stage gets; the
# other three stages' spot passes split the rest.
OWN_SHARE = 0.5


def import_package():
    """Import csicodec from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "csicodec", "__init__.py")):
        sys.exit(f"perfbench: no csicodec package under {SRC}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, SRC)
    import csicodec

    if os.path.dirname(os.path.dirname(os.path.abspath(csicodec.__file__))) != SRC:
        sys.exit(f"perfbench: imported csicodec from {csicodec.__file__}, "
                 f"not from {SRC}")


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def stage_makers():
    """workload -> (its own stage, its spot pass when another workload runs).

    Spot passes are smaller so that their medians cover many operations:
    train() on a 16-sample prefix, evaluate_model() on 64 matrices, quality
    over the first 100 feedback messages, and gradient checks on a network
    of width 8. Quality figures always come from a fixed number of leading
    operations, so they never depend on speed.
    """
    import stages

    return {
        "train-b1": (stages.train_stage,
                     lambda ctx: stages.train_stage(ctx, prefix=16)),
        "eval-batch": (stages.eval_stage,
                       lambda ctx: stages.eval_stage(ctx, count=64)),
        "feedback-1msg": (stages.feedback_stage,
                          lambda ctx: stages.feedback_stage(ctx, quality_msgs=100)),
        "gradcheck": (stages.gradcheck_stage,
                      lambda ctx: stages.gradcheck_stage(ctx,
                                                         arch=stages.GC_SPOT_ARCH)),
    }


def metric_names(kind: str) -> list:
    """Names of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def say(line: str) -> None:
    print("# " + line, flush=True)


def describe(name, value, unit, note="") -> None:
    say(f"{name:<40} {value:>14.6g} {unit:<12} {note}".rstrip())


def timed_run(args, makers) -> dict:
    import stages

    setups = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        ctx = stages.setup(args.seed)
        setups.append(time.perf_counter() - started)
    say(f"setup_s reps {[round(s, 4) for s in setups]}")

    sources = [args.workload] + [w for w in makers if w != args.workload]
    runs = [makers[args.workload][0](ctx)]
    runs += [makers[w][1](ctx) for w in sources[1:]]
    spot_share = (1.0 - OWN_SHARE) / len(sources[1:])
    stages.drive(runs, [OWN_SHARE] + [spot_share] * len(sources[1:]),
                 args.seconds)
    stages.complete(runs)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = [(w if k == 0 else w + " spot pass", st.result)
               for k, (w, st) in enumerate(zip(sources, runs))]
    for _, res in results:
        res.finish()

    metrics = {"setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    describe("setup_s", *metrics["setup_s"], f"median of {SETUP_REPS} set-ups")
    describe("peak_rss_mb", *metrics["peak_rss_mb"], "peak resident set of the run")
    for source, res in results:
        for name, (value, unit) in res.metrics.items():
            if name not in metrics:
                metrics[name] = (value, unit)
                describe(name, value, unit, f"[{source}: {res.note}]")
    return report(results, metrics, metric_names("end_to_end"))


def traced_run(args, makers) -> dict:
    import stages
    from trace_layers import Tracer, layer_metrics, moves

    setup_tracer = Tracer()
    with setup_tracer:
        ctx = stages.setup(args.seed)

    # Untraced and traced blocks alternate so that the overhead figure
    # compares the two over the same drift of the machine's speed.
    make = makers[args.workload][0]
    plain, traced, tracer = make(ctx), make(ctx), Tracer()
    for _ in range(TRACE_BLOCKS):
        stages.drive([plain], [1.0], args.seconds / TRACE_BLOCKS)
        with tracer:
            stages.drive([traced], [1.0], args.seconds / TRACE_BLOCKS)
    stages.complete([plain])
    with tracer:
        stages.complete([traced])
    plain, traced = plain.result, traced.result
    plain.finish()
    traced.finish()
    if tracer.absent:
        say("absent from the package, metrics read 0: " + ", ".join(tracer.absent))

    metrics = layer_metrics(tracer, traced.attempted, setup_tracer)
    metrics["trace.overhead_pct"] = (
        100.0 * (traced.op_seconds / plain.op_seconds - 1.0), "%")
    say(f"untraced op {plain.op_seconds * 1e3:.4f} ms, traced op "
        f"{traced.op_seconds * 1e3:.4f} ms over {traced.attempted} traced ops")
    metrics.update(blas_metrics())
    for name, (value, unit) in metrics.items():
        describe(name, value, unit, "moves: " + moves(name))
    return report([("untraced", plain), ("traced", traced)], metrics,
                  metric_names("per_layer"))


def blas_metrics() -> dict:
    """forward_batch at the eval-batch (B=64) and train-b1 (B=1) shapes, here
    and in a child process with OPENBLAS_NUM_THREADS=1."""
    import stages

    out = {}
    here = stages.time_forward()
    for shape in ("b64", "b1"):
        out[f"blas.forward_{shape}_ms"] = (here[shape], "ms")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    try:
        child = subprocess.run([sys.executable, os.path.join(HERE, "blas_probe.py")],
                               env=env, capture_output=True, text=True,
                               timeout=120, check=True)
        one = json.loads(child.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as err:
        say(f"one-thread BLAS probe failed: {err!r}")
        return out
    for shape in ("b64", "b1"):
        out[f"blas.forward_{shape}_ms_1thread"] = (one[shape], "ms")
    return out


def report(results, metrics, names) -> dict:
    """The result object: metrics in BENCHMARK.json order, operation counts,
    and whether every check passed and every metric was measured."""
    metrics = {n: v for n, v in metrics.items() if math.isfinite(v[0])}
    missing = [n for n in names if n not in metrics]
    if missing:
        say("missing metrics: " + ", ".join(missing))
    attempted = sum(r.attempted for _, r in results)
    failed = sum(r.failed for _, r in results)
    inconsistent = [s for s, r in results if not r.consistent]
    if inconsistent:
        say("rounds did not reproduce: " + ", ".join(inconsistent))
    say(f"attempted {attempted}, failed {failed}")
    return {
        "correct": not (missing or inconsistent or failed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names if n in metrics},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-b1", "eval-batch", "feedback-1msg",
                                 "gradcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_package()
    say("machine " + json.dumps(machine()))
    say(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
        f"trace {args.trace}")
    result = (traced_run if args.trace else timed_run)(args, stage_makers())
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
