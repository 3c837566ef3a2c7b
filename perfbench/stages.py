"""The four csicodec stages the benchmark measures, with their output checks.

Each stage function takes the shared desk context built by `setup` and
returns a `Stage`: a generator that performs one operation (or one round of
operations) per step, the minimum number of steps whose outputs feed the
quality figures, and a `StageResult` that the steps fill in. `drive` runs
several stages interleaved for a time window and `complete` tops each up to
its minimum. `StageResult.finish()` checks
the outputs and computes the end-to-end metrics; it runs after the window,
so neither the timing nor the trace sees it.

Calls into the package go through module attributes (`codec.encode_sample`,
not a name imported from it) so that the traced run sees every one.
"""

from __future__ import annotations

import math
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from csicodec import channel, codec, dataset, entropy, evaluate, model, siren, training
from trace_layers import patch_everywhere, restore

# Desk configuration of the README and the criterion-5 fixture.
GRID = dict(num_antennas=16, num_subcarriers=16, num_paths=3)
ARCH = model.ArchConfig(hidden_dim=64, num_layers=5, codeword_dim=16,
                        omega0=30.0, fourier_scale=2.0)
SPLIT = (2048, 256, 512)
MOD_SCALE = 1.0
INNER_STEPS = 3
INNER_LR = 1e-2
BITS = 3
FIT_COUNT = 128          # training matrices the 3-bit sidecar is fitted on

# train-b1: one round is train() over a fixed prefix of the train split and
# of the validation split, for two epochs so per-epoch validation runs.
# Sixteen validation samples keep the round's best NMSE steady across seeds.
TRAIN_PREFIX = 64
VAL_PREFIX = 16
TRAIN_EPOCHS = 2

# Criterion 2's gradient-check configuration.
GC_ARCH = model.ArchConfig(hidden_dim=32, num_layers=3, codeword_dim=8,
                           omega0=30.0, fourier_scale=2.0)
GC_GRID = model.CoordinateGrid(3, 3)
GC_THRESHOLD = 1e-4
# A check on criterion 2's network takes ~1.7 s. Spot passes use this
# smaller one (~0.05 s a check) so that their median covers many checks.
GC_SPOT_ARCH = model.ArchConfig(hidden_dim=8, num_layers=2, codeword_dim=4,
                                omega0=30.0, fourier_scale=2.0)


@dataclass
class Context:
    seed: int
    init_seed: int
    train: dataset.Dataset
    val: dataset.Dataset
    test_mats: np.ndarray        # physical complex matrices (512, 16, 16)
    params: model.ModelParams
    state: codec.CodecState


@dataclass
class StageResult:
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    consistent: bool = True      # repeated rounds reproduced the first exactly
    op_seconds: float = math.nan  # median wall time of one operation
    note: str = ""                # what the figures are taken over
    finish: Callable[[], None] = lambda: None


@dataclass
class Stage:
    steps: Iterator[None]
    min_steps: int
    result: StageResult
    done: int = 0

    def step(self) -> None:
        next(self.steps)
        self.done += 1


def setup(seed: int) -> Context:
    """Synthesize the desk dataset, build the network, fit the sidecar.

    The network is a seeded `init_params` model with the dataset's norm_scale,
    not a trained checkpoint, so a change to training leaves the eval and
    feedback inputs unchanged.
    """
    data_seed, init_seed = (int(s) for s in
                            np.random.SeedSequence(seed).generate_state(2))
    cfg = channel.half_wavelength_config(**GRID)
    ds = dataset.generate_dataset(sum(SPLIT), data_seed, cfg)
    train_ds, val_ds, test_ds = dataset.split_dataset(ds, SPLIT)
    params = replace(model.init_params(init_seed, ARCH, MOD_SCALE),
                     norm_scale=ds.norm_scale)
    fit = train_ds.matrices(denormalise=True)[:FIT_COUNT]
    state = codec.fit_codec_state(params, fit, BITS, INNER_STEPS, INNER_LR)
    return Context(seed=seed, init_seed=init_seed, train=train_ds, val=val_ds,
                   test_mats=test_ds.matrices(denormalise=True),
                   params=params, state=state)


def drive(stages: list, shares: list, seconds: float) -> None:
    """Step the stages one operation at a time for `seconds`, always picking
    the one furthest below its share of the time used so far.

    Interleaving spreads every stage over the whole window, so each figure
    averages over the same drift of a shared machine's speed.
    """
    used = [0.0] * len(stages)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = min(range(len(stages)), key=lambda k: used[k] / shares[k])
        started = time.perf_counter()
        stages[i].step()
        used[i] += time.perf_counter() - started


def complete(stages: list) -> None:
    """Step each stage until it has made the steps its quality figures need."""
    for st in stages:
        while st.done < st.min_steps:
            st.step()


def _report_failure(what: str) -> None:
    print(f"# operation failed: {what}", flush=True)
    traceback.print_exc()


def stream_ok(stream: codec.Bitstream, state: codec.CodecState) -> bool:
    """True when the payload decodes to symbols that re-encode to the same
    bytes, and fits the fixed-width budget.

    Both payload codes are injective for a fixed symbol count, so equal bytes
    mean the decoded symbols are exactly the ones the encoder coded.
    """
    n, b = stream.codeword_dim, state.quantizer.bit_width
    if stream.payload_bits > n * b or stream.sidecar_digest != state.digest():
        return False
    if stream.flags == codec.FLAG_ENTROPY:
        symbols = entropy.entropy_decode(stream.payload, stream.payload_bits,
                                         state.table, n)
        again = entropy.entropy_encode(symbols, state.table)
    elif stream.flags == codec.FLAG_RAW:
        symbols = entropy.unpack_symbols(stream.payload, stream.payload_bits, b, n)
        again = entropy.pack_symbols(symbols, b)
    else:
        return False
    return again == (stream.payload, stream.payload_bits)


def train_stage(ctx: Context, prefix: int = TRAIN_PREFIX) -> Stage:
    """train-b1: identical `train()` rounds at batch size 1 over the first
    `prefix` training samples.

    An operation is one outer step; it fails when its loss is not finite or
    its round raises. Every round must reproduce the first one's log.
    """
    tc = training.TrainConfig(inner_steps=INNER_STEPS, inner_lr=INNER_LR,
                              outer_lr=1e-6, batch_size=1,
                              max_epochs=TRAIN_EPOCHS, patience=64,
                              seed=ctx.init_seed, mod_scale=MOD_SCALE)
    train_ds = ctx.train.slice(0, prefix)
    val_ds = ctx.val.slice(0, VAL_PREFIX)
    steps_per_round = prefix * TRAIN_EPOCHS
    res = StageResult()
    times, logs = [], []

    def rounds():
        while True:
            res.attempted += steps_per_round
            started = time.perf_counter()
            try:
                _, log = training.train(train_ds, val_ds, ARCH, tc)
            except Exception:
                _report_failure("train round")
                res.failed += steps_per_round
            else:
                times.append(time.perf_counter() - started)
                logs.append(log)
            yield

    def finish():
        if not logs:
            return
        first = logs[0]
        res.failed += sum(1 for log in logs for _, loss in log.steps
                          if not math.isfinite(loss))
        res.consistent = all((log.steps, log.epochs) == (first.steps, first.epochs)
                             for log in logs)
        best_db = min(v for _, v in first.epochs)
        round_s = float(np.median(times))
        res.op_seconds = round_s / steps_per_round
        res.note = (f"{len(times)} rounds of {steps_per_round} steps; "
                    "median round, NMSE of the first")
        res.metrics = {
            "train_samples_per_s": (steps_per_round / round_s, "samples/s"),
            "val_nmse": (10.0 ** (best_db / 10.0), "ratio"),
        }

    res.finish = finish
    return Stage(rounds(), 1, res)


def eval_stage(ctx: Context, count: int = 512) -> Stage:
    """eval-batch: `evaluate_model()` rounds over the first `count` test
    matrices with the 3-bit sidecar.

    An operation is one message. It fails when its stream does not decode
    to the encoder's symbols, exceeds codeword_dim * bits, or reconstructs
    differently from the same message in the first round.
    """
    mats = ctx.test_mats[:count]
    res = StageResult()
    times, rounds = [], []

    def steps():
        while True:
            res.attempted += count
            with capture_results(codec, "encode_dataset") as captured:
                started = time.perf_counter()
                try:
                    report = evaluate.evaluate_model(ctx.params, mats, INNER_STEPS,
                                                     ctx.state, INNER_LR)
                except Exception:
                    _report_failure("evaluate_model round")
                    res.failed += count
                    report = None
                else:
                    times.append(time.perf_counter() - started)
            if report is not None:
                rounds.append((report, [s for out in captured for s in out]))
            yield

    def finish():
        if not rounds:
            return
        first = rounds[0][0]
        for report, streams in rounds:
            bad = ~np.isfinite(report.per_sample)
            bad |= report.per_sample != first.per_sample
            bad |= [not stream_ok(s, ctx.state) for s in streams]
            res.failed += int(bad.sum())
        round_s = float(np.median(times))
        res.op_seconds = round_s / count
        res.note = (f"{len(times)} rounds of {count} messages; "
                    "median round, quality of the first")
        res.metrics = {
            "eval_msgs_per_s": (count / round_s, "messages/s"),
            "nmse": (first.nmse_linear, "ratio"),
            "mean_payload_bits": (first.mean_payload_bits, "bits/message"),
        }

    res.finish = finish
    return Stage(steps(), 1, res)


# The feedback p90 is taken within each block of this many consecutive
# messages and the median block reported: a burst of outside load that
# covers a tenth of a run moves a whole-run p90, but only a few blocks.
P90_BLOCK = 100


def _block_p90(seconds: list) -> float:
    blocks = [seconds[i:i + P90_BLOCK]
              for i in range(0, len(seconds) - P90_BLOCK + 1, P90_BLOCK)]
    return float(np.median([np.percentile(b, 90) for b in blocks]))


def feedback_stage(ctx: Context, quality_msgs: int = 512) -> Stage:
    """feedback-1msg: one client in a closed loop, one message at a time.

    Message k encodes test matrix k mod 512 with `encode_sample` and decodes
    it with `decode_sample`. Distortion and payload size are taken over the
    first `quality_msgs` messages, which every run completes, so they do
    not depend on speed.
    """
    grid = model.CoordinateGrid(*ctx.test_mats.shape[1:])
    res = StageResult()
    enc, dec, streams, recons = [], [], [], []

    def messages():
        k = 0
        while True:
            target = ctx.test_mats[k % len(ctx.test_mats)]
            res.attempted += 1
            try:
                t0 = time.perf_counter()
                stream = codec.encode_sample(ctx.params, target, INNER_STEPS,
                                             ctx.state, INNER_LR)
                t1 = time.perf_counter()
                recon = codec.decode_sample(ctx.params, stream, grid, ctx.state)
                t2 = time.perf_counter()
            except Exception:
                _report_failure(f"message {k}")
                res.failed += 1
            else:
                enc.append(t1 - t0)
                dec.append(t2 - t1)
                streams.append(stream)
                if k < quality_msgs:
                    recons.append((target, recon))
            k += 1
            yield

    def finish():
        res.failed += sum(1 for s in streams if not stream_ok(s, ctx.state))
        if len(recons) < quality_msgs:
            return
        targets = np.stack([t for t, _ in recons])
        per = evaluate.per_sample_nmse(targets, np.stack([r for _, r in recons]))
        res.failed += int(np.sum(~np.isfinite(per)))
        res.op_seconds = float(np.median(np.add(enc, dec)))
        res.note = (f"{len(enc)} messages, p90 in blocks of {P90_BLOCK}; "
                    f"quality over the first {quality_msgs}")
        res.metrics = {
            "encode_ms_p50": (float(np.median(enc)) * 1e3, "ms"),
            "encode_ms_p90": (_block_p90(enc) * 1e3, "ms"),
            "decode_ms_p50": (float(np.median(dec)) * 1e3, "ms"),
            "decode_ms_p90": (_block_p90(dec) * 1e3, "ms"),
            "nmse": (float(np.mean(per)), "ratio"),
            "mean_payload_bits": (float(np.mean([s.payload_bits for s in
                                                 streams[:quality_msgs]])),
                                  "bits/message"),
        }

    res.finish = finish
    return Stage(messages(), quality_msgs, res)


def gradcheck_stage(ctx: Context, quality_checks: int = 5,
                    arch: model.ArchConfig = GC_ARCH) -> Stage:
    """gradcheck: seeded `finite_diff_check` trials on criterion 2's setup,
    or on a smaller network `arch`.

    An operation is one check; it fails when its worst block's relative
    error reaches criterion 2's 1e-4. The error figure is the median over
    the first `quality_checks` checks, in digits (-log10), because single
    checks scatter over a decade.
    """
    rng = np.random.default_rng(np.random.SeedSequence([ctx.seed, 2]))
    coords = GC_GRID.flat_coords()
    res = StageResult()
    times, errs = [], []

    def checks():
        while True:
            params = model.init_params(int(rng.integers(0, 1 << 31)), arch,
                                       mod_scale=1.0)
            cw = rng.normal(0.0, 0.5, arch.codeword_dim)
            targets = rng.uniform(-1.0, 1.0, (len(GC_GRID), 2))
            res.attempted += 1
            started = time.perf_counter()
            try:
                report = siren.finite_diff_check(params, cw, coords, targets)
            except Exception:
                _report_failure("finite_diff_check")
                res.failed += 1
            else:
                times.append(time.perf_counter() - started)
                errs.append(max(report.values()))
            yield

    def finish():
        res.failed += sum(1 for e in errs if not e < GC_THRESHOLD)
        if len(errs) < quality_checks:
            return
        res.op_seconds = float(np.median(times))
        res.note = (f"{len(times)} checks, hidden_dim {arch.hidden_dim}, "
                    f"{arch.num_layers} layers; median time, error of the "
                    f"first {quality_checks}")
        res.metrics = {
            "gradcheck_s": (res.op_seconds, "s"),
            "gradcheck_err_digits": (
                -math.log10(float(np.median(errs[:quality_checks]))), "digits"),
        }

    res.finish = finish
    return Stage(checks(), quality_checks, res)


def time_forward() -> dict:
    """Median ms per `siren.forward_batch` call at the eval-batch (B=64) and
    train-b1 (B=1) shapes on the desk grid."""
    params = model.init_params(0, ARCH, MOD_SCALE)
    grid = model.CoordinateGrid(GRID["num_antennas"], GRID["num_subcarriers"])
    feats = siren.fourier_features(params, grid.flat_coords())
    rng = np.random.default_rng(0)
    out = {}
    for shape, batch, reps in (("b64", 64, 9), ("b1", 1, 201)):
        cw = rng.normal(0.0, 0.01, (batch, ARCH.codeword_dim)).astype(np.float32)
        siren.forward_batch(params, cw, feats=feats)
        times = []
        for _ in range(reps):
            started = time.perf_counter()
            siren.forward_batch(params, cw, feats=feats)
            times.append(time.perf_counter() - started)
        out[shape] = float(np.median(times)) * 1e3
    return out


@contextmanager
def capture_results(module, name: str):
    """Record the result of every `module.name` call made inside the block.

    Patches the current object under every module namespace that holds it,
    so callers that imported the name directly are covered too; under the
    tracer that object is the traced wrapper, which keeps being traced.
    """
    original = getattr(module, name)
    results = []

    def recorder(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    patched = patch_everywhere({original: recorder})
    try:
        yield results
    finally:
        restore(patched)
