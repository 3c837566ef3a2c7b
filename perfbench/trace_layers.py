"""Per-layer tracing of csicodec from outside the package.

`Tracer.install` (or entering a `with Tracer()` block) wraps every public function of the layer modules (and the
`CodecState.digest` method) and patches each wrapper into every module
namespace that holds the original, so names bound with `from .siren import
forward_batch` are traced as well as `siren.forward_batch`. Each wrapper
counts calls and accumulates self time: its own duration minus the time of
the traced calls it made. A few hooks also read arguments and results to
count work (rows, FLOPs, clamped dimensions, coded streams); their own cost
is kept out of every span's self time.

Nothing inside the package is changed; `uninstall` restores every name.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("channel", "dataset", "model", "siren", "training", "entropy",
          "codec", "evaluate")

# Functions the per-layer metrics read. One that a later change deletes is
# listed as absent and its metrics read zero.
REQUIRED = (
    "siren.forward_batch", "siren.backward_batch", "siren.fourier_features",
    "siren.finite_diff_check", "training.inner_adapt_batch",
    "training.outer_step", "codec.quantize", "codec.encode_sample",
    "codec.encode_dataset", "entropy.entropy_encode", "entropy.entropy_decode",
    "entropy.pack_symbols", "entropy.unpack_symbols", "model.reconstruct",
    "dataset.generate_dataset", "channel.channel_matrix",
    "evaluate.evaluate_model",
)

ADAPT_SAMPLES = 64   # inner_adapt_batch calls kept for the adaptation gain

# Per-layer metric -> the end-to-end metric it should move, and where.
MOVES = {
    "siren.forward_batch": "eval_msgs_per_s @ eval-batch; decode_ms_p50 @ "
                           "feedback-1msg; train_samples_per_s @ train-b1",
    "siren.forward_batch.gflop": "computed from array shapes, not measured; "
                                 "eval_msgs_per_s @ eval-batch",
    "siren.forward_batch.mb_moved": "computed from array shapes, not measured; "
                                    "eval_msgs_per_s @ eval-batch",
    "siren.backward_batch.cw": "eval_msgs_per_s @ eval-batch; encode_ms_p50 @ "
                               "feedback-1msg; train_samples_per_s @ train-b1",
    "siren.backward_batch.params": "train_samples_per_s @ train-b1",
    "siren.fourier_features": "gradcheck_s @ gradcheck; encode_ms_p50, "
                              "decode_ms_p50 @ feedback-1msg; no change on "
                              "eval-batch, train-b1",
    "siren.finite_diff_check": "gradcheck_s @ gradcheck",
    "training.inner_adapt_batch": "train_samples_per_s @ train-b1; "
                                  "eval_msgs_per_s @ eval-batch",
    "training.outer_step": "train_samples_per_s @ train-b1",
    "training.inner_adapt": "val_nmse @ train-b1; nmse @ eval-batch",
    "codec.quantize": "encode_ms_p50 @ feedback-1msg",
    "codec.digest": "encode_ms_p50, decode_ms_p50 @ feedback-1msg",
    "codec.clamp_share": "nmse, mean_payload_bits @ eval-batch, feedback-1msg",
    "codec.entropy_coded_share": "mean_payload_bits, encode_ms_p50 @ "
                                 "feedback-1msg; never on train-b1, gradcheck",
    "entropy": "encode_ms_p50, decode_ms_p50 @ feedback-1msg; never called "
               "on train-b1, gradcheck",
    "model.reconstruct": "decode_ms_p50 @ feedback-1msg",
    "dataset": "setup_s @ all",
    "channel": "setup_s @ all",
    "evaluate": "eval_msgs_per_s @ eval-batch",
    "trace": "none: tracing cost, traced against untraced op time",
    "blas": "eval_msgs_per_s @ eval-batch (b64); train_samples_per_s @ "
            "train-b1 (b1)",
}


def moves(metric: str) -> str:
    """Longest MOVES key that prefixes `metric`."""
    keys = [k for k in MOVES if metric == k or metric.startswith(k + ".")]
    return MOVES[max(keys, key=len)] if keys else ""


def patch_everywhere(replacements: dict) -> list:
    """Replace each key object by its value in every loaded module namespace.

    Returns (module, attribute, original) triples for `restore`.
    """
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    patched = []
    for mod in list(sys.modules.values()):
        names = getattr(mod, "__dict__", None)
        if not isinstance(names, dict):
            continue
        for attr, value in list(names.items()):
            old, new = by_id.get(id(value), (None, None))
            if old is value:
                setattr(mod, attr, new)
                patched.append((mod, attr, value))
    return patched


def restore(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


class Tracer:
    """Call counts, self time and work counters per traced function."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.work = Counter()
        self.adapt_samples = []
        self.absent = []
        self._child = []        # time spent in traced callees, per open span
        self._open = Counter()
        self._patched = []
        self._hooks = {
            "siren.forward_batch": self._on_forward,
            "codec.quantize": self._on_quantize,
            "codec.encode_sample": lambda a, k, out: self._on_streams([out]),
            "codec.encode_dataset": lambda a, k, out: self._on_streams(out),
            "training.inner_adapt_batch": self._on_adapt,
        }

    def install(self) -> None:
        wrappers, found = {}, set()
        for short in LAYERS:
            mod = importlib.import_module(f"csicodec.{short}")
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{short}.{name}"
                found.add(key)
                wrappers[fn] = self._wrap(key, fn)
        self.absent = [k for k in REQUIRED if k not in found]
        self._patched = patch_everywhere(wrappers)
        state_cls = getattr(importlib.import_module("csicodec.codec"),
                            "CodecState", None)
        digest = getattr(state_cls, "digest", None)
        if inspect.isfunction(digest):
            setattr(state_cls, "digest", self._wrap("codec.digest", digest))
            self._patched.append((state_cls, "digest", digest))
        else:
            self.absent.append("codec.CodecState.digest")

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, key, fn):
        hook = self._hooks.get(key)
        split = key == "siren.backward_batch"
        child, opened = self._child, self._open
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = key
            if split:
                need = kwargs["need_params"] if "need_params" in kwargs else args[3]
                name = key + (".params" if need else ".cw")
            child.append(0.0)
            opened[key] += 1
            t0 = clock()
            extra = 0.0
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    h0 = clock()
                    hook(args, kwargs, out)
                    extra = clock() - h0
                return out
            finally:
                dt = clock() - t0
                opened[key] -= 1
                calls[name] += 1
                self_s[name] += dt - child.pop() - extra
                if child:
                    child[-1] += dt

        return traced

    def _on_forward(self, args, kwargs, out) -> None:
        params = args[0]
        outputs = out[0]
        B, C = outputs.shape[:2]
        a = params.arch
        d, n, L = a.hidden_dim, a.codeword_dim, a.num_layers
        act = B * C * d
        # GEMM and elementwise operation counts of one forward, from shapes:
        # modulation maps, layer-1 GEMM on the shared features, deeper
        # GEMMs, head, and five elementwise ops per layer (FiLM scale and
        # shift, omega0 scale, sin, cos).
        flop = (2 * B * n * d * 2 * L + 2 * C * 2 * d * d
                + 2 * act * d * (L - 1) + 2 * act * 2 + 5 * act * L)
        # Activation traffic a fused kernel cannot avoid: each layer writes
        # its pre-activation, cos and sin, deeper layers read the previous
        # sin, and the head writes the outputs.
        moved = outputs.itemsize * (3 * act * L + act * (L - 1) + B * C * 2)
        self.work["forward_rows"] += B * C
        self.work["forward_flop"] += flop
        self.work["forward_bytes"] += moved
        if self._open["siren.finite_diff_check"]:
            self.work["fdc_forward_calls"] += 1

    def _on_quantize(self, args, kwargs, out) -> None:
        x = np.asarray(args[0], dtype=np.float64)
        q = args[1]
        self.work["quantized_dims"] += x.size
        self.work["clamped_dims"] += int(np.sum((x < q.lower) | (x >= q.upper)))

    def _on_streams(self, streams) -> None:
        from csicodec.codec import FLAG_ENTROPY, FLAG_UNQUANTIZED

        for s in streams:
            if s.flags != FLAG_UNQUANTIZED:
                self.work["quantized_streams"] += 1
                self.work["entropy_streams"] += s.flags == FLAG_ENTROPY

    def _on_adapt(self, args, kwargs, out) -> None:
        if len(self.adapt_samples) < ADAPT_SAMPLES:
            params, feats, targets = args[:3]
            self.adapt_samples.append((params, feats, targets, out))


def adapt_gain_db(samples) -> float:
    """Loss at the zero codeword over loss after the inner steps, in dB,
    pooled over the recorded inner_adapt_batch calls (0 when none)."""
    from csicodec import siren

    before = after = 0.0
    for params, feats, targets, cw in samples:
        zero, _ = siren.forward_batch(params, np.zeros_like(cw), feats=feats)
        adapted, _ = siren.forward_batch(params, cw, feats=feats)
        before += siren.loss_mse(zero, targets) * len(cw)
        after += siren.loss_mse(adapted, targets) * len(cw)
    if not samples or after <= 0:
        return 0.0
    return 10.0 * math.log10(before / after)


def layer_metrics(tracer: Tracer, ops: int, setup: Tracer) -> dict:
    """Per-layer metrics, normalized per workload operation.

    Setup-phase layers (dataset, channel) are per set-up instead.
    """
    per = 1.0 / max(ops, 1)
    c, s, w = tracer.calls, tracer.self_s, tracer.work
    out = {}

    def calls(key, metric=None):
        out[(metric or key) + ".calls"] = (c[key] * per, "calls/op")

    def ms(key):
        out[key + ".self_ms"] = (s[key] * 1e3 * per, "ms/op")

    def us(key):
        out[key + ".self_us"] = (s[key] * 1e6 * per, "us/op")

    fwd = "siren.forward_batch"
    calls(fwd)
    ms(fwd)
    out[fwd + ".rows_per_call"] = (w["forward_rows"] / max(c[fwd], 1), "rows")
    out[fwd + ".gflop"] = (w["forward_flop"] * 1e-9 * per, "GFLOP/op")
    out[fwd + ".mb_moved"] = (w["forward_bytes"] * 1e-6 * per, "MB/op")
    for key in ("siren.backward_batch.cw", "siren.backward_batch.params",
                "training.inner_adapt_batch", "training.outer_step",
                "model.reconstruct"):
        calls(key)
        ms(key)
    calls("siren.fourier_features")
    out["siren.finite_diff_check.forward_calls"] = (
        w["fdc_forward_calls"] * per, "calls/op")
    out["training.inner_adapt.gain_db"] = (adapt_gain_db(tracer.adapt_samples),
                                           "dB")
    calls("codec.quantize")
    us("codec.quantize")
    calls("codec.digest")
    out["codec.clamp_share"] = (
        w["clamped_dims"] / max(w["quantized_dims"], 1), "ratio")
    out["codec.entropy_coded_share"] = (
        w["entropy_streams"] / max(w["quantized_streams"], 1), "ratio")
    for name in ("entropy_encode", "entropy_decode", "pack_symbols",
                 "unpack_symbols"):
        calls("entropy." + name)
        us("entropy." + name)
    ms("evaluate.evaluate_model")
    setups = max(setup.calls["dataset.generate_dataset"], 1)
    out["dataset.generate_dataset.self_ms"] = (
        setup.self_s["dataset.generate_dataset"] * 1e3 / setups, "ms")
    out["channel.channel_matrix.calls"] = (
        setup.calls["channel.channel_matrix"] / setups, "count")
    return out
