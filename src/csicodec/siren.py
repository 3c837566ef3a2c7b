"""Forward evaluation and hand-written reverse-mode gradients.

The computation graph is small and fixed (Fourier lift, modulated sine
layers, linear head, squared error), so the backward pass is written out
by hand instead of pulling in an autodiff framework. Per batch, each sine
layer's pre-activation, its phase z = omega0 * (gamma * e + eta) and its
activation sin(z) are cached on a tape; the backward walk consumes the tape
and emits gradients for the codeword and for every trainable parameter
block. `cos(z)` is taken in backward, only where it is used, so paths that
never run backward (decoding, validation) never pay for it.
The fixed Fourier matrix gets no gradient. A central finite-difference
checker validates every block: it moves many scalars of one block at once,
as stacked copies of that block, through a private loss-only float64 pass
that first has to reproduce `forward_batch`'s loss, so the check costs a few
dozen batched passes instead of two forward calls per scalar. The passes
run in tiles on every CPU, and the report has the same bits on any count.

The sine-layer loop works in place: bias, FiLM and sin write into the
tape's own (B, C, d_h) arrays, and backward works in two scratch buffers
the tape keeps after its first backward. A caller that loops passes its
previous tape back to `forward_batch`; when batch size, coordinate count,
width and dtype match, the tape's arrays are overwritten instead of freshly
allocated, so the outputs returned by the earlier call change too. Backward
never writes to the forward arrays, so it can run twice on one tape.
Every operation keeps the operand order and dtype of the out-of-place
formulas, so results are bit-identical to them.

Every layer's gamma and eta come from one product of the codewords with
the params' stacked modulation maps (`ModelParams.modulation`, built once
per params). That rests on the rule that a ModelParams' arrays are never
written in place: they are read-only, and a changed weight always comes as
a new array in new params.

At the zero codeword, where every adaptation starts, outputs and codeword
Jacobian are the same for every target; `zero_start` computes both once in
forward mode, so the codec's first inner step is one product with J.

Everything here is batch-first: codewords are (B, n), targets (B, C, 2),
and a single sample is a batch of one. Arithmetic runs in the dtype of the
parameters (float32 in training, float64 for verification);
loss values are always reduced in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .util import map_tiles

if TYPE_CHECKING:
    from .model import ModelParams

TWO_PI = 2.0 * np.pi


@dataclass
class ActivationTape:
    """Cached intermediates of one forward pass, consumed by backward."""

    codewords: np.ndarray        # (B, n)
    fourier_features: np.ndarray  # (C, 2*d_h), shared across the batch
    first_pre: np.ndarray        # (C, d_h) layer-1 pre-activation, shared
    pre: list                    # per layer (B, C, d_h); index 0 is None
    phase: list                  # per layer z_i = omega0 * u_i, (B, C, d_h)
    post: list                   # per layer F_i = sin(z_i)
    gammas: list                 # per layer (B, d_h)
    etas: list                   # per layer (B, d_h)
    outputs: np.ndarray          # (B, C, 2)
    work: tuple | None = None    # two (B, C, d_h) backward buffers, made on
                                 # the first backward and reused after it

    @classmethod
    def empty(cls, B: int, C: int, d: int, layers: int, dtype) -> "ActivationTape":
        block = lambda: np.empty((B, C, d), dtype=dtype)
        return cls(codewords=None, fourier_features=None,
                   first_pre=np.empty((C, d), dtype=dtype),
                   pre=[None] + [block() for _ in range(layers - 1)],
                   phase=[block() for _ in range(layers)],
                   post=[block() for _ in range(layers)],
                   gammas=[], etas=[],
                   outputs=np.empty((B, C, 2), dtype=dtype))

    def fits(self, B: int, C: int, d: int, layers: int, dtype) -> bool:
        """Whether a forward of this shape can overwrite this tape's arrays."""
        return (len(self.post) == layers and self.outputs.dtype == dtype
                and self.post[0].shape == (B, C, d))


def fourier_features(params: ModelParams, coords: np.ndarray) -> np.ndarray:
    """Lift coordinates through the fixed Fourier matrix: [cos(2piBx); sin(2piBx)].

    Shape (C, 2*d_h), first half cos, second half sin. Constant for a fixed
    grid, so callers on a hot path compute it once and pass it back in.
    """
    x = np.asarray(coords, dtype=params.fourier.dtype)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError("coords must have shape (count, 2)")
    ang = (x @ params.fourier.T) * TWO_PI
    return np.concatenate([np.cos(ang), np.sin(ang)], axis=1)


def forward_batch(params: ModelParams, codewords: np.ndarray,
                  feats: np.ndarray, tape: ActivationTape | None = None):
    """Evaluate the network for a batch of codewords over one coordinate set.

    Returns (outputs, tape) with outputs (B, C, 2), a view of the tape.
    feats is the coordinate set's fourier_features, (C, 2*d_h). A tape from
    an earlier call with the same batch size, coordinate count, width and
    dtype is overwritten in place and returned; any other tape is left alone
    and a fresh one allocated.
    """
    a, w = params.arch, params.blocks
    dt = params.fourier.dtype
    w0 = a.omega0
    cw = np.asarray(codewords, dtype=dt)
    if cw.ndim != 2 or cw.shape[1] != a.codeword_dim:
        raise ValueError(f"codewords must have shape (batch, {a.codeword_dim})")
    if feats.shape[1] != 2 * a.hidden_dim or feats.dtype != dt:
        raise ValueError("feature matrix does not match the model")

    B, C, d, L = cw.shape[0], feats.shape[0], a.hidden_dim, a.num_layers
    if tape is None or not tape.fits(B, C, d, L, dt):
        tape = ActivationTape.empty(B, C, d, L, dt)
    tape.codewords = cw
    tape.fourier_features = feats
    stack, bias = params.modulation
    film = (cw @ stack.T + bias).reshape(B, 2 * L, d)   # every gamma, then every eta
    tape.gammas = [film[:, i] for i in range(L)]
    tape.etas = [film[:, L + i] for i in range(L)]

    np.matmul(feats, w["w1"].T, out=tape.first_pre)
    tape.first_pre += w["b1"]
    for i in range(L):
        if i == 0:
            e = tape.first_pre                                 # (C, d_h)
        else:
            e = tape.pre[i]
            np.matmul(tape.post[i - 1].reshape(B * C, d), w[f"w{i + 1}"].T,
                      out=e.reshape(B * C, d))
            e += w[f"b{i + 1}"]
        z = tape.phase[i]                   # z = (gamma * e + eta) * omega0
        np.multiply(tape.gammas[i][:, None, :], e, out=z)
        z += tape.etas[i][:, None, :]
        z *= w0
        np.sin(z, out=tape.post[i])
    np.matmul(tape.post[-1].reshape(B * C, d), w["out_w"].T,
              out=tape.outputs.reshape(B * C, 2))
    tape.outputs += w["out_b"]
    return tape.outputs, tape


def zero_start(params: ModelParams, feats: np.ndarray):
    """Outputs (C, 2) and codeword Jacobian J (2C, n) at the zero codeword.

    J[2c + k, j] = d out[c, k] / d cw[j], so the codeword gradient of a batch
    at zero is G.reshape(B, 2C) @ J for upstream gradients G (B, C, 2). At
    zero every gamma and eta is its bias. Forward mode carries one tangent
    direction at a time through two (C, d_h) buffers, in the params dtype:
    all n at once in (n, C, d_h) buffers, or a forward_batch tape, raised the
    desk benchmark's peak RSS by ~4.5 and ~1.5 MB (2 vCPUs, glibc malloc).
    """
    a, w = params.arch, params.blocks
    n, C, d, L = a.codeword_dim, feats.shape[0], a.hidden_dim, a.num_layers
    # the two results outlive the call: made first, so that they do not sit
    # in the heap above the transient arrays and keep it from shrinking
    jac, outputs = np.empty((2 * C, n), feats.dtype), np.empty((C, 2), feats.dtype)
    stack, bias = params.modulation
    gammas, etas = bias.reshape(2, L, d)
    maps = stack.reshape(2, L, d, n)    # tangents: columns of scale_wi, shift_wi
    inputs, slopes, h = [], [], feats
    for i in range(L):
        e = h @ w[f"w{i + 1}"].T + w[f"b{i + 1}"]
        z = (gammas[i] * e + etas[i]) * a.omega0
        h = np.sin(z)
        inputs.append(e)
        slopes.append(np.multiply(np.cos(z, out=z), a.omega0, out=z))
    outputs[...] = h @ w["out_w"].T + w["out_b"]
    tan, work = (np.empty((C, d), dtype=feats.dtype) for _ in range(2))
    for j in range(n):
        for i in range(L):
            if i == 0:                      # layer 1's input has no tangent
                np.multiply(maps[0, 0, :, j], inputs[0], out=work)
            else:                  # du = gamma * de + dgamma * e + deta
                np.matmul(tan, w[f"w{i + 1}"].T, out=work)
                work *= gammas[i]
                work += np.multiply(maps[0, i, :, j], inputs[i], out=tan)
            work += maps[1, i, :, j]
            work *= slopes[i]
            tan, work = work, tan
        jac[:, j] = (tan @ w["out_w"].T).reshape(-1)
    return outputs, jac


def loss_mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean over coordinates of squared (re, im) error; batches additionally
    average over samples. Reduced in float64."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape or p.shape[-1] != 2:
        raise ValueError("predictions and targets must share a (..., 2) shape")
    d = p - t
    return float(np.mean(d[..., 0] ** 2 + d[..., 1] ** 2))


def _per_sample_loss(outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    d = outputs.astype(np.float64) - targets.astype(np.float64)
    return np.mean(d[..., 0] ** 2 + d[..., 1] ** 2, axis=-1)


def backward_batch(tape: ActivationTape, params: ModelParams,
                   targets: np.ndarray, need_params: bool):
    """Reverse walk over the tape.

    Returns (per_sample_loss (B,), grad_codewords (B, n), grad_params or
    None). grad_params is one vector in the params' flat layout (name its
    blocks with `arch.split`), each block written in place through its view;
    it is summed over the batch, while codeword gradients stay per sample.
    The per-sample loss is the coordinate-mean squared error, so the
    upstream gradient is 2*residual/C.
    """
    a, w = params.arch, params.blocks
    dt = tape.outputs.dtype
    B, C, _ = tape.outputs.shape
    t = np.asarray(targets, dtype=dt)
    if t.shape != tape.outputs.shape:
        raise ValueError("targets do not match the tape")
    if len(tape.post) != a.num_layers or tape.post[0].shape[2] != a.hidden_dim \
            or tape.codewords.shape[1] != a.codeword_dim:
        raise ValueError("tape does not match these params")

    per_sample = _per_sample_loss(tape.outputs, t)
    resid = tape.outputs - t
    G = resid * (2.0 / C)                                  # (B, C, 2)
    d = a.hidden_dim
    grad = np.empty(a.vector_size, dtype=dt) if need_params else None
    if need_params:
        g = a.split(grad)
        np.matmul(G.reshape(-1, 2).T, tape.post[-1].reshape(-1, d), out=g["out_w"])
        np.add.reduce(G, axis=(0, 1), out=g["out_b"])
    if tape.work is None:
        tape.work = (np.empty_like(tape.post[0]), np.empty_like(tape.post[0]))
    # dF turns into du and then dE in place; scratch holds cos(z), then
    # du * e, then the next layer's dF, and the two swap roles.
    dF, scratch = tape.work
    np.matmul(G.reshape(-1, 2), w["out_w"], out=dF.reshape(-1, d))
    grad_cw = np.zeros((B, a.codeword_dim), dtype=dt)
    for i in range(a.num_layers - 1, -1, -1):
        k = i + 1
        du = dF                                            # du = dF * cos(z) * omega0
        du *= np.cos(tape.phase[i], out=scratch)
        du *= a.omega0
        e = tape.first_pre if i == 0 else tape.pre[i]
        dgamma = np.add.reduce(np.multiply(du, e, out=scratch), axis=1)   # (B, d_h)
        deta = np.add.reduce(du, axis=1)
        if need_params:
            np.matmul(dgamma.T, tape.codewords, out=g[f"scale_w{k}"])
            np.add.reduce(dgamma, axis=0, out=g[f"scale_b{k}"])
            np.matmul(deta.T, tape.codewords, out=g[f"shift_w{k}"])
            np.add.reduce(deta, axis=0, out=g[f"shift_b{k}"])
        grad_cw += dgamma @ w[f"scale_w{k}"] + deta @ w[f"shift_w{k}"]
        if i == 0 and not need_params:
            break                       # layer 1's dE feeds only w1 and b1
        dE = du
        dE *= tape.gammas[i][:, None, :]
        if need_params:
            if i == 0:
                np.matmul(np.add.reduce(dE, axis=0).T, tape.fourier_features,
                          out=g["w1"])
            else:
                np.matmul(dE.reshape(-1, d).T, tape.post[i - 1].reshape(-1, d),
                          out=g[f"w{k}"])
            np.add.reduce(dE, axis=(0, 1), out=g[f"b{k}"])
        if i > 0:
            np.matmul(dE.reshape(-1, d), w[f"w{k}"], out=scratch.reshape(-1, d))
            dF, scratch = scratch, dE
    return per_sample, grad_cw, grad


def _stacked_losses(params: ModelParams, blocks: dict, feats: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
    """Loss-only forward over stacked copies of the network, for the checker.

    `blocks` holds the params' named blocks plus "codeword" (S|1, n). Any one
    trainable block may carry a leading stack axis of size S instead, with
    the codeword (1, n); everything unstacked broadcasts against the stack.
    Returns the per-sample loss of each copy, shape (S,). No tape and no
    cos: nothing runs backward.
    """
    w0 = params.arch.omega0
    bias = lambda b: b[:, None, :] if b.ndim == 2 else b   # stacked (S, d) -> (S, 1, d)
    cw = blocks["codeword"][:, :, None]                    # (S|1, n, 1)
    h = feats
    for k in range(1, params.arch.num_layers + 1):
        gamma = (blocks[f"scale_w{k}"] @ cw)[..., 0] + blocks[f"scale_b{k}"]
        eta = (blocks[f"shift_w{k}"] @ cw)[..., 0] + blocks[f"shift_b{k}"]
        e = h @ np.swapaxes(blocks[f"w{k}"], -1, -2) + bias(blocks[f"b{k}"])
        h = np.sin((gamma[:, None, :] * e + eta[:, None, :]) * w0)
    out = h @ np.swapaxes(blocks["out_w"], -1, -2) + bias(blocks["out_b"])
    return _per_sample_loss(out, targets)


# Memory for the stacked copies, plus their activations, of one tile of the
# checker's loss passes; a tile runs per CPU, so up to one budget per CPU is
# in flight. Chunk sizes follow from it alone, never from the CPU count, so
# a report does not depend on the machine.
_FD_STACK_BYTES = 4 << 20


def finite_diff_check(params: ModelParams, codeword: np.ndarray,
                      coords: np.ndarray, targets: np.ndarray,
                      h: float = 1e-5) -> dict:
    """Central-difference verification of every gradient block.

    Runs in float64 regardless of the params dtype. Returns a dict mapping
    block name (plus "codeword") to its max relative error: the largest
    |analytic - numeric| in the block over the block's largest gradient
    magnitude. Normalizing per block rather than per scalar keeps the
    difference-quotient noise floor (~1e-10 for unit-scale losses) from
    drowning coordinates whose true gradient is nearly zero; a genuinely
    wrong gradient term scales with the block and still shows up.

    The difference quotients are batched: for K scalars of one block at a
    time, 2K copies of that block (each with one scalar moved by +h or -h)
    go through one loss-only pass, with every other block shared. K is set
    so the copies stay within `_FD_STACK_BYTES`. Consecutive passes share a
    tile up to that budget, and the tiles run on every CPU (util.map_tiles),
    each pass writing only its own slice of the numeric gradient, so the
    report has the same bits on any number of CPUs. A check that fits one
    budget is one tile and runs inline.

    Raises ValueError for a step h that is not finite and positive, for a
    non-finite codeword or targets, for targets not (len(coords), 2), for a
    non-finite loss, and at a point where every analytic gradient is exactly
    0 (targets equal to the network's own outputs): the error of each block
    would be difference-quotient noise over itself or over the 1e-8 floor.
    """
    if not 0 < h < np.inf:
        raise ValueError("step h must be finite and positive")
    p = params.cast(np.float64)
    cw = np.asarray(codeword, dtype=np.float64)
    if not np.all(np.isfinite(cw)):
        raise ValueError("codeword has non-finite entries")
    feats = fourier_features(p, coords)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != (feats.shape[0], 2):
        raise ValueError(f"targets must have shape ({feats.shape[0]}, 2)")
    if not np.all(np.isfinite(t)):
        raise ValueError("targets have non-finite entries")
    t = t[None, :, :]

    out, tape = forward_batch(p, cw[None, :], feats=feats)
    loss = _per_sample_loss(out, t)[0]
    if not np.isfinite(loss):
        raise ValueError("the loss at this point is not finite")
    _, grad_cw, grad = backward_batch(tape, p, t, need_params=True)
    analytic = {"codeword": grad_cw[0], **p.arch.split(grad)}
    if not any(np.any(g) for g in analytic.values()):
        raise ValueError("every analytic gradient is exactly 0 (the targets "
                         "are an exact fit, loss 0), so a relative error has "
                         "no scale; check at another point")
    arrays = {"codeword": cw, **p.blocks}
    point = {**arrays, "codeword": cw[None, :]}
    # Rounding of the loss scales with the output and target power, which
    # also covers a loss of exactly zero. A NaN drift fails too.
    drift = abs(_stacked_losses(p, point, feats, t)[0] - loss)
    if not drift <= 1e-12 * (loss + np.mean(out ** 2) + np.mean(t ** 2)):
        raise RuntimeError("loss-only pass disagrees with forward_batch")

    act_floats = 4 * t.shape[1] * p.arch.hidden_dim   # live (C, d_h) arrays per copy
    numeric = {name: np.empty(arr.size) for name, arr in arrays.items()}
    tiles, used = [[]], 0             # tiles of (block, first scalar, count)
    for name, arr in arrays.items():
        pair_bytes = 2 * 8 * (arr.size + act_floats)   # the +h and -h copy
        chunk = max(1, _FD_STACK_BYTES // pair_bytes)
        for k0 in range(0, arr.size, chunk):
            K = min(chunk, arr.size - k0)
            if tiles[-1] and used + K * pair_bytes > _FD_STACK_BYTES:
                tiles.append([])
                used = 0
            tiles[-1].append((name, k0, K))
            used += K * pair_bytes

    def run(start, stop, carry):
        for name, k0, K in tiles[start]:
            arr = arrays[name]
            rows = np.arange(K)
            stack = np.repeat(arr.reshape(1, arr.size), 2 * K, axis=0)
            stack[rows, k0 + rows] += h
            stack[K + rows, k0 + rows] -= h
            losses = _stacked_losses(
                p, {**point, name: stack.reshape(2 * K, *arr.shape)}, feats, t)
            numeric[name][k0:k0 + K] = (losses[:K] - losses[K:]) / (2.0 * h)

    map_tiles(run, len(tiles), 1)
    report = {}
    for name, num in numeric.items():
        ana = analytic[name].reshape(-1)
        scale = max(float(np.abs(ana).max(initial=0.0)),
                    float(np.abs(num).max(initial=0.0)), 1e-8)
        report[name] = float(np.abs(ana - num).max(initial=0.0)) / scale
    return report
