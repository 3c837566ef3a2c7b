"""Forward evaluation and hand-rolled gradients of the modulated network."""

import dataclasses
import math

import numpy as np
import pytest

from csicodec import siren
from csicodec.model import ArchConfig, CoordinateGrid, init_params
from csicodec.siren import (
    backward_batch,
    finite_diff_check,
    forward_batch,
    fourier_features,
    loss_mse,
    zero_start,
)

ARCH = ArchConfig(hidden_dim=16, num_layers=3, codeword_dim=6,
                  omega0=30.0, fourier_scale=2.0)
COORDS = CoordinateGrid(4, 4).flat_coords()


def f64_params(seed=0, arch=ARCH, mod_scale=0.5):
    return init_params(seed, arch, mod_scale=mod_scale).cast(np.float64)


def test_features_at_origin_are_cos_then_sin_of_zero():
    p = init_params(0, ARCH)
    f = fourier_features(p, np.zeros((1, 2)))
    np.testing.assert_array_equal(f[0, :16], np.ones(16, np.float32))
    np.testing.assert_array_equal(f[0, 16:], np.zeros(16, np.float32))


def test_features_reject_bad_coords():
    p = init_params(0, ARCH)
    with pytest.raises(ValueError):
        fourier_features(p, np.zeros(2))
    with pytest.raises(ValueError):
        fourier_features(p, np.zeros((3, 3)))


def test_single_neuron_network_matches_hand_computation():
    arch = ArchConfig(hidden_dim=1, num_layers=1, codeword_dim=1,
                      omega0=2.0, fourier_scale=1.0)
    p = init_params(0, arch).cast(np.float64)
    p = dataclasses.replace(p, fourier=np.array([[0.25, -0.5]]))
    p = p.with_blocks({"w1": np.array([[0.7, -0.3]]), "b1": np.array([0.1]),
                       "scale_w1": np.array([[0.4]]), "shift_w1": np.array([[-0.2]]),
                       "out_w": np.array([[1.5], [-2.5]]),
                       "out_b": np.array([0.05, -0.05])})

    x, y, m = 0.3, -0.8, 0.9
    ang = 2.0 * math.pi * (0.25 * x - 0.5 * y)
    e = 0.7 * math.cos(ang) - 0.3 * math.sin(ang) + 0.1
    u = (1.0 + 0.4 * m) * e + (-0.2 * m)
    act = math.sin(2.0 * u)
    expected = (1.5 * act + 0.05, -2.5 * act - 0.05)

    out, _ = forward_batch(p, np.array([[m]]),
                           feats=fourier_features(p, np.array([[x, y]])))
    assert out[0, 0, 0] == pytest.approx(expected[0], abs=1e-12)
    assert out[0, 0, 1] == pytest.approx(expected[1], abs=1e-12)


def test_zero_codeword_equals_unmodulated_network():
    # scale_b = 1 and shift_b = 0 make M = 0 the identity modulation, so the
    # plain SIREN chain below must reproduce the outputs bit for bit
    p = init_params(7, ARCH)
    feats = fourier_features(p, COORDS)
    out, _ = forward_batch(p, np.zeros((1, ARCH.codeword_dim), np.float32),
                           feats=feats)

    w = p.blocks
    h = feats @ w["w1"].T + w["b1"]
    h = np.sin(h * ARCH.omega0)
    for k in range(2, ARCH.num_layers + 1):
        h = np.sin((h @ w[f"w{k}"].T + w[f"b{k}"]) * ARCH.omega0)
    plain = h @ w["out_w"].T + w["out_b"]
    np.testing.assert_array_equal(out[0], plain)


def test_loss_matches_loop_oracle():
    rng = np.random.default_rng(3)
    pred = rng.normal(size=(5, 2))
    targ = rng.normal(size=(5, 2))
    acc = 0.0
    for c in range(5):
        acc += (pred[c, 0] - targ[c, 0]) ** 2 + (pred[c, 1] - targ[c, 1]) ** 2
    assert loss_mse(pred, targ) == pytest.approx(acc / 5.0, abs=1e-12)
    with pytest.raises(ValueError):
        loss_mse(pred, targ[:3])
    with pytest.raises(ValueError):
        loss_mse(pred[..., :1], targ[..., :1])


def test_perfect_fit_has_zero_gradients():
    p = f64_params()
    cw = np.full((1, ARCH.codeword_dim), 0.3)
    out, tape = forward_batch(p, cw, feats=fourier_features(p, COORDS))
    loss, grad_cw, grad = backward_batch(tape, p, out.copy(), need_params=True)
    assert loss[0] == 0.0
    assert np.all(grad_cw == 0.0)
    for name, block in ARCH.split(grad).items():
        assert np.all(block == 0.0), name


def test_batch_gradient_is_sum_of_per_sample_gradients():
    p = f64_params(seed=2)
    rng = np.random.default_rng(5)
    cws = rng.normal(size=(3, ARCH.codeword_dim))
    targets = rng.uniform(-1, 1, (3, len(COORDS), 2))
    feats = fourier_features(p, COORDS)

    _, tape = forward_batch(p, cws, feats=feats)
    per_sample, grad_cw, grad = backward_batch(tape, p, targets,
                                               need_params=True)

    summed = np.zeros_like(grad)
    for i in range(3):
        _, t = forward_batch(p, cws[i:i + 1], feats=feats)
        loss, g_cw, g = backward_batch(t, p, targets[i:i + 1], need_params=True)
        assert loss[0] == pytest.approx(float(per_sample[i]), rel=1e-12)
        np.testing.assert_allclose(g_cw[0], grad_cw[i], rtol=1e-10,
                                   atol=1e-14)
        summed += g
    grads, summed = ARCH.split(grad), ARCH.split(summed)
    for name in summed:
        np.testing.assert_allclose(grads[name], summed[name], rtol=1e-9,
                                   atol=1e-13, err_msg=name)


def test_codeword_gradient_descends_the_loss():
    p = f64_params(seed=4)
    rng = np.random.default_rng(6)
    cw = rng.normal(size=(1, ARCH.codeword_dim))
    targets = rng.uniform(-1, 1, (1, len(COORDS), 2))
    feats = fourier_features(p, COORDS)
    _, tape = forward_batch(p, cw, feats=feats)
    loss, grad_cw, _ = backward_batch(tape, p, targets, need_params=False)
    stepped = cw - 1e-3 * grad_cw
    out2, _ = forward_batch(p, stepped, feats=feats)
    assert loss_mse(out2, targets) < loss[0]


def test_analytic_gradients_match_finite_differences():
    p = f64_params(seed=1)
    rng = np.random.default_rng(9)
    cw = rng.normal(size=ARCH.codeword_dim)
    targets = rng.uniform(-1, 1, (len(COORDS), 2))
    report = finite_diff_check(p, cw, COORDS, targets)
    assert set(report) >= {"codeword", "w1", "out_w", "scale_w1", "shift_w1"}
    worst = max(report.values())
    assert worst < 1e-4, report


def serial_finite_diff(params, codeword, coords, targets, h=1e-5):
    """Reference for finite_diff_check: one scalar, two forward calls at a time.

    Each moved scalar goes into a fresh copy of its block and fresh params,
    since a ModelParams' arrays are never written in place."""
    p = params.cast(np.float64)
    cw = np.asarray(codeword, dtype=np.float64)
    feats = fourier_features(p, coords)
    blocks = {"codeword": cw, **p.blocks}

    def loss(name, arr):
        moved = {**blocks, name: arr}
        q = p.with_blocks({k: v for k, v in moved.items() if k != "codeword"})
        return loss_mse(forward_batch(q, moved["codeword"][None], feats=feats)[0][0],
                        targets)

    _, tape = forward_batch(p, cw[None], feats=feats)
    _, grad_cw, grad = backward_batch(tape, p, targets[None], need_params=True)
    analytic = {"codeword": grad_cw[0], **p.arch.split(grad)}
    report = {}
    for name, arr in blocks.items():
        numeric = np.empty(arr.size)
        for k in range(arr.size):
            keep = arr.flat[k]
            hi, lo = arr.copy(), arr.copy()
            hi.flat[k] = keep + h
            lo.flat[k] = keep - h
            numeric[k] = (loss(name, hi) - loss(name, lo)) / (2.0 * h)
        ana = analytic[name].reshape(-1)
        scale = max(np.abs(ana).max(), np.abs(numeric).max(), 1e-8)
        report[name] = np.abs(ana - numeric).max() / scale
    return report


# the small budget splits most blocks into several chunks with a remainder
@pytest.mark.parametrize("stack_bytes", [siren._FD_STACK_BYTES, 40_000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_finite_diff_matches_the_serial_reference(monkeypatch, seed,
                                                           stack_bytes):
    monkeypatch.setattr(siren, "_FD_STACK_BYTES", stack_bytes)
    arch = ArchConfig(hidden_dim=8, num_layers=2, codeword_dim=4,
                      omega0=30.0, fourier_scale=2.0)
    coords = CoordinateGrid(3, 3).flat_coords()
    rng = np.random.default_rng(seed)
    p = init_params(seed, arch, mod_scale=1.0)
    cw = rng.normal(0.0, 0.5, arch.codeword_dim)
    targets = rng.uniform(-1, 1, (len(coords), 2))
    batched = finite_diff_check(p, cw, coords, targets)
    serial = serial_finite_diff(p, cw, coords, targets)
    assert batched.keys() == serial.keys()
    # losses agree to float64 rounding (~1e-16 relative); over 2h = 2e-5
    # and a block scale of order one that leaves ~1e-11 in a report
    for name in serial:
        assert batched[name] == pytest.approx(serial[name], abs=1e-9), name


@pytest.mark.parametrize("block", ["w2", "shift_w1", "codeword"])
def test_finite_diff_catches_a_wrong_gradient_block(monkeypatch, block):
    real = siren.backward_batch

    def corrupted(tape, params, targets, need_params):
        per_sample, grad_cw, grad = real(tape, params, targets, need_params)
        g = grad_cw if block == "codeword" else params.arch.split(grad)[block]
        g.flat[0] += 0.01 * np.abs(g).max()
        return per_sample, grad_cw, grad

    monkeypatch.setattr(siren, "backward_batch", corrupted)
    p = f64_params(seed=1)
    rng = np.random.default_rng(9)
    report = finite_diff_check(p, rng.normal(size=ARCH.codeword_dim), COORDS,
                               rng.uniform(-1, 1, (len(COORDS), 2)))
    assert report[block] >= 1e-3, report
    assert all(err < 1e-4 for name, err in report.items() if name != block), report


def test_finite_diff_refuses_a_forward_it_does_not_reproduce(monkeypatch):
    real = siren.forward_batch

    def shifted(*args, **kwargs):
        out, tape = real(*args, **kwargs)
        tape.outputs = out + 1e-6
        return tape.outputs, tape

    monkeypatch.setattr(siren, "forward_batch", shifted)
    p = f64_params()
    with pytest.raises(RuntimeError, match="forward_batch"):
        finite_diff_check(p, np.zeros(ARCH.codeword_dim), COORDS,
                          np.ones((len(COORDS), 2)))


def test_finite_diff_refuses_an_exact_fit():
    # Targets equal to the network's own outputs: loss 0, every analytic
    # gradient exactly 0, so no block's relative error has a scale.
    p = f64_params(seed=1)
    cw = np.random.default_rng(9).normal(size=ARCH.codeword_dim)
    out, _ = forward_batch(p, cw[None], feats=fourier_features(p, COORDS))
    with pytest.raises(ValueError, match="exact fit"):
        finite_diff_check(p, cw, COORDS, out[0].copy())


def test_finite_diff_rejects_nonpositive_step():
    p = f64_params()
    with pytest.raises(ValueError):
        finite_diff_check(p, np.zeros(ARCH.codeword_dim), COORDS,
                          np.zeros((len(COORDS), 2)), h=0.0)


def test_forward_backward_is_deterministic():
    p = init_params(11, ARCH)
    rng = np.random.default_rng(12)
    cws = rng.normal(size=(2, ARCH.codeword_dim)).astype(np.float32)
    targets = rng.uniform(-1, 1, (2, len(COORDS), 2)).astype(np.float32)
    feats = fourier_features(p, COORDS)

    out1, tape1 = forward_batch(p, cws, feats=feats)
    out2, tape2 = forward_batch(p, cws, feats=feats)
    np.testing.assert_array_equal(out1, out2)
    assert_same_gradients(backward_batch(tape1, p, targets, need_params=True),
                          backward_batch(tape2, p, targets, need_params=True))


def reference_forward(params, codewords, feats):
    """Out-of-place forward, kept as the reference for forward_batch's
    in-place loop: every temporary is a fresh array, cos taken up front."""
    a, w = params.arch, params.blocks
    cw = np.asarray(codewords, dtype=params.fourier.dtype)
    layers = range(1, a.num_layers + 1)
    gammas = [cw @ w[f"scale_w{k}"].T + w[f"scale_b{k}"] for k in layers]
    etas = [cw @ w[f"shift_w{k}"].T + w[f"shift_b{k}"] for k in layers]
    first_pre = feats @ w["w1"].T + w["b1"]
    pre, cos_act, post = [first_pre[None, :, :]], [], []
    z = (gammas[0][:, None, :] * first_pre[None, :, :] + etas[0][:, None, :]) * a.omega0
    cos_act.append(np.cos(z))
    post.append(np.sin(z))
    B, C, d = post[0].shape
    for i in range(1, a.num_layers):
        e = post[i - 1].reshape(B * C, d) @ w[f"w{i + 1}"].T
        e = e.reshape(B, C, d) + w[f"b{i + 1}"]
        pre.append(e)
        z = (gammas[i][:, None, :] * e + etas[i][:, None, :]) * a.omega0
        cos_act.append(np.cos(z))
        post.append(np.sin(z))
    out = (post[-1].reshape(B * C, d) @ w["out_w"].T + w["out_b"]).reshape(B, C, 2)
    return out, dict(cw=cw, feats=feats, pre=pre, cos_act=cos_act, post=post,
                     gammas=gammas, etas=etas)


def reference_backward(cache, params, outputs, targets):
    """Out-of-place backward over reference_forward's cache; the parameter
    gradient comes back as a dict of separately computed blocks."""
    a, w = params.arch, params.blocks
    B, C, _ = outputs.shape
    d = a.hidden_dim
    diff = outputs.astype(np.float64) - targets.astype(np.float64)
    per_sample = np.mean(diff[..., 0] ** 2 + diff[..., 1] ** 2, axis=-1)
    G = (outputs - targets) * (2.0 / C)
    post = cache["post"]
    grads = {"out_w": G.reshape(-1, 2).T @ post[-1].reshape(-1, d),
             "out_b": G.sum(axis=(0, 1))}
    dF = (G.reshape(-1, 2) @ w["out_w"]).reshape(B, C, d)
    grad_cw = np.zeros((B, a.codeword_dim), dtype=outputs.dtype)
    for i in range(a.num_layers - 1, -1, -1):
        du = dF * cache["cos_act"][i] * a.omega0
        dgamma = np.sum(du * cache["pre"][i], axis=1)
        deta = np.sum(du, axis=1)
        grads[f"scale_w{i + 1}"] = dgamma.T @ cache["cw"]
        grads[f"scale_b{i + 1}"] = dgamma.sum(axis=0)
        grads[f"shift_w{i + 1}"] = deta.T @ cache["cw"]
        grads[f"shift_b{i + 1}"] = deta.sum(axis=0)
        grad_cw += dgamma @ w[f"scale_w{i + 1}"] + deta @ w[f"shift_w{i + 1}"]
        dE = du * cache["gammas"][i][:, None, :]
        if i == 0:
            grads["w1"] = dE.sum(axis=0).T @ cache["feats"]
        else:
            grads[f"w{i + 1}"] = dE.reshape(-1, d).T @ post[i - 1].reshape(-1, d)
            dF = (dE.reshape(-1, d) @ w[f"w{i + 1}"]).reshape(B, C, d)
        grads[f"b{i + 1}"] = dE.sum(axis=(0, 1))
    return per_sample, grad_cw, grads


DESK = ArchConfig(hidden_dim=64, num_layers=5, codeword_dim=16,
                  omega0=30.0, fourier_scale=2.0)


def film_case(dtype, arch=ARCH, grid=(4, 4), batch=3, seed=0):
    """Params, features, codewords and targets with a non-trivial FiLM."""
    p = init_params(seed, arch, mod_scale=1.0).cast(dtype)
    rng = np.random.default_rng(seed + 100)
    coords = CoordinateGrid(*grid).flat_coords()
    cws = rng.normal(0.0, 0.5, (batch, arch.codeword_dim)).astype(dtype)
    targets = rng.uniform(-1, 1, (batch, len(coords), 2)).astype(dtype)
    return p, fourier_features(p, coords), cws, targets


def assert_same_gradients(run, expected):
    """Two backward_batch results agree bit for bit."""
    for got, want in zip(run, expected, strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch,grid,batch", [(ARCH, (4, 4), 3), (DESK, (16, 16), 64),
                                             (DESK, (16, 16), 1), (DESK, (16, 16), 17)])
def test_in_place_loop_is_bit_identical_to_the_reference(dtype, arch, grid, batch):
    p, feats, cws, targets = film_case(dtype, arch, grid, batch)
    out, tape = forward_batch(p, cws, feats=feats)
    ref_out, cache = reference_forward(p, cws, feats)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, ref_out)
    # one stacked modulation product gives the per-layer gammas and etas
    for i in range(arch.num_layers):
        np.testing.assert_array_equal(tape.gammas[i], cache["gammas"][i])
        np.testing.assert_array_equal(tape.etas[i], cache["etas"][i])
    expected = reference_backward(cache, p, ref_out, targets)
    per_sample, grad_cw, grad = backward_batch(tape, p, targets, need_params=True)
    np.testing.assert_array_equal(per_sample, expected[0])
    np.testing.assert_array_equal(grad_cw, expected[1])
    grads = arch.split(grad)
    assert grads.keys() == expected[2].keys()
    for name in grads:
        np.testing.assert_array_equal(grads[name], expected[2][name], err_msg=name)
    cw_only = backward_batch(tape, p, targets, need_params=False)
    assert cw_only[2] is None
    np.testing.assert_array_equal(cw_only[1], expected[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reused_tape_matches_a_fresh_one(dtype):
    p, feats, cws, targets = film_case(dtype)
    _, tape = forward_batch(p, cws[::-1] * 2.0, feats=feats)
    backward_batch(tape, p, targets, need_params=True)
    arrays = [id(x) for x in (tape.outputs, tape.first_pre, *tape.pre[1:],
                              *tape.phase, *tape.post, *tape.work)]

    out, again = forward_batch(p, cws, feats=feats, tape=tape)
    assert again is tape
    assert out is tape.outputs
    run = backward_batch(tape, p, targets, need_params=True)
    assert arrays == [id(x) for x in (tape.outputs, tape.first_pre, *tape.pre[1:],
                                      *tape.phase, *tape.post, *tape.work)]

    fresh_out, fresh = forward_batch(p, cws, feats=feats)
    np.testing.assert_array_equal(out, fresh_out)
    assert_same_gradients(run, backward_batch(fresh, p, targets, need_params=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2, 3, 4, 8, 16, 17, 64])
def test_stacked_modulations_equal_the_per_layer_products(dtype, batch):
    p, _, cws, _ = film_case(dtype, DESK, batch=batch, seed=3)
    M, m = p.modulation
    assert M.shape == (2 * DESK.num_layers * DESK.hidden_dim, DESK.codeword_dim)
    assert p.modulation[0] is M               # built once per params
    film = cws @ M.T + m
    d, L = DESK.hidden_dim, DESK.num_layers
    w = p.blocks
    for i in range(L):
        k = i + 1
        np.testing.assert_array_equal(film[:, i * d:(i + 1) * d],
                                      cws @ w[f"scale_w{k}"].T + w[f"scale_b{k}"])
        np.testing.assert_array_equal(film[:, (L + i) * d:(L + i + 1) * d],
                                      cws @ w[f"shift_w{k}"].T + w[f"shift_b{k}"])


def test_a_reused_tape_projects_new_first_layer_inputs():
    p, feats, cws, targets = film_case(np.float32)
    _, tape = forward_batch(p, cws, feats=feats)
    other_feats = fourier_features(p, CoordinateGrid(2, 8).flat_coords())
    w = p.blocks
    for params, f in ((p, other_feats),
                      (p.with_blocks({"w1": w["w1"] * 1.5}), feats),
                      (p.with_blocks({"b1": w["b1"] + 0.25}), feats)):
        out, again = forward_batch(params, cws, feats=f, tape=tape)
        assert again is tape
        fresh_out, fresh = forward_batch(params, cws, feats=f)
        np.testing.assert_array_equal(tape.first_pre, fresh.first_pre)
        np.testing.assert_array_equal(out, fresh_out)
        assert_same_gradients(backward_batch(tape, params, targets, need_params=True),
                              backward_batch(fresh, params, targets, need_params=True))


def test_tape_of_another_shape_is_left_alone():
    p, feats, cws, _ = film_case(np.float32, batch=3)
    out3, tape3 = forward_batch(p, cws, feats=feats)
    kept = out3.copy()
    p64 = p.cast(np.float64)
    for params, batch in ((p, cws[:2]), (p64, cws)):
        f = fourier_features(params, COORDS)
        out, tape = forward_batch(params, batch, feats=f, tape=tape3)
        assert tape is not tape3
        np.testing.assert_array_equal(out, forward_batch(params, batch, feats=f)[0])
    np.testing.assert_array_equal(out3, kept)


def test_backward_twice_on_one_tape_agrees_and_keeps_the_tape():
    p, feats, cws, targets = film_case(np.float32)
    _, tape = forward_batch(p, cws, feats=feats)
    forward_arrays = [x.copy() for x in (tape.outputs, tape.first_pre, *tape.pre[1:],
                                         *tape.phase, *tape.post)]
    first = backward_batch(tape, p, targets, need_params=True)
    backward_batch(tape, p, targets, need_params=False)
    assert_same_gradients(backward_batch(tape, p, targets, need_params=True), first)
    for before, now in zip(forward_arrays, (tape.outputs, tape.first_pre, *tape.pre[1:],
                                            *tape.phase, *tape.post)):
        np.testing.assert_array_equal(before, now)


def test_forward_validates_inputs():
    p = init_params(0, ARCH)
    feats = fourier_features(p, COORDS)
    with pytest.raises(ValueError):
        forward_batch(p, np.zeros((2, ARCH.codeword_dim + 1)), feats=feats)
    with pytest.raises(ValueError):
        forward_batch(p, np.zeros(ARCH.codeword_dim), feats=feats)
    with pytest.raises(ValueError, match="feature matrix"):
        forward_batch(p, np.zeros((2, ARCH.codeword_dim)), feats=feats[:, 1:])
    with pytest.raises(ValueError, match="feature matrix"):
        forward_batch(p, np.zeros((2, ARCH.codeword_dim)),
                      feats=feats.astype(np.float64))


# Criterion 2's network and grid.
GRADCHECK = ArchConfig(hidden_dim=32, num_layers=3, codeword_dim=8,
                       omega0=30.0, fourier_scale=2.0)


@pytest.mark.parametrize("arch,grid", [(DESK, (16, 16)), (GRADCHECK, (3, 3))])
def test_zero_start_jacobian_gives_the_codeword_gradient_at_zero(arch, grid):
    p, feats, _, targets = film_case(np.float64, arch, grid, batch=5, seed=4)
    outputs, jac = zero_start(p, feats)
    C = feats.shape[0]
    assert outputs.shape == (C, 2) and jac.shape == (2 * C, arch.codeword_dim)
    out, tape = forward_batch(p, np.zeros((5, arch.codeword_dim)), feats=feats)
    _, grad_cw, _ = backward_batch(tape, p, targets, need_params=False)
    np.testing.assert_allclose(outputs, out[0], rtol=0, atol=1e-14)
    G = (outputs - targets) * (2.0 / C)
    err = np.abs(G.reshape(5, -1) @ jac - grad_cw).max() / np.abs(grad_cw).max()
    assert err <= 1e-12


def test_zero_start_jacobian_columns_match_central_differences():
    p, feats, _, _ = film_case(np.float64, GRADCHECK, (3, 3))
    _, jac = zero_start(p, feats)
    h = 1e-6
    steps = np.concatenate([np.eye(GRADCHECK.codeword_dim) * h,
                            np.eye(GRADCHECK.codeword_dim) * -h])
    out, _ = forward_batch(p, steps, feats=feats)
    n = GRADCHECK.codeword_dim
    numeric = ((out[:n] - out[n:]) / (2.0 * h)).reshape(n, -1).T
    np.testing.assert_allclose(jac, numeric, rtol=0, atol=1e-7 * np.abs(jac).max())


def test_zero_start_works_in_layer_sized_buffers():
    import tracemalloc
    p, feats, _, _ = film_case(np.float32, DESK, (16, 16))
    layer = feats.shape[0] * DESK.hidden_dim * 4               # one (C, d_h)
    # an input and a slope per layer, two tangent buffers and a few
    # temporaries; nothing of n layers' size
    budget = (2 * DESK.num_layers + 6) * layer
    zero_start(p, feats)
    tracemalloc.start()
    try:
        outputs, jac = zero_start(p, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outputs.dtype == jac.dtype == np.float32
    assert peak < budget
