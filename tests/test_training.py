"""Inner-loop adaptation, Adam outer updates, and the training driver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from csicodec import training, util
from csicodec.channel import half_wavelength_config
from csicodec.codec import TrainingDiverged, inner_adapt_batch
from csicodec.dataset import generate_dataset
from csicodec.evaluate import evaluate_model
from csicodec.model import ArchConfig, CoordinateGrid, init_params
from csicodec.siren import backward_batch, forward_batch, fourier_features, zero_start
from csicodec.training import (
    AdamState,
    TrainConfig,
    TrainLog,
    outer_step,
    read_train_log,
    train,
)

ARCH = ArchConfig(hidden_dim=8, num_layers=2, codeword_dim=4,
                  omega0=30.0, fourier_scale=2.0)
GRID = CoordinateGrid(4, 4)


def make_batch(seed, count=3):
    params = init_params(seed, ARCH, mod_scale=0.5)
    feats = fourier_features(params, GRID.flat_coords())
    rng = np.random.default_rng(seed + 100)
    targets = rng.uniform(-1, 1, (count, len(GRID), 2)).astype(np.float32)
    return params, feats, targets


def test_zero_steps_returns_zero_codewords_without_evaluating():
    params, feats, targets = make_batch(0)
    cw = inner_adapt_batch(params, feats, targets, 0, 1e-2)
    assert cw.shape == (3, ARCH.codeword_dim)
    assert np.all(cw == 0.0)
    # a feature matrix of the wrong shape would blow up on any forward pass
    bogus = np.zeros((1, 1), np.float32)
    assert np.all(inner_adapt_batch(params, bogus, targets, 0, 1e-2) == 0.0)


def test_one_step_is_a_plain_gradient_step_from_zero():
    params, feats, targets = make_batch(1)
    lr = 2e-2
    cw = inner_adapt_batch(params, feats, targets, 1, lr)
    zero = np.zeros((3, ARCH.codeword_dim), params.fourier.dtype)
    _, tape = forward_batch(params, zero, feats=feats)
    _, grad_cw, _ = backward_batch(tape, params, targets, need_params=False)
    np.testing.assert_array_equal(cw, zero - lr * grad_cw)


def test_more_steps_reduce_the_fit_error():
    params, feats, targets = make_batch(2)

    def mean_loss(steps):
        cw = inner_adapt_batch(params, feats, targets, steps, 1e-2)
        out, tape = forward_batch(params, cw, feats=feats)
        per_sample, _, _ = backward_batch(tape, params, targets,
                                          need_params=False)
        return float(per_sample.mean())

    assert mean_loss(3) < mean_loss(0)


def test_inner_adapt_never_mutates_params():
    params, feats, targets = make_batch(4)
    before = params.vector.copy()
    inner_adapt_batch(params, feats, targets, 3, 1e-2)
    np.testing.assert_array_equal(params.vector, before)


def test_inner_adapt_reuses_a_fitting_tape_and_leaves_others_alone():
    params, feats, targets = make_batch(7, count=3)
    zero = np.zeros((3, ARCH.codeword_dim), params.fourier.dtype)
    _, tape = forward_batch(params, zero, feats=feats)
    post0 = tape.post[0]
    for seed in (7, 8):
        _, _, t = make_batch(seed, count=3)
        fresh = inner_adapt_batch(params, feats, t, 3, 1e-2)
        reused = inner_adapt_batch(params, feats, t, 3, 1e-2, tape=tape)
        np.testing.assert_array_equal(reused, fresh)
    assert tape.post[0] is post0
    assert tape.codewords.shape == (3, ARCH.codeword_dim) and np.any(tape.codewords)

    _, other = forward_batch(params, zero[:2], feats=feats)
    kept = [a.copy() for a in other.post]
    np.testing.assert_array_equal(
        inner_adapt_batch(params, feats, targets, 3, 1e-2, tape=other),
        inner_adapt_batch(params, feats, targets, 3, 1e-2))
    for before, after in zip(kept, other.post):
        np.testing.assert_array_equal(after, before)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_a_precomputed_first_step_agrees_with_the_plain_one(steps):
    params, feats, targets = make_batch(9, count=5)
    params = params.cast(np.float64)
    feats = fourier_features(params, GRID.flat_coords())
    plain = inner_adapt_batch(params, feats, targets, steps, 1e-2)
    closed = inner_adapt_batch(params, feats, targets, steps, 1e-2,
                               at_zero=zero_start(params, feats))
    np.testing.assert_allclose(closed, plain, rtol=0,
                               atol=1e-13 * np.abs(plain).max())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_precomputed_first_step_fails_with_the_plain_steps_messages():
    params, feats, targets = make_batch(10)
    at_zero = zero_start(params, feats)
    nan_target = targets.copy()
    nan_target[1, 2, 0] = np.nan
    for lr, t, message in ((1e40, targets, "inner step 1: non-finite codeword"),
                           (1e-2, nan_target,
                            "inner step 1: non-finite loss or gradient")):
        for start in (None, at_zero):
            with pytest.raises(TrainingDiverged, match=message):
                inner_adapt_batch(params, feats, t, 3, lr, at_zero=start)


def test_outer_step_with_zero_rate_changes_nothing():
    params, feats, targets = make_batch(5)
    cw = inner_adapt_batch(params, feats, targets, 2, 1e-2)
    adam = AdamState.for_params(params)
    new, loss = outer_step(params, adam, feats, targets, cw, lr=0.0)
    assert loss > 0.0
    assert adam.step == 1
    np.testing.assert_array_equal(new.vector, params.vector)


def test_first_adam_step_moves_each_weight_by_about_lr():
    params, feats, targets = make_batch(6)
    cw = inner_adapt_batch(params, feats, targets, 2, 1e-2)
    adam = AdamState.for_params(params)
    lr = 1e-3
    new, _ = outer_step(params, adam, feats, targets, cw, lr=lr)

    _, tape = forward_batch(params, cw, feats=feats)
    _, _, grad = backward_batch(tape, params, targets, need_params=True)
    grads, old = ARCH.split(grad), params.blocks
    for name, block in new.blocks.items():
        delta = np.abs(block.astype(np.float64) - old[name].astype(np.float64))
        # weights live in float32, so the applied step rounds at ~1e-7
        assert delta.max() <= lr * (1.0 + 1e-3), name
        busy = np.abs(grads[name]) > 1e-4
        if busy.any():
            assert delta[busy].min() >= 0.99 * lr, name


def test_outer_step_never_mutates_inputs():
    params, feats, targets = make_batch(7)
    cw = inner_adapt_batch(params, feats, targets, 2, 1e-2)
    cw_before = cw.copy()
    before = params.vector.copy()
    adam = AdamState.for_params(params)
    outer_step(params, adam, feats, targets, cw, lr=1e-3)
    np.testing.assert_array_equal(cw, cw_before)
    np.testing.assert_array_equal(params.vector, before)


def test_outer_step_names_the_first_block_with_a_non_finite_gradient(monkeypatch):
    params, feats, targets = make_batch(8)
    cw = inner_adapt_batch(params, feats, targets, 2, 1e-2)
    real = training.backward_batch

    def poisoned(tape, params, targets, need_params):
        per_sample, grad_cw, grad = real(tape, params, targets, need_params)
        if need_params:
            grads = ARCH.split(grad)
            grads["shift_w2"][0, 0] = np.nan
            grads["out_b"][1] = np.inf
        return per_sample, grad_cw, grad

    monkeypatch.setattr(training, "backward_batch", poisoned)
    adam = AdamState.for_params(params)
    with pytest.raises(TrainingDiverged,
                       match=r"^outer step: non-finite gradient in shift_w2$"):
        outer_step(params, adam, feats, targets, cw, lr=1e-3)
    assert adam.step == 0 and not np.any(adam.moment1)

    train_ds, val_ds = tiny_splits()
    with pytest.raises(TrainingDiverged, match=r"epoch 1, outer step 1: "
                       r"outer step: non-finite gradient in shift_w2"):
        train(train_ds, val_ds, ARCH, TrainConfig(max_epochs=1, batch_size=4,
                                                  seed=5, mod_scale=0.5))


def reference_outer_step(params, moments, feats, targets, codewords, lr):
    """Per-block Adam on fresh arrays, the reference for the flat update.
    `moments` maps block name -> [m, v] and is updated in place."""
    _, tape = forward_batch(params, codewords, feats=feats)
    per_sample, _, grad = backward_batch(tape, params, targets, need_params=True)
    grads = params.arch.split(grad)
    moments["step"] = step = moments.get("step", 0) + 1
    bc1, bc2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
    new = {}
    for name, w in params.blocks.items():
        g = grads[name]
        m, v = moments.setdefault(name, [np.zeros_like(w), np.zeros_like(w)])
        m = moments[name][0] = m * 0.9 + (1.0 - 0.9) * g
        v = moments[name][1] = v * 0.999 + (1.0 - 0.999) * (g * g)
        new[name] = w - lr * ((m / bc1) / (np.sqrt(v / bc2) + 1e-8))
    return params.with_blocks(new), float(per_sample.mean())


def reference_train_steps(train_ds, arch, cfg):
    """train()'s epoch loop without validation: the params after each epoch
    (index 0 the untrained model) and every step's loss."""
    params = replace(init_params(cfg.seed, arch, cfg.mod_scale),
                     norm_scale=train_ds.norm_scale)
    grid = CoordinateGrid(train_ds.num_antennas, train_ds.num_subcarriers)
    feats = fourier_features(params, grid.flat_coords())
    planes = train_ds.planes.reshape(len(train_ds), len(grid), 2)
    moments, after_epoch, losses = {}, [params], []
    for epoch in range(1, cfg.max_epochs + 1):
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, epoch])).permutation(len(planes))
        for start in range(0, len(planes), cfg.batch_size):
            batch = planes[order[start:start + cfg.batch_size]]
            cw = inner_adapt_batch(params, feats, batch, cfg.inner_steps, cfg.inner_lr)
            params, loss = reference_outer_step(params, moments, feats, batch, cw,
                                                cfg.outer_lr)
            losses.append(loss)
        after_epoch.append(params)
    return after_epoch, losses


@pytest.mark.parametrize("batch_size", [1, 3])
def test_training_matches_a_per_block_reference_adam(batch_size):
    train_ds, val_ds = tiny_splits()      # 8 samples: at batch size 3, ragged
    cfg = TrainConfig(max_epochs=3, batch_size=batch_size, outer_lr=1e-3,
                      seed=5, mod_scale=0.5, patience=8)
    params, log = train(train_ds, val_ds, ARCH, cfg)
    after_epoch, losses = reference_train_steps(train_ds, ARCH, cfg)
    assert [loss for _, loss in log.steps] == losses
    expected = after_epoch[log.best_epoch]
    assert log.best_epoch > 0
    for name, block in params.blocks.items():
        np.testing.assert_array_equal(block, expected.blocks[name], err_msg=name)
    # every block is a view into one flat vector, never written in place
    for block in params.blocks.values():
        assert np.shares_memory(block, params.vector)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_steps_keep_the_callers_blas_threads(monkeypatch, tile_threads):
    # validation pins BLAS inside map_tiles; the steps run at the caller's
    # count, and train() leaves it as it found it, also when it diverges
    prior = tile_threads.get()
    seen = []
    real = training.outer_step

    def spy(*args, **kwargs):
        seen.append(tile_threads.get())
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "outer_step", spy)
    train_ds, val_ds = tiny_splits()
    try:
        tile_threads.set(2)
        train(train_ds, val_ds, ARCH, TrainConfig(max_epochs=1, batch_size=4,
                                                  seed=5, mod_scale=0.5))
        assert seen == [2, 2]
        assert tile_threads.get() == 2
        train_ds.planes[:, 0, 0, 0] = np.inf
        with pytest.raises(TrainingDiverged):
            train(train_ds, val_ds, ARCH, TrainConfig(max_epochs=1, batch_size=4,
                                                      seed=5, mod_scale=0.5))
        assert tile_threads.get() == 2
    finally:
        tile_threads.set(prior)


def tiny_splits():
    cfg = half_wavelength_config(num_antennas=4, num_subcarriers=4,
                                 num_paths=2)
    ds = generate_dataset(12, 3, cfg)
    return ds.slice(0, 8), ds.slice(8, 12)


@pytest.mark.parametrize("workers", [1, 4])
def test_validation_is_the_codecs_unquantized_round_trip(monkeypatch, tile_threads,
                                                        workers):
    # epoch 0's entry is evaluate_model on the untrained params with the
    # training split's norm_scale; a validation set from another dataset,
    # with its own norm_scale, enters as physical matrices in 3 tiles
    monkeypatch.setattr(util, "_cpu_count", lambda: workers)
    train_ds, _ = tiny_splits()
    val_ds = generate_dataset(21, 11, half_wavelength_config(
        num_antennas=4, num_subcarriers=4, num_paths=2))
    assert val_ds.norm_scale != train_ds.norm_scale
    for batch_size in (1, 4):
        cfg = TrainConfig(max_epochs=1, inner_steps=2, batch_size=batch_size,
                          seed=5, mod_scale=0.5)
        _, log = train(train_ds, val_ds, ARCH, cfg)
        params = replace(init_params(cfg.seed, ARCH, cfg.mod_scale),
                         norm_scale=train_ds.norm_scale)
        report = evaluate_model(params, val_ds.matrices(denormalise=True),
                                cfg.inner_steps, None, cfg.inner_lr)
        assert log.epochs[0] == (0, report.nmse_db)


def test_zero_epochs_returns_the_untrained_model():
    train_ds, val_ds = tiny_splits()
    cfg = TrainConfig(max_epochs=0, batch_size=4, seed=9, mod_scale=0.5)
    params, log = train(train_ds, val_ds, ARCH, cfg)
    init = init_params(9, ARCH, mod_scale=0.5)
    np.testing.assert_array_equal(params.vector, init.vector)
    assert params.norm_scale == train_ds.norm_scale
    assert log.steps == [] and log.epochs == []


def test_training_is_deterministic():
    train_ds, val_ds = tiny_splits()
    cfg = TrainConfig(max_epochs=2, batch_size=4, outer_lr=1e-3, seed=5,
                      mod_scale=0.5)
    p1, log1 = train(train_ds, val_ds, ARCH, cfg)
    p2, log2 = train(train_ds, val_ds, ARCH, cfg)
    np.testing.assert_array_equal(p1.vector, p2.vector)
    assert log1.steps == log2.steps
    assert log1.epochs == log2.epochs
    assert log1.best_epoch == log2.best_epoch
    # epoch 0 on the untrained model, then one entry per epoch
    assert [e for e, _ in log1.epochs] == [0, 1, 2]
    assert len(log1.steps) == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error_names_epoch_and_step():
    train_ds, val_ds = tiny_splits()
    train_ds.planes[:, 0, 0, 0] = np.inf
    cfg = TrainConfig(max_epochs=1, batch_size=4, seed=5, mod_scale=0.5)
    with pytest.raises(TrainingDiverged, match=r"epoch 1, outer step 1"):
        train(train_ds, val_ds, ARCH, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_inner_rate_diverges_at_the_first_validation():
    train_ds, val_ds = tiny_splits()
    cfg = TrainConfig(max_epochs=1, batch_size=4, inner_steps=1,
                      inner_lr=1e40, seed=5, mod_scale=0.5)
    # one inner step: the overflow happens in the final update
    with pytest.raises(TrainingDiverged,
                       match=r"epoch 0, validation: inner step 1: non-finite codeword"):
        train(train_ds, val_ds, ARCH, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_validation_nmse_names_the_epoch():
    train_ds, val_ds = tiny_splits()
    val_ds.planes[:, 0, 0, 0] = np.inf
    cfg = TrainConfig(max_epochs=3, batch_size=4, inner_steps=0, seed=5,
                      mod_scale=0.5)
    with pytest.raises(TrainingDiverged, match=r"epoch 0: validation NMSE"):
        train(train_ds, val_ds, ARCH, cfg)


def test_mismatched_grids_are_rejected():
    train_ds, _ = tiny_splits()
    other = generate_dataset(4, 1, half_wavelength_config(
        num_antennas=8, num_subcarriers=4, num_paths=2))
    with pytest.raises(ValueError):
        train(train_ds, other, ARCH, TrainConfig(max_epochs=1, batch_size=4))


def test_an_empty_validation_split_is_rejected():
    train_ds, val_ds = tiny_splits()
    with pytest.raises(ValueError, match="validation split is empty"):
        train(train_ds, val_ds.slice(0, 0), ARCH, TrainConfig(max_epochs=1, batch_size=4))


def test_an_empty_training_split_is_rejected():
    train_ds, val_ds = tiny_splits()
    with pytest.raises(ValueError, match="training split is empty"):
        train(train_ds.slice(0, 0), val_ds, ARCH, TrainConfig(max_epochs=1, batch_size=4))


def test_log_csv_round_trip(tmp_path):
    log = TrainLog(steps=[(1, 0.52), (2, 0.1875)],
                   epochs=[(0, -0.125), (1, -2.5)],
                   wall_seconds=3.5, best_epoch=1)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    back = read_train_log(path)
    assert back.steps == log.steps
    assert back.epochs == log.epochs
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("loss,step\n")
        read_train_log(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(inner_steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(inner_lr=0.0)
    for bad in (math.nan, math.inf):
        for field in ("inner_lr", "outer_lr"):
            with pytest.raises(ValueError, match="learning rates"):
                TrainConfig(**{field: bad})
    for bad in (math.nan, math.inf, -math.inf, 0.0, -0.5):
        with pytest.raises(ValueError, match="mod_scale"):
            TrainConfig(mod_scale=bad)
