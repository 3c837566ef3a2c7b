"""Inner-loop adaptation, Adam outer updates, and the training driver."""

import numpy as np
import pytest

from csicodec.channel import half_wavelength_config
from csicodec.dataset import generate_dataset
from csicodec.model import ArchConfig, CoordinateGrid, init_params
from csicodec.siren import backward_batch, forward_batch, fourier_features
from csicodec.training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    TrainLog,
    inner_adapt_batch,
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
    before = {k: v.copy() for k, v in params.trainable_blocks().items()}
    inner_adapt_batch(params, feats, targets, 3, 1e-2)
    for name, block in params.trainable_blocks().items():
        np.testing.assert_array_equal(block, before[name])


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


def test_outer_step_with_zero_rate_changes_nothing():
    params, feats, targets = make_batch(5)
    cw = inner_adapt_batch(params, feats, targets, 2, 1e-2)
    adam = AdamState.for_params(params)
    new, loss = outer_step(params, adam, feats, targets, cw, lr=0.0)
    assert loss > 0.0
    assert adam.step == 1
    for name, block in new.trainable_blocks().items():
        np.testing.assert_array_equal(block, params.trainable_blocks()[name])


def test_first_adam_step_moves_each_weight_by_about_lr():
    params, feats, targets = make_batch(6)
    cw = inner_adapt_batch(params, feats, targets, 2, 1e-2)
    adam = AdamState.for_params(params)
    lr = 1e-3
    new, _ = outer_step(params, adam, feats, targets, cw, lr=lr)

    _, tape = forward_batch(params, cw, feats=feats)
    _, _, grads = backward_batch(tape, params, targets, need_params=True)
    old = params.trainable_blocks()
    for name, block in new.trainable_blocks().items():
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
    before = {k: v.copy() for k, v in params.trainable_blocks().items()}
    adam = AdamState.for_params(params)
    outer_step(params, adam, feats, targets, cw, lr=1e-3)
    np.testing.assert_array_equal(cw, cw_before)
    for name, block in params.trainable_blocks().items():
        np.testing.assert_array_equal(block, before[name])


def tiny_splits():
    cfg = half_wavelength_config(num_antennas=4, num_subcarriers=4,
                                 num_paths=2)
    ds = generate_dataset(12, 3, cfg)
    return ds.slice(0, 8), ds.slice(8, 12)


def test_zero_epochs_returns_the_untrained_model():
    train_ds, val_ds = tiny_splits()
    cfg = TrainConfig(max_epochs=0, batch_size=4, seed=9, mod_scale=0.5)
    params, log = train(train_ds, val_ds, ARCH, cfg)
    init = init_params(9, ARCH, mod_scale=0.5)
    for name, block in params.trainable_blocks().items():
        np.testing.assert_array_equal(block, init.trainable_blocks()[name])
    assert params.norm_scale == train_ds.norm_scale
    assert log.steps == [] and log.epochs == []


def test_training_is_deterministic():
    train_ds, val_ds = tiny_splits()
    cfg = TrainConfig(max_epochs=2, batch_size=4, outer_lr=1e-3, seed=5,
                      mod_scale=0.5)
    p1, log1 = train(train_ds, val_ds, ARCH, cfg)
    p2, log2 = train(train_ds, val_ds, ARCH, cfg)
    for name, block in p1.trainable_blocks().items():
        np.testing.assert_array_equal(block, p2.trainable_blocks()[name])
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
