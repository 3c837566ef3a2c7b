"""Meta-training: batched inner-loop codeword descent, batched outer-loop
base-network updates, validation-driven early stopping.

The inner loop is the codec's (codec.inner_adapt_batch): a few plain
gradient steps on each codeword from zero with the base network frozen.
The training steps keep the plain first step, since their params change on
every step. The outer loop holds the adapted codewords fixed (first order,
no differentiation through the inner trajectory) and applies one Adam
update to the base network from the sum of per-sample gradients, so inner
and outer updates never touch each other's variables. Validation is the
codec's own number: evaluate_model's unquantized round trip over the
validation split, with the codec's tiles and closed-form first step.

Everything is deterministic given the seed: initialization, epoch shuffles,
and Adam state evolve from fixed streams with no hidden global RNG.

At batch size 1 a step costs as much in calls as in arithmetic, so Adam
works on the params' flat vector, with the gradient in the same layout, and
one tape serves every step of a run. Parameters are never written in place:
each outer step returns new params around a new vector.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import TrainingDiverged, inner_adapt_batch
from .dataset import Dataset
from .evaluate import evaluate_model
from .model import DEFAULT_MOD_SCALE, ArchConfig, CoordinateGrid, ModelParams, init_params
from .siren import ActivationTape, backward_batch, forward_batch, fourier_features


@dataclass(frozen=True)
class TrainConfig:
    inner_steps: int = 3
    inner_lr: float = 1e-2
    outer_lr: float = 1e-6
    batch_size: int = 64
    max_epochs: int = 50
    patience: int = 8
    seed: int = 0
    mod_scale: float = DEFAULT_MOD_SCALE  # init scale of the codeword-to-modulation maps

    def __post_init__(self):
        if self.inner_steps < 0:
            raise ValueError("inner_steps must be >= 0")
        if not (0 < self.inner_lr < math.inf and 0 <= self.outer_lr < math.inf):
            raise ValueError("learning rates must be finite and positive (outer may be 0)")
        if not 0 < self.mod_scale < math.inf:
            raise ValueError("mod_scale must be finite and positive")
        if self.batch_size < 1 or self.max_epochs < 0 or self.patience < 1:
            raise ValueError("batch_size, patience must be >= 1; max_epochs >= 0")


@dataclass
class AdamState:
    """First/second moment accumulators in the flat layout of the trainable
    blocks (ModelParams.vector), and two scratch vectors of the same length
    that each update works in."""

    moment1: np.ndarray
    moment2: np.ndarray
    scratch: tuple
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        flat = params.vector
        return cls(moment1=np.zeros_like(flat), moment2=np.zeros_like(flat),
                   scratch=(np.empty_like(flat), np.empty_like(flat)))


@dataclass
class TrainLog:
    """Per-outer-step losses and per-epoch validation NMSE.

    Epoch 0 is the untrained model, recorded before the first update so runs
    can report improvement against their own starting point. wall_seconds is
    kept in memory only and never written to CSV.
    """

    steps: list = field(default_factory=list)    # (step, loss)
    epochs: list = field(default_factory=list)   # (epoch, val_nmse_db)
    wall_seconds: float = 0.0
    best_epoch: int = 0

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("step,loss,epoch,val_nmse_db\n")
            for step, loss in self.steps:
                fh.write(f"{step},{loss!r},,\n")
            for epoch, val in self.epochs:
                fh.write(f",,{epoch},{val!r}\n")


def read_train_log(path) -> TrainLog:
    log = TrainLog()
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "step,loss,epoch,val_nmse_db":
            raise ValueError(f"{path}: unexpected train log header")
        for line in fh:
            step, loss, epoch, val = line.rstrip("\n").split(",")
            if step:
                log.steps.append((int(step), float(loss)))
            else:
                log.epochs.append((int(epoch), float(val)))
    return log


def outer_step(params: ModelParams, adam: AdamState, feats: np.ndarray,
               targets: np.ndarray, codewords: np.ndarray, lr: float,
               tape: ActivationTape | None = None):
    """One Adam update of the base network with codewords held fixed.

    The gradient is the sum over the batch of per-sample loss gradients.
    Mutates `adam` in place, returns (new_params, batch_mean_loss); the input
    params are never modified, and the new params hold a new vector. A tape
    that fits the batch is overwritten, as in forward_batch.
    """
    _, tape = forward_batch(params, codewords, feats=feats, tape=tape)
    per_sample, _, g = backward_batch(tape, params, targets, need_params=True)
    loss = float(per_sample.mean())
    if not np.isfinite(g).all():
        name = next(k for k, b in params.arch.split(g).items() if not np.isfinite(b).all())
        raise TrainingDiverged(f"outer step: non-finite gradient in {name}")

    # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g^2; w - lr*((m/bc1)/(sqrt(v/bc2)+eps)),
    # worked in the scratch vectors in exactly this operation order, which
    # gives the bits of the same formula on fresh arrays
    adam.step += 1
    bc1 = 1.0 - adam.beta1 ** adam.step
    bc2 = 1.0 - adam.beta2 ** adam.step
    m, v = adam.moment1, adam.moment2
    step, denom = adam.scratch
    m *= adam.beta1
    m += np.multiply(g, 1.0 - adam.beta1, out=step)
    v *= adam.beta2
    v += np.multiply(np.multiply(g, g, out=step), 1.0 - adam.beta2, out=step)
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += adam.eps
    np.divide(m, bc1, out=step)
    step /= denom
    step *= lr
    return replace(params, vector=params.vector - step), loss


def _validate(params: ModelParams, matrices: np.ndarray, cfg: TrainConfig,
              epoch: int) -> float:
    """Validation NMSE in dB: the codec's unquantized round trip over the
    physical validation matrices. Raises TrainingDiverged naming the epoch
    when the inner loop diverges or the result is not finite."""
    try:
        val = evaluate_model(params, matrices, cfg.inner_steps, None,
                             cfg.inner_lr).nmse_db
    except TrainingDiverged as err:
        raise TrainingDiverged(f"epoch {epoch}, validation: {err}") from err
    if not np.isfinite(val):
        raise TrainingDiverged(f"epoch {epoch}: validation NMSE is not finite")
    return val


def train(train_ds: Dataset, val_ds: Dataset, arch: ArchConfig,
          cfg: TrainConfig):
    """Meta-train on the train split, select by validation NMSE.

    The two splits must be disjoint (the caller guarantees it; split_dataset
    produces such splits). Validation runs every epoch with the training
    inner-step count, plus once at epoch 0 on the untrained model. Returns
    (best ModelParams, TrainLog); the best checkpoint is the one with the
    lowest recorded validation NMSE, never a later one. Raises
    TrainingDiverged naming the epoch and step if anything goes non-finite.
    """
    if (train_ds.num_antennas, train_ds.num_subcarriers) != \
            (val_ds.num_antennas, val_ds.num_subcarriers):
        raise ValueError("train and validation grids differ")
    if len(train_ds) == 0:
        raise ValueError("the training split is empty")
    if len(val_ds) == 0:
        raise ValueError("the validation split is empty")
    started = time.perf_counter()
    params = replace(init_params(cfg.seed, arch, cfg.mod_scale),
                     norm_scale=train_ds.norm_scale)
    log = TrainLog()
    if cfg.max_epochs == 0:
        return params, log

    grid = CoordinateGrid(train_ds.num_antennas, train_ds.num_subcarriers)
    feats = fourier_features(params, grid.flat_coords())
    count = len(train_ds)
    train_planes = train_ds.planes.reshape(count, len(grid), 2)
    val_matrices = val_ds.matrices(denormalise=True)

    tapes = {}    # batch size -> the tape all its steps share
    adam = AdamState.for_params(params)
    val0 = _validate(params, val_matrices, cfg, 0)
    log.epochs.append((0, val0))
    best_val, best_params, best_epoch = val0, params, 0
    since_best = 0
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, epoch])).permutation(count)
        for start in range(0, count, cfg.batch_size):
            batch = train_planes[order[start:start + cfg.batch_size]]
            tape = tapes.get(len(batch))
            if tape is None:    # a ragged last batch gets its own
                tape = tapes[len(batch)] = ActivationTape.empty(
                    len(batch), len(grid), arch.hidden_dim, arch.num_layers,
                    params.fourier.dtype)
            try:
                cw = inner_adapt_batch(params, feats, batch, cfg.inner_steps,
                                       cfg.inner_lr, tape=tape)
                params, loss = outer_step(params, adam, feats, batch, cw,
                                          cfg.outer_lr, tape=tape)
            except TrainingDiverged as err:
                raise TrainingDiverged(
                    f"epoch {epoch}, outer step {step + 1}: {err}") from err
            step += 1
            log.steps.append((step, loss))
        val = _validate(params, val_matrices, cfg, epoch)
        log.epochs.append((epoch, val))
        if val < best_val:
            best_val, best_params, best_epoch = val, params, epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    log.best_epoch = best_epoch
    log.wall_seconds = time.perf_counter() - started
    return best_params, log
