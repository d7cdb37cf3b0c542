"""Training loop: cosine-annealed Adam, early stopping, CSV logs.

The learning rate follows cosine annealing with warm restarts,

    lr(t) = eta_min + 0.5 * (eta0 - eta_min) * (1 + cos(pi * (t mod T) / T)),

with T in optimizer steps. Validation mean recall drives early stopping
(strict improvement, minimum patience 1) and the returned model always
carries the best-mR epoch's weights, never the last ones.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import AdamState, Tape, adam_step
from .evaluation import evaluate

__all__ = [
    "LrSchedule", "lr_at", "EpochStats", "FitResult",
    "train_epoch", "fit",
    "write_train_log", "write_lr_curve",
]


@dataclass
class LrSchedule:
    """Cosine annealing with warm restarts; period is in optimizer steps."""

    eta0: float
    eta_min: float
    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not 0.0 <= self.eta_min <= self.eta0 < math.inf:
            raise ValueError(f"need 0 <= eta_min <= eta0 < inf, got "
                             f"eta_min={self.eta_min}, eta0={self.eta0}")


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Learning rate at optimizer step t (t = 0 is the first step)."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    phase = (step % schedule.period) / schedule.period
    return schedule.eta_min + 0.5 * (schedule.eta0 - schedule.eta_min) * (
        1.0 + math.cos(math.pi * phase))


@dataclass
class EpochStats:
    """Per-epoch averages of the loss terms and effective weights."""

    epoch: int
    l_instance: float
    l_consensus: float
    l_fusion: float
    l_kl: float
    lambdas: tuple[float, float, float, float]
    total: float
    lr: float
    val_mr: float = float("nan")


@dataclass
class FitResult:
    history: list[EpochStats]
    best_epoch: int
    best_mr: float


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        if len(chunk) >= 2:  # the ranking losses need negatives
            yield chunk


def _train_step(model, params, batch, adam: AdamState, lr: float):
    """Forward, backward and Adam on one batch; returns the four loss terms
    and the total, and the effective weights, as floats.

    A function of its own so that the step's tape, gradients and every
    array they hold are released on return, before the next forward pass.
    """
    with Tape() as tape:
        terms = model.loss_terms(batch)
    values = (*terms.values(), terms.total.item())
    adam_step(params, tape.backward(terms.total), adam, lr)
    return values, terms.effective_weights


def train_epoch(model, pairs, adam: AdamState, schedule: LrSchedule,
                rng: np.random.Generator, epoch: int) -> EpochStats:
    """One seeded-shuffle pass over the training pairs."""
    cfg = model.config
    params = model.named_parameters()
    order = rng.permutation(len(pairs))
    sums = np.zeros(5)
    lam_sums = np.zeros(4)
    n_batches = 0
    lr = lr_at(schedule, adam.step)
    for batch_idx in _batches(order, cfg.batch_size):
        lr = lr_at(schedule, adam.step)
        values, lambdas = _train_step(model, params, [pairs[i] for i in batch_idx],
                                      adam, lr)
        sums += np.array(values)
        lam_sums += np.array(lambdas)
        n_batches += 1
    if n_batches == 0:
        raise ValueError("training set yields no batch of size >= 2")
    sums /= n_batches
    lam_sums /= n_batches
    return EpochStats(epoch, float(sums[0]), float(sums[1]), float(sums[2]),
                      float(sums[3]), tuple(float(l) for l in lam_sums),
                      float(sums[4]), lr)


def fit(model, train_dataset, val_dataset, eval_fn=None) -> FitResult:
    """Train with early stopping on validation mR.

    ``eval_fn(model) -> float`` defaults to mean recall on the validation
    split at the configured retrieval level. The model ends up holding the
    weights of the best validation epoch.
    """
    cfg = model.config
    if cfg.patience < 1:
        raise ValueError(f"patience must be >= 1, got {cfg.patience}")
    pairs = train_dataset.pairs
    if len(pairs) < 2:
        raise ValueError("training split has fewer than 2 pairs")
    if eval_fn is None:
        if val_dataset is None or not val_dataset.pairs:
            raise ValueError("validation split is empty")
        def eval_fn(m):
            return evaluate(m, val_dataset).mr

    # the period counts the steps train_epoch actually takes
    steps_per_epoch = sum(1 for _ in _batches(np.arange(len(pairs)), cfg.batch_size))
    schedule = LrSchedule(cfg.eta0, cfg.eta_min,
                          steps_per_epoch * cfg.period_epochs)
    adam = AdamState()
    rng = np.random.default_rng(cfg.seed)
    params = model.named_parameters()

    history: list[EpochStats] = []
    best_mr = -math.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] = {}
    since_improved = 0
    for epoch in range(1, cfg.epochs + 1):
        stats = train_epoch(model, pairs, adam, schedule, rng, epoch)
        stats.val_mr = float(eval_fn(model))
        history.append(stats)
        if stats.val_mr > best_mr:
            best_mr = stats.val_mr
            best_epoch = epoch
            best_state = {name: p.data.copy() for name, p in params.items()}
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= cfg.patience:
                break
    if best_epoch < 0:
        raise ValueError("validation score was not finite in any epoch")
    for name, p in params.items():
        p.data[...] = best_state[name]
    return FitResult(history, best_epoch, best_mr)


# ---------------------------------------------------------------------------
# CSV artifacts

def write_train_log(path, history: list[EpochStats]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "l_instance", "l_consensus", "l_fusion", "l_kl",
                         "lam1", "lam2", "lam3", "lam4", "total", "lr", "val_mr"])
        for s in history:
            writer.writerow([s.epoch, repr(s.l_instance), repr(s.l_consensus),
                             repr(s.l_fusion), repr(s.l_kl),
                             *(repr(l) for l in s.lambdas),
                             repr(s.total), repr(s.lr), repr(s.val_mr)])


def write_lr_curve(path, schedule: LrSchedule, steps: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr"])
        for t in range(steps):
            writer.writerow([t, repr(lr_at(schedule, t))])
