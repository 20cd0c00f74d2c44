"""Deterministic gradient descent and mini-batch SGD over (h, a, b).

The joint robust criterion updates all of (h, a, b) with the scale projected
back to ``B_FLOOR`` after every step (the objective's gradient is not
Lipschitz near b = 0).  CVaR and the divergence-ball dual update (h, a);
the plain mean updates h alone.  A single shared step size is used for all
blocks, so comparisons across criteria stay fair.

Shuffling uses numpy's PCG64 generator (``RNG_ALGORITHM``, which the
sweep's manifest records), so trajectories can be reproduced bit-for-bit.

One entry point (``train``) trains any number of runs whose configs agree
on all but the step size: they see the same batches, so their weights are
stacked as one (R, K, d) array and each step is one array program over all
of them.  A run that diverges keeps its row to the end, flagged in one (R,)
mask that the guard and the metrics pass over.  The shared config picks
the schedule, full-batch GD when it sets ``iterations`` and mini-batch SGD
otherwise, which binds each batch for scoring once.  ``run_batch_gd``
trains one GD run.  A lone run (R = 1) keeps (K, d) weights and float a,
b and step size, which the kernels take as they are: its time is mostly
per-step overhead, and as (1,) arrays a planar step costs ~90% more (~41
against ~77 us for the joint criterion).  Per-run results are bitwise
those of training each run alone.
"""

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .criteria import CriterionParams, CriterionStack, JointState, mean_sd
from .data import Dataset
from .model import (
    LinearModel,
    bind_batch,
    classes_from_scores,
    design_rows,
    loss_batch,
    losses_from_scores,
    score_rows,
)

__all__ = [
    "B_FLOOR",
    "METRIC_FIELDS",
    "DivergenceError",
    "OptConfig",
    "TrajectoryRecord",
    "RunResult",
    "StackedRuns",
    "train",
    "run_batch_gd",
]

RNG_ALGORITHM = "pcg64"
B_FLOOR = 1e-8  # the scale b is projected back onto [B_FLOOR, inf) after every step
H_NORM_LIMIT = 1e12
CHECKPOINT_CHUNK = 8192  # losses scored at once per checkpoint chunk (64 KiB)


class DivergenceError(RuntimeError):
    """A run produced a non-finite objective or runaway weights."""


def check_step_size(step: float) -> None:
    """Raise ValueError naming ``step`` unless it is finite and positive."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step size must be finite and positive, got {step!r}")


def check_batch_size(batch_size: int, n_train: int, prefix: str = "") -> None:
    """Raise ValueError, its text after ``prefix``, unless a batch fits in the train split."""
    if batch_size > n_train:
        raise ValueError(f"{prefix}batch_size {batch_size} exceeds train size {n_train}")


@dataclass
class OptConfig:
    """Optimizer settings: batch mode (iterations) xor SGD mode (epochs+batch_size)."""

    step_size: float
    iterations: Optional[int] = None
    epochs: Optional[int] = None
    batch_size: Optional[int] = None
    seed: int = 0
    checkpoint_every: int = 100

    def __post_init__(self):
        check_step_size(self.step_size)
        batch_mode = self.iterations is not None
        sgd_mode = self.epochs is not None or self.batch_size is not None
        if batch_mode == sgd_mode:
            raise ValueError(
                "set either iterations (batch mode) or epochs+batch_size (sgd mode)"
            )
        if batch_mode:
            if self.iterations < 0:
                raise ValueError("iterations must be nonnegative")
        else:
            if self.epochs is None or self.batch_size is None:
                raise ValueError("sgd mode needs both epochs and batch_size")
            if self.epochs < 0 or self.batch_size < 1:
                raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")


# TrajectoryRecord fields after (checkpoint, split), in order
METRIC_FIELDS = ("mean_sd", "mean_loss", "error_rate", "model_norm", "objective", "a", "b")
_COLUMN = {name: k for k, name in enumerate(METRIC_FIELDS)}


@dataclass
class TrajectoryRecord:
    """Metrics of one (checkpoint, split) cell; mean_sd is the losses' mean plus their SD."""

    checkpoint: int
    split: str
    mean_sd: float
    mean_loss: float
    error_rate: float
    model_norm: float
    objective: float
    a: float
    b: float


@dataclass
class RunResult:
    final_state: JointState
    trajectory: List[TrajectoryRecord]


def _norms(H: np.ndarray) -> np.ndarray:
    """Euclidean norm of each run's weights in an (R, K, d) stack."""
    flat = H.reshape(H.shape[0], H.shape[1] * H.shape[2])
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def _diverged_rows(value, H, norms, where: str, *args, gone=False) -> Dict[int, str]:
    """The divergence guard: the message of every stacked run that trips it.

    A run trips on a non-finite objective or a weight norm above the limit
    (the norm is finite only when every weight is); a run flagged in the
    boolean mask ``gone`` has diverged already and is passed over.  ``where``
    is formatted with ``args`` only when a row is not ok.
    """
    ok = (norms <= H_NORM_LIMIT) & np.isfinite(value)
    if ok.all():
        return {}
    context = where.format(*args)
    return {
        int(i): f"non-finite objective at {context}"
        if not np.isfinite(value[i]) or not np.all(np.isfinite(H[i]))
        else f"weight norm exceeded {H_NORM_LIMIT:g} at {context}"
        for i in np.flatnonzero(~(ok | gone))
    }


def _checkpoint_records(
    checkpoint: int, splits, stack: CriterionStack, H, a, b, gone, dead: Dict[int, str]
) -> np.ndarray:
    """Metrics of stacked runs at one checkpoint, each split scored once.

    Returns one row of ``METRIC_FIELDS`` per (split, run) record, split-major;
    a run flagged in the boolean mask ``gone`` diverged earlier, and its
    records read nan.  Adds to ``dead`` the divergence message of every other
    run whose guard trips, keyed by row; a run's message names the first
    split on which it tripped.
    A split is scored for a chunk of runs at a time, which bounds the
    (runs, n) arrays that otherwise make the peak of a sweep's memory.
    """
    r = H.shape[0]
    norms = _norms(H)
    rows = np.empty((len(splits), r, len(METRIC_FIELDS)))
    # one value per run, the same on every split
    rows[:, :, _COLUMN["model_norm"]] = norms
    rows[:, :, _COLUMN["a"]] = np.where(stack.updates_a, a, np.nan)
    rows[:, :, _COLUMN["b"]] = np.where(stack.updates_b, b, np.nan)
    for s, (split, (X, target), labels) in enumerate(splits):
        n = labels.size
        pieces = max(1, -(-r * n // CHECKPOINT_CHUNK))
        chunk = max(1, -(-r // pieces))
        for lo in range(0, r, chunk):
            at = slice(lo, lo + chunk)
            scores = score_rows(H[at], X)
            wrong = np.add.reduce(classes_from_scores(scores) != labels, -1)
            values = losses_from_scores(scores, target)
            del scores
            obj = stack.value(values, a[at], b[at], start=lo)
            for i, message in _diverged_rows(
                obj, H[at], norms[at], "checkpoint {} ({})", checkpoint, split, gone=gone[at]
            ).items():
                dead.setdefault(lo + i, message)
            out = rows[s, at]
            mean = np.add.reduce(values, -1) / n
            out[:, _COLUMN["mean_sd"]] = mean_sd(values, mean=mean)
            out[:, _COLUMN["mean_loss"]] = mean
            out[:, _COLUMN["error_rate"]] = wrong / n
            out[:, _COLUMN["objective"]] = obj
    rows[:, gone] = np.nan
    return rows.reshape(-1, len(METRIC_FIELDS))


def _bind_run(h: np.ndarray, dataset: Dataset):
    """Design rows of every example, built once per run: returns ``bind``,
    which binds the examples at given indices for scoring, the train indices
    and the (name, bound batch, labels) triple of every split present."""
    design = design_rows(LinearModel(weights=h, includes_bias=True), dataset.features)
    train = dataset.split_indices("train")
    if train.size == 0:
        raise ValueError("dataset has no training examples")

    def bind(idx):
        return bind_batch(design[idx], dataset.labels[idx], h.shape[0])
    splits = []
    for split in dataset.splits_present():
        idx = dataset.split_indices(split)
        splits.append((split, bind(idx), dataset.labels[idx]))
    return bind, train, splits


@dataclass
class StackedRuns:
    """Outcome of training runs together: per run, its divergence or its trajectory.

    Checkpoint metrics stay in one (checkpoints, splits, runs, metrics)
    float array; ``result`` builds the records of one run when asked.  A
    sweep builds none: it writes each run's CSV from ``metrics[:, :, i]``,
    formatting ``model_norm``, ``a`` and ``b`` once per checkpoint, since
    ``_checkpoint_records`` gives a run one value of each on every split.
    A diverged run's metrics read nan after the checkpoint where it tripped
    (or the last one before the step where it did), and so do its h, a, b.
    """

    errors: List[Optional[str]]  # divergence message, None for a finished run
    h: np.ndarray  # (R, K, d) final weights
    a: np.ndarray
    b: np.ndarray
    split_names: Tuple[str, ...]
    checkpoints: Tuple[int, ...]
    metrics: np.ndarray

    def result(self, i: int) -> RunResult:
        """Run ``i`` as a RunResult; raises its DivergenceError if it diverged."""
        if self.errors[i] is not None:
            raise DivergenceError(self.errors[i])
        trajectory = [
            TrajectoryRecord(checkpoint, split, *row)
            for checkpoint, block in zip(self.checkpoints, self.metrics[:, :, i].tolist())
            for split, row in zip(self.split_names, block)
        ]
        state = JointState(self.h[i].copy(), float(self.a[i]), float(self.b[i]))
        return RunResult(state, trajectory)


class _LiveRuns:
    """State of the runs in training, each one row from start to end.

    A stack keeps (R, K, d) weights and (R,) arrays of a, b and step size.
    A lone run keeps its (K, d) weights and floats, so each of its steps
    does the arithmetic of one run and none of the bookkeeping of a stack.
    A run that diverges is flagged in the (R,) mask ``gone`` with its
    message in ``errors``; its row goes on stepping, but nothing reads it.
    """

    def __init__(self, criteria, configs, init: JointState):
        r = len(criteria)
        self.lone = r == 1
        self.gone = np.zeros(r, dtype=bool)
        self.errors: List[Optional[str]] = [None] * r
        self.stack = CriterionStack(criteria)
        if self.lone:
            self.h, self.a, self.b = init.h.copy(), float(init.a), float(init.b)
            self.step = configs[0].step_size
            self.updates_b = criteria[0].record.updates_b
        else:
            self.h = np.repeat(init.h[None], r, axis=0)
            self.a = np.full(r, float(init.a))
            self.b = np.full(r, float(init.b))
            self.step = np.array([c.step_size for c in configs])

    def stacked(self):
        """(h, a, b) as (R, K, d), (R,) and (R,) arrays; a lone run is R = 1."""
        if self.lone:
            return self.h[None], np.array([self.a]), np.array([self.b])
        return self.h, self.a, self.b

    def diverged(self, value, where: str, *args) -> Dict[int, str]:
        """``_diverged_rows`` of the runs not yet flagged; a lone run checks its
        float norm and value in plain Python, a small part of the array checks' cost."""
        if not self.lone:
            return _diverged_rows(value, self.h, _norms(self.h), where, *args, gone=self.gone)
        norm = math.sqrt(np.vdot(self.h, self.h))
        if norm <= H_NORM_LIMIT and math.isfinite(value):
            return {}
        return _diverged_rows(np.array([value]), self.h[None], np.array([norm]), where, *args)

    def flag(self, dead: Dict[int, str]) -> bool:
        """Flag each dead row's run with its message; True once every run is."""
        for i, message in dead.items():
            self.errors[i] = message
            self.gone[i] = True
        return bool(self.gone.all())

    def update(self, grad_h, grad_a, grad_b):
        """One gradient step, b projected onto [B_FLOOR, inf).

        A criterion without a threshold has a zero grad_a, which leaves a as
        it is; one without a scale keeps b.
        """
        if self.lone:
            self.h = self.h - self.step * grad_h
            self.a = self.a - self.step * grad_a
            if self.updates_b:
                self.b = max(self.b - self.step * grad_b, B_FLOOR)
            return
        self.h = self.h - self.step[:, None, None] * grad_h
        self.a = self.a - self.step * grad_a
        b = np.maximum(self.b - self.step * grad_b, B_FLOOR)
        self.b = np.where(self.stack.updates_b, b, self.b)


def _full_batch(config: OptConfig, train, bind):
    """Batch GD's schedule: the train split, bound once, at every step.

    Yields (bound batch, guard context, checkpoint or None) per step; a
    checkpoint falls on multiples of ``checkpoint_every`` and the last step.
    """
    batch = bind(train)
    last, every = config.iterations, config.checkpoint_every
    for t in range(1, last + 1):
        yield batch, ("iteration {}", t), t if t % every == 0 or t == last else None


def _minibatches(config: OptConfig, train, bind):
    """SGD's schedule: each epoch reshuffles the train split and cuts batches.

    Batches are contiguous slices of the permutation (the last partial one
    kept) with their indices sorted, so gradient sums have a canonical
    order; with batch_size = n an epoch is bitwise one full-gradient step.
    Each batch is bound as it is cut.  A checkpoint falls at each epoch end.
    """
    check_batch_size(config.batch_size, train.size)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    step = 0
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(train)
        for start in range(0, train.size, config.batch_size):
            idx = np.sort(perm[start : start + config.batch_size])
            step += 1
            checkpoint = epoch if start + config.batch_size >= train.size else None
            yield bind(idx), ("epoch {} step {}", epoch, step), checkpoint


@np.errstate(over="ignore", invalid="ignore")
def train(
    runs: Sequence[Tuple[CriterionParams, OptConfig]], init: JointState, dataset: Dataset
) -> StackedRuns:
    """Train every (criterion, config) run together, stepped in lockstep.

    The configs must agree on every field but the step size; their
    ``iterations`` picks full-batch GD, their ``epochs`` and ``batch_size``
    mini-batch SGD.  A run that trips the divergence guard carries the
    message a lone run would raise, its only report (numpy's overflow and
    invalid-value warnings are off in here), and its row steps on unread
    while the others go on; the loop ends once every run has tripped.
    """
    if not runs:
        raise ValueError("no runs to train")
    criteria, configs = zip(*runs)
    first = configs[0]
    if any(replace(c, step_size=first.step_size) != first for c in configs[1:]):
        raise ValueError("stacked runs must share every config field but the step size")
    schedule = _full_batch if first.iterations is not None else _minibatches
    bind, train_idx, splits = _bind_run(init.h, dataset)
    live = _LiveRuns(criteria, configs, init)
    model = LinearModel(weights=live.h, includes_bias=False)
    checkpoints, metrics = [], []
    for batch, where, checkpoint in schedule(first, train_idx, bind):
        model.weights = live.h
        losses = loss_batch(model, batch)
        value, grad_h, grad_a, grad_b = live.stack.objective(
            losses.values, losses.dscore, losses.rows, live.a, live.b
        )
        dead = live.diverged(value, *where)
        if dead and live.flag(dead):
            break  # every run diverged
        live.update(grad_h, grad_a, grad_b)
        if checkpoint is not None:
            dead = {}
            checkpoints.append(checkpoint)
            metrics.append(_checkpoint_records(
                checkpoint, splits, live.stack, *live.stacked(), live.gone, dead
            ))
            if dead and live.flag(dead):
                break
    h, a, b = live.stacked()
    gone = live.gone
    return StackedRuns(
        live.errors, np.where(gone[:, None, None], np.nan, h),
        np.where(gone, np.nan, a), np.where(gone, np.nan, b), tuple(s[0] for s in splits),
        tuple(checkpoints),
        np.array(metrics).reshape((len(checkpoints), len(splits), len(runs), len(METRIC_FIELDS))),
    )


def run_batch_gd(
    criterion: CriterionParams, init: JointState, dataset: Dataset, config: OptConfig
) -> RunResult:
    """Full-gradient descent over the train split for ``config.iterations`` steps.

    Checkpoints fall on multiples of ``checkpoint_every`` plus the final
    iteration, each recording full-split metrics.  Deterministic given the
    inputs; raises DivergenceError if the run trips the divergence guard.
    """
    if config.iterations is None:
        raise ValueError("run_batch_gd requires a batch-mode OptConfig")
    return train([(criterion, config)], init, dataset).result(0)

