"""Deterministic gradient descent and mini-batch SGD over (h, a, b).

The joint robust criterion updates all of (h, a, b) with the scale projected
back to ``b_floor`` after every step (the objective's gradient is not
Lipschitz near b = 0).  CVaR and the divergence-ball dual update (h, a);
the plain mean updates h alone.  A single shared step size is used for all
blocks, so comparisons across criteria stay fair.

Shuffling uses numpy's PCG64 generator; the algorithm identifier is recorded
in every RunResult so trajectories can be reproduced bit-for-bit.

One loop (``_train``) trains any number of runs: runs that share the data,
the initial state, the schedule and the scale floor see the same batches,
so their weights are stacked as one (R, K, d) array and each step is one
array program over all of them.  Its schedule is full-batch for GD
(``run_batch_gd``) or mini-batch for SGD (``run_stacked_sgd``,
``run_minibatch_sgd``).  A lone run (R = 1) keeps (K, d) weights and float
a, b and step size, which the criterion kernels take as they are: a lone
run's time is mostly per-step overhead, and stepping it as (1,) arrays
costs 70-90% more per step.  Per-run results are bitwise those of training
each run alone.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .criteria import CriterionParams, CriterionStack, JointState, mean_sd
from .data import Dataset
from .model import (
    LinearModel,
    classes_from_scores,
    design_rows,
    loss_batch,
    losses_from_scores,
    score_rows,
)

__all__ = [
    "METRIC_FIELDS",
    "DivergenceError",
    "OptConfig",
    "TrajectoryRecord",
    "RunResult",
    "StackedRuns",
    "initial_joint_state",
    "run_batch_gd",
    "run_minibatch_sgd",
    "run_stacked_sgd",
]

RNG_ALGORITHM = "pcg64"
H_NORM_LIMIT = 1e12
CHECKPOINT_CHUNK = 8192  # losses scored at once per checkpoint chunk (64 KiB)


class DivergenceError(RuntimeError):
    """A run produced a non-finite objective or runaway weights."""


@dataclass
class OptConfig:
    """Optimizer settings: batch mode (iterations) xor SGD mode (epochs+batch_size)."""

    step_size: float
    iterations: Optional[int] = None
    epochs: Optional[int] = None
    batch_size: Optional[int] = None
    seed: int = 0
    checkpoint_every: int = 100
    b_floor: float = 1e-8

    def __post_init__(self):
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
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
        if self.b_floor <= 0.0:
            raise ValueError("b_floor must be positive")

    @property
    def mode(self) -> str:
        return "batch" if self.iterations is not None else "sgd"


# TrajectoryRecord fields after (checkpoint, split), in order
METRIC_FIELDS = ("mean_sd", "mean_loss", "error_rate", "model_norm", "objective", "a", "b")
_COLUMN = {name: k for k, name in enumerate(METRIC_FIELDS)}


@dataclass
class TrajectoryRecord:
    """Metrics of one (checkpoint, split) cell; mean_sd is evaluated at lam=1."""

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
    config: OptConfig
    criterion: CriterionParams
    rng_algorithm: str = RNG_ALGORITHM


def initial_joint_state(h0, initial_losses) -> JointState:
    """Build the starting (h, a, b): a = mean loss at h0, b = max(sd, 1e-2)."""
    values = np.asarray(initial_losses, dtype=float)
    if values.size == 0:
        raise ValueError("initial_joint_state requires at least one loss")
    return JointState(
        h=np.asarray(h0, dtype=float).copy(),
        a=float(np.mean(values)),
        b=max(float(np.std(values)), 1e-2),
    )


def _norms(H: np.ndarray) -> np.ndarray:
    """Euclidean norm of each run's weights in an (R, K, d) stack."""
    flat = H.reshape(H.shape[0], H.shape[1] * H.shape[2])
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def _diverged_rows(value, H, norms, where: str, *args) -> Dict[int, str]:
    """The divergence guard: the message of every stacked run that trips it.

    A run trips on a non-finite objective or a weight norm above the limit
    (the norm is finite only when every weight is).  ``where`` is formatted
    with ``args`` only when a run trips.
    """
    ok = (norms <= H_NORM_LIMIT) & np.isfinite(value)
    if ok.all():
        return {}
    context = where.format(*args)
    return {
        int(i): f"non-finite objective at {context}"
        if not np.isfinite(value[i]) or not np.all(np.isfinite(H[i]))
        else f"weight norm exceeded {H_NORM_LIMIT:g} at {context}"
        for i in np.flatnonzero(~ok)
    }


def _checkpoint_records(
    checkpoint: int, splits, stack: CriterionStack, H, a, b, dead: Dict[int, str]
) -> np.ndarray:
    """Metrics of stacked runs at one checkpoint, each split scored once.

    Returns one row of ``METRIC_FIELDS`` per (split, run) record, split-major.
    Adds to ``dead`` the divergence message of every run whose guard trips,
    keyed by row; a run's message names the first split on which it tripped.
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
    for s, (split, X, labels) in enumerate(splits):
        n = labels.size
        pieces = max(1, -(-r * n // CHECKPOINT_CHUNK))
        chunk = max(1, -(-r // pieces))
        for lo in range(0, r, chunk):
            at = slice(lo, lo + chunk)
            scores = score_rows(H[at], X)
            wrong = (classes_from_scores(scores) != labels).sum(axis=-1)
            values = losses_from_scores(scores, labels)
            del scores
            obj = stack.value(values, a[at], b[at], start=lo)
            for i, message in _diverged_rows(
                obj, H[at], norms[at], "checkpoint {} ({})", checkpoint, split
            ).items():
                dead.setdefault(lo + i, message)
            out = rows[s, at]
            out[:, _COLUMN["mean_sd"]] = mean_sd(values)
            out[:, _COLUMN["mean_loss"]] = values.sum(axis=-1) / n
            out[:, _COLUMN["error_rate"]] = wrong / n
            out[:, _COLUMN["objective"]] = obj
    return rows.reshape(-1, len(METRIC_FIELDS))


def _bind_run(h: np.ndarray, dataset: Dataset):
    """Design rows of every example, built once per run.

    Returns the bias-augmented design, the train indices and the
    (name, rows, labels) triple of every split present.
    """
    design = design_rows(LinearModel(weights=h, includes_bias=True), dataset.features)
    train = dataset.split_indices("train")
    if train.size == 0:
        raise ValueError("dataset has no training examples")
    splits = []
    for split in dataset.splits_present():
        idx = dataset.split_indices(split)
        splits.append((split, design[idx], dataset.labels[idx]))
    return design, train, splits


@dataclass
class StackedRuns:
    """Outcome of training runs together: per run, its divergence or its trajectory.

    Checkpoint metrics stay in one (checkpoints, splits, runs, metrics)
    float array; ``result`` builds the records of one run when asked, so a
    sweep never holds every run's records at once.
    """

    criteria: Tuple[CriterionParams, ...]
    configs: Tuple[OptConfig, ...]
    errors: List[Optional[str]]  # divergence message, None for a finished run
    h: np.ndarray  # (R, K, d) final weights; rows of diverged runs are nan
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
        return RunResult(state, trajectory, self.configs[i], self.criteria[i])


class _LiveRuns:
    """State of the runs still training; diverged runs' rows are dropped.

    A stack keeps (R, K, d) weights and (R,) arrays of a, b and step size.
    A lone run keeps its (K, d) weights and floats, so each of its steps
    does the arithmetic of one run and none of the bookkeeping of a stack.
    """

    def __init__(self, criteria, configs, init: JointState):
        r = len(criteria)
        self.lone = r == 1
        self.ids = np.arange(r)
        self.stack = CriterionStack(criteria)
        if self.lone:
            self.h, self.a, self.b = init.h.copy(), float(init.a), float(init.b)
            self.step = configs[0].step_size
            self.updates_b = criteria[0].updates_b
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
        """``_diverged_rows`` of the live runs; a lone run checks its float
        norm and value in plain Python, a small part of the array checks' cost."""
        if not self.lone:
            return _diverged_rows(value, self.h, _norms(self.h), where, *args)
        flat = self.h.ravel()
        norm = math.sqrt(flat @ flat)
        if norm <= H_NORM_LIMIT and math.isfinite(value):
            return {}
        return _diverged_rows(np.array([value]), self.h[None], np.array([norm]), where, *args)

    def drop(self, dead: Dict[int, str], errors: List[Optional[str]]) -> np.ndarray:
        """Flag each dead row's run with its message; returns the kept-row mask.

        A lone run that dies leaves no run to train, so its state stays.
        """
        keep = np.ones(self.ids.size, dtype=bool)
        for i, message in dead.items():
            errors[self.ids[i]] = message
            keep[i] = False
        self.ids = self.ids[keep]
        if not self.lone:
            self.h, self.a, self.b, self.step = (
                x[keep] for x in (self.h, self.a, self.b, self.step)
            )
            self.stack = self.stack.select(keep)
        return keep

    def update(self, grad_h, grad_a, grad_b, b_floor: float):
        """One gradient step, b projected onto [b_floor, inf).

        A criterion without a threshold has a zero grad_a, which leaves a as
        it is; one without a scale keeps b.
        """
        if self.lone:
            self.h = self.h - self.step * grad_h
            self.a = self.a - self.step * grad_a
            if self.updates_b:
                self.b = max(self.b - self.step * grad_b, b_floor)
            return
        self.h = self.h - self.step[:, None, None] * grad_h
        self.a = self.a - self.step * grad_a
        b = np.maximum(self.b - self.step * grad_b, b_floor)
        self.b = np.where(self.stack.updates_b, b, self.b)


def _full_batch(config: OptConfig, design, train, labels):
    """Batch GD's schedule: the train rows, built once, at every step.

    Yields (rows, labels, guard context, checkpoint or None) per step;
    checkpoints fall on multiples of ``checkpoint_every`` and at the last
    iteration.
    """
    X, y = design[train], labels[train]
    last, every = config.iterations, config.checkpoint_every
    for t in range(1, last + 1):
        yield X, y, ("iteration {}", t), t if t % every == 0 or t == last else None


def _minibatches(config: OptConfig, design, train, labels):
    """SGD's schedule: each epoch reshuffles the train split and cuts batches.

    Batches are contiguous slices of the permutation (the last partial one
    kept) with their indices sorted, so gradient sums have a canonical
    order; with batch_size = n an epoch is bitwise one full-gradient step.
    A checkpoint falls at each epoch end.
    """
    if config.batch_size > train.size:
        raise ValueError(f"batch_size {config.batch_size} exceeds train size {train.size}")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    step = 0
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(train)
        for start in range(0, train.size, config.batch_size):
            idx = np.sort(perm[start : start + config.batch_size])
            step += 1
            checkpoint = epoch if start + config.batch_size >= train.size else None
            yield design[idx], labels[idx], ("epoch {} step {}", epoch, step), checkpoint


def _train(runs, init: JointState, dataset: Dataset, schedule) -> StackedRuns:
    """The training loop: every (criterion, config) run, stepped together.

    ``schedule`` (``_full_batch`` or ``_minibatches``) reads the first
    config; the configs agree on all but the step size.  A run that trips
    the divergence guard stops there and carries its message; the others
    go on.
    """
    criteria = tuple(params for params, _ in runs)
    configs = tuple(config for _, config in runs)
    design, train, splits = _bind_run(init.h, dataset)
    live = _LiveRuns(criteria, configs, init)
    model = LinearModel(weights=live.h, includes_bias=False)
    errors: List[Optional[str]] = [None] * len(runs)
    checkpoints, metrics = [], []
    shape = (len(splits), len(runs), len(METRIC_FIELDS))
    b_floor = configs[0].b_floor
    for X, y, where, checkpoint in schedule(configs[0], design, train, dataset.labels):
        model.weights = live.h
        batch = loss_batch(model, X, y)
        value, grad_h, grad_a, grad_b = live.stack.objective(
            batch.values, batch.dscore, batch.rows, live.a, live.b
        )
        dead = live.diverged(value, *where)
        if dead:
            keep = live.drop(dead, errors)
            if not live.ids.size:
                break  # every run diverged
            grad_h, grad_a, grad_b = grad_h[keep], grad_a[keep], grad_b[keep]
        live.update(grad_h, grad_a, grad_b, b_floor)
        if checkpoint is not None:
            dead = {}
            rows = _checkpoint_records(checkpoint, splits, live.stack, *live.stacked(), dead)
            block = np.full(shape, np.nan)
            block[:, live.ids] = rows.reshape(len(splits), live.ids.size, shape[2])
            checkpoints.append(checkpoint)
            metrics.append(block)
            if dead:
                live.drop(dead, errors)
                if not live.ids.size:
                    break
    h = np.full((len(runs),) + init.h.shape, np.nan)
    a, b = np.full(len(runs), np.nan), np.full(len(runs), np.nan)
    # a lone run that diverged has no id left, so its row fills nothing
    h[live.ids], a[live.ids], b[live.ids] = live.stacked()
    return StackedRuns(
        criteria, configs, errors, h, a, b, tuple(s[0] for s in splits),
        tuple(checkpoints), np.array(metrics).reshape((len(checkpoints),) + shape),
    )


def run_batch_gd(
    criterion: CriterionParams, init: JointState, dataset: Dataset, config: OptConfig
) -> RunResult:
    """Full-gradient descent over the train split for ``config.iterations`` steps.

    Checkpoints fall on multiples of ``checkpoint_every`` plus the final
    iteration, each recording full-split metrics.  Deterministic given the
    inputs; raises DivergenceError if the run trips the divergence guard.
    """
    if config.mode != "batch":
        raise ValueError("run_batch_gd requires a batch-mode OptConfig")
    return _train([(criterion, config)], init, dataset, _full_batch).result(0)


def run_stacked_sgd(
    runs: Sequence[Tuple[CriterionParams, OptConfig]],
    init: JointState,
    dataset: Dataset,
) -> StackedRuns:
    """Mini-batch SGD of several (criterion, config) runs trained together.

    The configs must agree on everything but the step size.  A run that
    trips the divergence guard stops there and carries the message a lone
    run would raise; the others go on.
    """
    if not runs:
        raise ValueError("no runs to train")
    configs = [config for _, config in runs]
    if any(c.mode != "sgd" for c in configs):
        raise ValueError("run_minibatch_sgd requires an sgd-mode OptConfig")
    if len({(c.epochs, c.batch_size, c.seed, c.b_floor) for c in configs}) > 1:
        raise ValueError("stacked runs must share epochs, batch_size, seed and b_floor")
    return _train(runs, init, dataset, _minibatches)


def run_minibatch_sgd(
    criterion: CriterionParams, init: JointState, dataset: Dataset, config: OptConfig
) -> RunResult:
    """Mini-batch SGD of one run: ``run_stacked_sgd`` with a single row.

    Raises DivergenceError if the run trips the divergence guard.
    """
    return run_stacked_sgd([(criterion, config)], init, dataset).result(0)
