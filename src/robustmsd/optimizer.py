"""Deterministic gradient descent and mini-batch SGD over (h, a, b).

The joint robust criterion updates all of (h, a, b) with the scale projected
back to ``b_floor`` after every step (the objective's gradient is not
Lipschitz near b = 0).  CVaR and the divergence-ball dual update (h, a);
the plain mean updates h alone.  A single shared step size is used for all
blocks, so comparisons across criteria stay fair.

Shuffling uses numpy's PCG64 generator; the algorithm identifier is recorded
in every RunResult so trajectories can be reproduced bit-for-bit.

Mini-batch SGD trains any number of runs together (``run_stacked_sgd``):
runs that share the data, the initial state, the epochs, the batch size,
the shuffle seed and the scale floor see the same mini-batches, so their
weights are stacked as one (R, K, d) array and each step is one array
program over all of them.  Per-run results are bitwise those of training
each run alone; ``run_minibatch_sgd`` is the one-run case.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .criteria import (
    CriterionParams,
    CriterionStack,
    JointState,
    evaluate_objective,
    mean_sd,
)
from .data import Dataset
from .model import (
    LinearModel,
    classes_from_scores,
    design_rows,
    loss_batch,
    losses_and_dscore,
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


def _divergence_message(value, h: np.ndarray, context: str) -> str:
    if not np.isfinite(value) or not np.all(np.isfinite(h)):
        return f"non-finite objective at {context}"
    return f"weight norm exceeded {H_NORM_LIMIT:g} at {context}"


def _guard(value: float, h: np.ndarray, where: str, *args):
    """Raise DivergenceError on a non-finite objective or runaway weights.

    One norm covers the common case: it is finite and within the limit only
    when every weight is finite.  ``where`` is formatted with ``args`` into
    the error's context only when the guard trips.
    """
    flat = h.ravel()
    norm = math.sqrt(flat @ flat)
    if norm <= H_NORM_LIMIT and math.isfinite(value):
        return
    raise DivergenceError(_divergence_message(value, h, where.format(*args)))


def _norms(H: np.ndarray) -> np.ndarray:
    """Euclidean norm of each run's weights; per run the dot of ``_guard``."""
    flat = H.reshape(H.shape[0], H.shape[1] * H.shape[2])
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def _diverged_rows(value, H, norms, where: str, *args) -> Dict[int, str]:
    """``_guard`` for stacked runs: the message of every row that trips it."""
    ok = (norms <= H_NORM_LIMIT) & np.isfinite(value)
    if ok.all():
        return {}
    context = where.format(*args)
    return {
        int(i): _divergence_message(value[i], H[i], context)
        for i in np.flatnonzero(~ok)
    }


def _step(state: JointState, ev, params: CriterionParams, config: OptConfig):
    state.h = state.h - config.step_size * ev.grad_h
    if params.updates_a:
        state.a = state.a - config.step_size * ev.grad_a
    if params.updates_b:
        state.b = max(state.b - config.step_size * ev.grad_b, config.b_floor)


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


def _trajectory(checkpoints, split_names, metrics) -> List[TrajectoryRecord]:
    """One run's records from its (checkpoints, splits, metrics) array."""
    return [
        TrajectoryRecord(checkpoint, split, *row)
        for checkpoint, block in zip(checkpoints, np.asarray(metrics).tolist())
        for split, row in zip(split_names, block)
    ]


def _bind_run(h: np.ndarray, dataset: Dataset):
    """Design rows of every example, built once per run.

    Returns the bias-augmented design, the train indices and the
    (name, rows, labels) triple of every split present.
    """
    model = LinearModel(weights=h, includes_bias=True)
    # re-validate against the dataset once up front
    if model.weights.shape[1] != dataset.n_features + 1:
        raise ValueError(
            f"weights expect {model.weights.shape[1] - 1} features, "
            f"dataset has {dataset.n_features}"
        )
    design = design_rows(model, dataset.features)
    train = dataset.split_indices("train")
    if train.size == 0:
        raise ValueError("dataset has no training examples")
    splits = []
    for split in dataset.splits_present():
        idx = dataset.split_indices(split)
        splits.append((split, design[idx], dataset.labels[idx]))
    return design, train, splits


def run_batch_gd(
    criterion: CriterionParams,
    init: JointState,
    dataset: Dataset,
    config: OptConfig,
) -> RunResult:
    """Full-gradient descent over the train split for ``config.iterations`` steps.

    Checkpoints fall on multiples of ``checkpoint_every`` plus the final
    iteration, each recording full-split metrics.  Deterministic given the
    inputs; raises DivergenceError if the objective leaves the finite range.
    """
    if config.mode != "batch":
        raise ValueError("run_batch_gd requires a batch-mode OptConfig")
    state = init.copy()
    design, train, splits = _bind_run(state.h, dataset)
    model = LinearModel(weights=state.h, includes_bias=False)
    X, y = design[train], dataset.labels[train]
    stack = CriterionStack([criterion])
    checkpoints, metrics = [], []
    for t in range(1, config.iterations + 1):
        model.weights = state.h
        ev = evaluate_objective(loss_batch(model, X, y), state, criterion)
        _guard(ev.value, state.h, "iteration {}", t)
        _step(state, ev, criterion, config)
        if t % config.checkpoint_every == 0 or t == config.iterations:
            dead: Dict[int, str] = {}
            rows = _checkpoint_records(
                t, splits, stack, state.h[None], np.array([state.a]),
                np.array([state.b]), dead,
            )
            if dead:
                raise DivergenceError(dead[0])
            checkpoints.append(t)
            metrics.append(rows)
    return RunResult(
        final_state=state,
        trajectory=_trajectory(checkpoints, [s[0] for s in splits], metrics),
        config=config,
        criterion=criterion,
    )


@dataclass
class StackedRuns:
    """Outcome of ``run_stacked_sgd``: per run, its divergence or its trajectory.

    Checkpoint metrics stay in one (epochs, splits, runs, metrics) float
    array; ``result`` builds the records of one run when asked, so a sweep
    never holds every run's records at once.
    """

    criteria: Tuple[CriterionParams, ...]
    configs: Tuple[OptConfig, ...]
    errors: List[Optional[str]]  # divergence message, None for a finished run
    h: np.ndarray  # (R, K, d) final weights; rows of diverged runs are nan
    a: np.ndarray
    b: np.ndarray
    split_names: Tuple[str, ...]
    metrics: np.ndarray

    def result(self, i: int) -> RunResult:
        """Run ``i`` as a RunResult; raises its DivergenceError if it diverged."""
        if self.errors[i] is not None:
            raise DivergenceError(self.errors[i])
        epochs = range(1, self.metrics.shape[0] + 1)
        return RunResult(
            final_state=JointState(self.h[i].copy(), float(self.a[i]), float(self.b[i])),
            trajectory=_trajectory(epochs, self.split_names, self.metrics[:, :, i]),
            config=self.configs[i],
            criterion=self.criteria[i],
        )


class _LiveRuns:
    """Stacked state of the runs still training; diverged runs' rows are dropped."""

    def __init__(self, criteria, configs, init: JointState):
        r = len(criteria)
        self.ids = np.arange(r)
        self.h = np.repeat(init.h[None], r, axis=0)
        self.a = np.full(r, float(init.a))
        self.b = np.full(r, float(init.b))
        self.step = np.array([c.step_size for c in configs])
        self.stack = CriterionStack(criteria)

    def drop(self, dead: Dict[int, str], errors: List[Optional[str]]) -> np.ndarray:
        """Flag each dead row's run with its message; returns the kept-row mask."""
        keep = np.ones(self.ids.size, dtype=bool)
        for i, message in dead.items():
            errors[self.ids[i]] = message
            keep[i] = False
        self.ids, self.h, self.a, self.b, self.step = (
            x[keep] for x in (self.ids, self.h, self.a, self.b, self.step)
        )
        self.stack = self.stack.select(keep)
        return keep

    def update(self, grad_h, grad_a, grad_b, b_floor: float):
        """``_step`` on every row; a zero grad_a leaves a as it is."""
        self.h = self.h - self.step[:, None, None] * grad_h
        self.a = self.a - self.step * grad_a
        b = np.maximum(self.b - self.step * grad_b, b_floor)
        self.b = np.where(self.stack.updates_b, b, self.b)


def run_stacked_sgd(
    runs: Sequence[Tuple[CriterionParams, OptConfig]],
    init: JointState,
    dataset: Dataset,
) -> StackedRuns:
    """Mini-batch SGD of several (criterion, config) runs trained together.

    The configs must agree on everything but the step size.  Each epoch
    reshuffles the train split, cuts contiguous batches (the last partial
    one kept) and sorts the indices inside each batch, so gradient sums
    have a canonical order; with batch_size = n an epoch is bitwise one
    full-gradient step.  Checkpoints fall at each epoch end and record
    full-split metrics.  A run that trips the divergence guard stops there
    and carries the message a lone run would raise; the others go on.
    """
    if not runs:
        raise ValueError("no runs to train")
    criteria = tuple(params for params, _ in runs)
    configs = tuple(config for _, config in runs)
    config = configs[0]
    if any(c.mode != "sgd" for c in configs):
        raise ValueError("run_minibatch_sgd requires an sgd-mode OptConfig")

    def shared(c):
        return c.epochs, c.batch_size, c.seed, c.b_floor

    if any(shared(c) != shared(config) for c in configs):
        raise ValueError("stacked runs must share epochs, batch_size, seed and b_floor")
    design, train, splits = _bind_run(init.h, dataset)
    if config.batch_size > train.size:
        raise ValueError(
            f"batch_size {config.batch_size} exceeds train size {train.size}"
        )
    labels = dataset.labels
    live = _LiveRuns(criteria, configs, init)
    errors: List[Optional[str]] = [None] * len(runs)
    metrics = np.full((config.epochs, len(splits), len(runs), len(METRIC_FIELDS)), np.nan)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    step_count = 0
    for epoch in range(1, config.epochs + 1):
        if not live.ids.size:
            break  # every run diverged
        perm = rng.permutation(train)
        for start in range(0, train.size, config.batch_size):
            idx = np.sort(perm[start : start + config.batch_size])
            X = design[idx]
            values, dscore = losses_and_dscore(score_rows(live.h, X), labels[idx])
            value, grad_h, grad_a, grad_b = live.stack.objective(
                values, dscore, X, live.a, live.b
            )
            step_count += 1
            dead = _diverged_rows(
                value, live.h, _norms(live.h), "epoch {} step {}", epoch, step_count
            )
            if dead:
                keep = live.drop(dead, errors)
                grad_h, grad_a, grad_b = grad_h[keep], grad_a[keep], grad_b[keep]
            live.update(grad_h, grad_a, grad_b, config.b_floor)
        dead = {}
        rows = _checkpoint_records(
            epoch, splits, live.stack, live.h, live.a, live.b, dead
        )
        metrics[epoch - 1][:, live.ids] = rows.reshape(
            len(splits), live.ids.size, len(METRIC_FIELDS)
        )
        if dead:
            live.drop(dead, errors)
    h = np.full((len(runs),) + init.h.shape, np.nan)
    a, b = np.full(len(runs), np.nan), np.full(len(runs), np.nan)
    h[live.ids], a[live.ids], b[live.ids] = live.h, live.a, live.b
    return StackedRuns(
        criteria, configs, errors, h, a, b, tuple(s[0] for s in splits), metrics
    )


def run_minibatch_sgd(
    criterion: CriterionParams,
    init: JointState,
    dataset: Dataset,
    config: OptConfig,
) -> RunResult:
    """Mini-batch SGD of one run: ``run_stacked_sgd`` with a single row.

    Raises DivergenceError if the run trips the divergence guard.
    """
    return run_stacked_sgd([(criterion, config)], init, dataset).result(0)
