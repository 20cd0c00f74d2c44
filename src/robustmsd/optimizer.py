"""Deterministic gradient descent and mini-batch SGD over (h, a, b).

The joint robust criterion updates all of (h, a, b) with the scale projected
back to ``b_floor`` after every step (the objective's gradient is not
Lipschitz near b = 0).  CVaR and the divergence-ball dual update (h, a);
the plain mean updates h alone.  A single shared step size is used for all
blocks, so comparisons across criteria stay fair.

Shuffling uses numpy's PCG64 generator; the algorithm identifier is recorded
in every RunResult so trajectories can be reproduced bit-for-bit.
"""

import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .criteria import (
    CriterionParams,
    JointState,
    criterion_value,
    evaluate_objective,
    mean_sd,
)
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
    "DivergenceError",
    "OptConfig",
    "TrajectoryRecord",
    "RunResult",
    "initial_joint_state",
    "run_batch_gd",
    "run_minibatch_sgd",
]

RNG_ALGORITHM = "pcg64"
H_NORM_LIMIT = 1e12


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
    wall_time: float = 0.0


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
    context = where.format(*args)
    if not np.isfinite(value) or not np.all(np.isfinite(h)):
        raise DivergenceError(f"non-finite objective at {context}")
    raise DivergenceError(f"weight norm exceeded {H_NORM_LIMIT:g} at {context}")


def _step(state: JointState, ev, params: CriterionParams, config: OptConfig):
    state.h = state.h - config.step_size * ev.grad_h
    if params.kind in ("sunhuber", "cvar", "chisq_dro"):
        state.a = state.a - config.step_size * ev.grad_a
    if params.kind == "sunhuber":
        state.b = max(state.b - config.step_size * ev.grad_b, config.b_floor)


def _checkpoint_records(
    checkpoint: int,
    splits,
    model: LinearModel,
    state: JointState,
    params: CriterionParams,
) -> List[TrajectoryRecord]:
    """One record per (name, design rows, labels) split, each scored once."""
    records = []
    rec_a = state.a if params.kind in ("sunhuber", "cvar", "chisq_dro") else float("nan")
    rec_b = state.b if params.kind == "sunhuber" else float("nan")
    norm = float(np.linalg.norm(state.h.ravel()))
    for split, X, labels in splits:
        n = labels.size
        scores = score_rows(model, X)
        values = losses_from_scores(scores, labels)
        obj = criterion_value(values, state, params)
        _guard(obj, state.h, "checkpoint {} ({})", checkpoint, split)
        records.append(
            TrajectoryRecord(
                checkpoint=checkpoint,
                split=split,
                mean_sd=mean_sd(values, 1.0),
                mean_loss=float(values.sum() / n),
                error_rate=float(
                    np.count_nonzero(classes_from_scores(scores) != labels) / n
                ),
                model_norm=norm,
                objective=obj,
                a=rec_a,
                b=rec_b,
            )
        )
    return records


def _bind_run(state: JointState, dataset: Dataset):
    """Bias-free model over the dataset's design rows, built once per run.

    Returns the model, the design rows of every example, the train indices
    and the (name, rows, labels) triple of every split present.
    """
    model = LinearModel(weights=state.h, includes_bias=True)
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
    bias_free = LinearModel(weights=state.h, includes_bias=False)
    return bias_free, design, train, splits


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
    t0 = time.perf_counter()
    state = init.copy()
    model, design, train, splits = _bind_run(state, dataset)
    X, y = design[train], dataset.labels[train]
    records: List[TrajectoryRecord] = []
    for t in range(1, config.iterations + 1):
        model.weights = state.h
        ev = evaluate_objective(loss_batch(model, X, y), state, criterion)
        _guard(ev.value, state.h, "iteration {}", t)
        _step(state, ev, criterion, config)
        if t % config.checkpoint_every == 0 or t == config.iterations:
            model.weights = state.h
            records.extend(_checkpoint_records(t, splits, model, state, criterion))
    return RunResult(
        final_state=state,
        trajectory=records,
        config=config,
        criterion=criterion,
        wall_time=time.perf_counter() - t0,
    )


def run_minibatch_sgd(
    criterion: CriterionParams,
    init: JointState,
    dataset: Dataset,
    config: OptConfig,
) -> RunResult:
    """Mini-batch SGD: per-epoch reshuffle, contiguous batches, last partial kept.

    Indices inside each mini-batch are sorted before evaluation so gradient
    sums have a canonical order; with batch_size = n this makes an epoch
    bitwise-identical to one full-gradient step.  Checkpoints fall at each
    epoch end and record full-split metrics.
    """
    if config.mode != "sgd":
        raise ValueError("run_minibatch_sgd requires an sgd-mode OptConfig")
    t0 = time.perf_counter()
    state = init.copy()
    model, design, train, splits = _bind_run(state, dataset)
    if config.batch_size > train.size:
        raise ValueError(
            f"batch_size {config.batch_size} exceeds train size {train.size}"
        )
    labels = dataset.labels
    rng = np.random.Generator(np.random.PCG64(config.seed))
    records: List[TrajectoryRecord] = []
    step_count = 0
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(train)
        for start in range(0, train.size, config.batch_size):
            idx = np.sort(perm[start : start + config.batch_size])
            model.weights = state.h
            batch = loss_batch(model, design[idx], labels[idx])
            ev = evaluate_objective(batch, state, criterion)
            step_count += 1
            _guard(ev.value, state.h, "epoch {} step {}", epoch, step_count)
            _step(state, ev, criterion, config)
        model.weights = state.h
        records.extend(_checkpoint_records(epoch, splits, model, state, criterion))
    return RunResult(
        final_state=state,
        trajectory=records,
        config=config,
        criterion=criterion,
        wall_time=time.perf_counter() - t0,
    )
