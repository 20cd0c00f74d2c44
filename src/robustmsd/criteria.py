"""Empirical learning criteria and their (sub)gradients.

The central object is the joint location/scale robust objective

    alpha*a + beta*b + (lambda*b/n) * sum_i rho((l_i - a)/b),

with rho(x) = sqrt(x^2 + 1) - 1, minimized jointly in the model weights h,
the threshold a and the scale b.  Alongside it live the benchmark criteria
(plain mean, CVaR dual, chi-square divergence-ball dual), the sqrt(n)
parameter schedule that fixes (alpha, beta) before seeing data, and the
evaluation-side mean-SD functional.

Each criterion kind is one ``Criterion`` record in ``CRITERIA``: an
objective kernel, a value kernel and what else differs by kind.  The
kernels take losses of shape (..., n): one run's (n,) losses with float
a, b and coefficients, or r stacked runs' (r, n) losses with (r,) arrays,
every row getting the bits it has alone.  An objective reduces its batch
to scalars plus one per-example weight on the loss gradients:
(l_i - a)/sqrt((l_i - a)^2 + b^2) for the joint objective, 1 for the mean,
the active indicator for CVaR and the positive part for the divergence
dual.  grad_h is that weight contracted with the batch's score derivatives
and design rows (see ``model.LossBatch``), so no per-example gradient is
ever materialised.

Throughout, the per-example deviation term b*rho(r/b) is computed as
r^2 / (sqrt(r^2 + b^2) + b), which is exact algebra but avoids the
catastrophic cancellation of sqrt(r^2 + b^2) - b for large scales.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from .model import LossBatch

__all__ = [
    "KINDS",
    "CRITERIA",
    "Criterion",
    "criterion_record",
    "CriterionParams",
    "JointState",
    "ObjectiveEval",
    "schedule_params",
    "make_criterion",
    "evaluate_objective",
    "criterion_value",
    "CriterionStack",
    "mean_sd",
    "partial_objective_grads",
    "hessian_quadform",
]


# ----------------------------------------------------------------- kernels
#
# a, b and the coefficients are floats for one run or (r,) arrays for r
# stacked runs; ``_col`` lines an array up with the (r, n) losses.  Sums
# over the examples call ``np.add.reduce``, the reduction ``ndarray.sum``
# runs, without its Python-level wrapper.


def _col(x, axes: int = 1):
    """A per-run array with ``axes`` unit axes appended; a float as it is."""
    return x.reshape(x.shape + (1,) * axes) if isinstance(x, np.ndarray) else x


def _contract(dscore, rows, weight) -> np.ndarray:
    """sum_i weight[.., i] * dscore[.., i] (x) rows[i]: (.., n, K) -> (.., K, d).

    ``weight`` None weighs every example by 1.  Single-output batches scale
    the design rows first and then contract over examples, the multiply
    and sum order of building each per-example gradient and reducing over
    the batch, so binary runs are bitwise reproducible.  ``np.matmul`` makes
    one BLAS call per run, the call a lone run makes, so a stacked run
    keeps its bits.
    """
    if dscore.shape[-1] == 1:
        grads = dscore * rows
        if weight is None:
            return np.add.reduce(grads, -2)[..., None, :]
        return np.matmul(weight[..., None, :], grads)
    if weight is not None:
        dscore = weight[..., None] * dscore
    return np.matmul(np.swapaxes(dscore, -1, -2), rows)


def _sunhuber(values, dscore, rows, a, b, alpha, beta, lam):
    """Joint robust objective alpha*a + beta*b + (lam*b/n) sum rho((l-a)/b)."""
    n = values.shape[-1]
    b_col = _col(b)
    r = values - _col(a)
    rr = r * r
    s = np.sqrt(rr + b_col * b_col)
    sb = s + b_col
    value = alpha * a + beta * b + lam * (np.add.reduce(rr / sb, -1) / n)
    w = r / s
    grad_a = alpha - lam * (np.add.reduce(w, -1) / n)
    # beta + lam*mean(b/s - 1), written without the b/s - 1 cancellation
    grad_b = beta - lam * (np.add.reduce(rr / (s * sb), -1) / n)
    grad_h = _col(lam, 2) * _contract(dscore, rows, w) / n
    return value, grad_h, grad_a, grad_b


def _sunhuber_value(values, a, b, alpha, beta, lam):
    b_col = _col(b)
    r = values - _col(a)
    dev = r * r / (np.sqrt(r * r + b_col * b_col) + b_col)
    return alpha * a + beta * b + lam * (np.add.reduce(dev, -1) / values.shape[-1])


def _erm(values, dscore, rows, a, b):
    """Plain mean of the losses; gradient is the mean per-example gradient."""
    n = values.shape[-1]
    return np.add.reduce(values, -1) / n, _contract(dscore, rows, None) / n, None, None


def _erm_value(values, a, b):
    return np.add.reduce(values, -1) / values.shape[-1]


def _cvar(values, dscore, rows, a, b, xi):
    """Variational CVaR objective a + mean((l - a)_+) / (1 - xi).

    At kinks (l_i == a exactly) the subgradient treating the example as
    inactive is used, so runs are deterministic.
    """
    n = values.shape[-1]
    inv = 1.0 / (1.0 - xi)
    pos = values - _col(a)
    active = pos > 0.0
    weight = active.astype(float)
    value = a + inv * (np.add.reduce(np.where(active, pos, 0.0), -1) / n)
    grad_a = 1.0 - inv * (np.add.reduce(weight, -1) / n)
    grad_h = _col(inv, 2) * _contract(dscore, rows, weight) / n
    return value, grad_h, grad_a, None


def _cvar_value(values, a, b, xi):
    pos = np.maximum(values - _col(a), 0.0)
    return a + (np.add.reduce(pos, -1) / values.shape[-1]) / (1.0 - xi)


def _chisq_dro(values, dscore, rows, a, b, eta_tilde):
    """Chi-square divergence-ball dual a + sqrt(1+2*eta) * sqrt(mean((l-a)_+^2)).

    ``eta_tilde`` in (0, 1) re-parameterizes the ball radius via
    eta = (1/(1-eta_tilde) - 1)/2.  When every positive part vanishes the
    gradient of the root term is defined as 0 (a valid subgradient).
    """
    n = values.shape[-1]
    eta = (1.0 / (1.0 - eta_tilde) - 1.0) / 2.0
    coef = np.sqrt(1.0 + 2.0 * eta)
    pos = np.maximum(values - _col(a), 0.0)
    mean_sq = np.add.reduce(pos * pos, -1) / n
    flat = mean_sq == 0.0
    root = np.sqrt(mean_sq + flat)  # 1 where flat; + 0.0 leaves the rest exact
    value = a + coef * root
    grad_a = 1.0 - coef * (np.add.reduce(pos, -1) / n) / root
    grad_h = _col(coef, 2) * _contract(dscore, rows, pos)
    grad_h /= _col(n * root, 2)
    if np.count_nonzero(flat):
        value = np.where(flat, a, value)
        grad_a = np.where(flat, 1.0, grad_a)
        grad_h[flat] = 0.0
    return value, grad_h, grad_a, None


def _chisq_dro_value(values, a, b, eta_tilde):
    eta = (1.0 / (1.0 - eta_tilde) - 1.0) / 2.0
    pos = np.maximum(values - _col(a), 0.0)
    mean_sq = np.add.reduce(pos * pos, -1) / values.shape[-1]
    return a + np.sqrt((1.0 + 2.0 * eta) * mean_sq)


@dataclass(frozen=True)
class Criterion:
    """One criterion kind: its two kernels and what else differs by kind.

    ``objective(values, dscore, rows, a, b, *coef)`` gives (value, grad_h,
    grad_a, grad_b), None for a gradient the kind lacks, and
    ``value(values, a, b, *coef)`` the value alone; ``coef`` are the
    ``CriterionParams`` fields named in ``coefficients``.  ``setting`` is
    the field a sweep setting fills (None: the kind takes none) and
    ``label`` formats a run's file-name tag from its parameters.
    """

    objective: Callable
    value: Callable
    coefficients: Tuple[str, ...]
    setting: Optional[str]
    label: str
    updates_a: bool
    updates_b: bool


CRITERIA = {  # kernels, coefficients, setting, label, updates_a, updates_b
    "sunhuber": Criterion(_sunhuber, _sunhuber_value, ("alpha", "beta", "lam"),
                          "beta0", "sunhuber_b0={0.beta0:g}", True, True),
    "erm": Criterion(_erm, _erm_value, (), None, "erm", False, False),
    "cvar": Criterion(_cvar, _cvar_value, ("xi",), "xi", "cvar_xi={0.xi:g}", True, False),
    "chisq_dro": Criterion(_chisq_dro, _chisq_dro_value, ("eta_tilde",), "eta_tilde",
                           "chisq_dro_eta={0.eta_tilde:g}", True, False),
}
KINDS = tuple(CRITERIA)


def criterion_record(kind: str) -> Criterion:
    """The record of a criterion kind; ValueError names an unknown one."""
    if kind not in CRITERIA:
        raise ValueError(f"unknown criterion {kind!r} (known: {', '.join(KINDS)})")
    return CRITERIA[kind]


@dataclass(frozen=True)
class CriterionParams:
    """Configuration of one training criterion.

    ``alpha``/``beta``/``lam`` parameterize the joint robust objective
    (``beta0`` records the constant behind beta = beta0/sqrt(n)).  ``xi`` is
    the CVaR quantile level and ``eta_tilde`` the divergence-ball robustness
    level; each is required exactly for its own kind.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    lam: float = 1.0
    beta0: float = 0.0
    xi: Optional[float] = None
    eta_tilde: Optional[float] = None

    def __post_init__(self):
        setting = criterion_record(self.kind).setting
        if self.kind == "sunhuber":
            if self.alpha < 0.0 or self.beta < 0.0:
                raise ValueError("alpha and beta must be nonnegative")
            if self.lam <= 0.0:
                raise ValueError("lam must be positive")
        elif setting is not None:
            level = getattr(self, setting)
            if level is None or not 0.0 < level < 1.0:
                raise ValueError(f"{self.kind} requires {setting} in (0, 1), got {level!r}")

    @cached_property
    def record(self) -> Criterion:
        return CRITERIA[self.kind]

    @cached_property
    def coefficients(self) -> tuple:
        """The values of the fields the kernels take, in their order."""
        return tuple(getattr(self, f) for f in self.record.coefficients)

    def label(self) -> str:
        """Short human-readable tag used in run file names."""
        return self.record.label.format(self)

    @property
    def updates_a(self) -> bool:
        """Whether the threshold a is an optimization variable."""
        return self.record.updates_a

    @property
    def updates_b(self) -> bool:
        """Whether the scale b is an optimization variable."""
        return self.record.updates_b


@dataclass
class JointState:
    """Optimization variables: model weights h, threshold a, scale b > 0."""

    h: np.ndarray
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if not np.all(np.isfinite(self.h)):
            raise ValueError("h must be finite")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("a and b must be finite")
        if self.b <= 0.0:
            raise ValueError(f"b must be positive, got {self.b!r}")


@dataclass
class ObjectiveEval:
    """Objective value and gradients; grad_b is None when b is not a variable."""

    value: float
    grad_h: np.ndarray
    grad_a: float = 0.0
    grad_b: Optional[float] = None


def schedule_params(n: int, beta0: float, lam: float) -> CriterionParams:
    """Fix (alpha, beta) from the sample size alone: beta = beta0/sqrt(n), alpha = beta.

    Rejects configurations violating 0 < beta < lam.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (beta0 > 0.0 and lam > 0.0):
        raise ValueError("beta0 and lam must be positive")
    beta = beta0 / math.sqrt(n)
    if not beta < lam:
        raise ValueError(
            f"beta = beta0/sqrt(n) = {beta:g} must stay below lam = {lam:g}"
        )
    return CriterionParams("sunhuber", alpha=beta, beta=beta, lam=lam, beta0=beta0)


def make_criterion(kind: str, setting, n_train: int, lam: float) -> CriterionParams:
    """The criterion of one sweep setting (None for a kind that takes none).

    A beta0 goes through the sqrt(n) schedule.  An unknown kind or a setting
    the kind rejects raises ValueError naming the kind.
    """
    field = criterion_record(kind).setting
    try:
        if field == "beta0":
            return schedule_params(n_train, setting, lam)
        return CriterionParams(kind, **({field: setting} if field else {}))
    except ValueError as err:
        raise ValueError(f"{kind} setting {setting!r}: {err}") from None


def evaluate_objective(
    losses: LossBatch, state: JointState, params: CriterionParams
) -> ObjectiveEval:
    """Objective value and gradients of one run on one batch."""
    if losses.values.size == 0:
        raise ValueError("empty loss batch")
    value, grad_h, grad_a, grad_b = params.record.objective(
        losses.values, losses.dscore, losses.rows, state.a, state.b,
        *params.coefficients,
    )
    grad_a = 0.0 if grad_a is None else float(grad_a)
    grad_b = None if grad_b is None else float(grad_b)
    return ObjectiveEval(float(value), grad_h, grad_a, grad_b)


def criterion_value(values, state: JointState, params: CriterionParams) -> float:
    """Objective value only, from raw loss values (no gradients needed)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty loss values")
    return float(params.record.value(values, state.a, state.b, *params.coefficients))


class CriterionStack:
    """The criteria of R runs stacked as rows, evaluated block by block.

    Each maximal stretch of consecutive rows of one kind forms a block whose
    coefficients are per-row vectors of the CriterionParams fields.  Rows
    whose criterion does not optimize a or b get a zero gradient there.
    """

    def __init__(self, params):
        self.params = tuple(params)
        self.updates_a = np.array([p.updates_a for p in self.params], dtype=bool)
        self.updates_b = np.array([p.updates_b for p in self.params], dtype=bool)
        self.blocks = []
        start = 0
        for kind, group in itertools.groupby(self.params, key=lambda p: p.kind):
            group = list(group)
            coef = tuple(np.array(c) for c in zip(*(p.coefficients for p in group)))
            rows = slice(start, start + len(group))
            self.blocks.append((rows, CRITERIA[kind], coef))
            start = rows.stop

    def select(self, keep) -> "CriterionStack":
        """The stack of the rows flagged in the boolean mask ``keep``."""
        return CriterionStack([p for p, k in zip(self.params, keep) if k])

    def objective(self, values, dscore, rows, a, b):
        """(value, grad_h, grad_a, grad_b) of every row on one shared batch.

        ``values`` (r, n) and ``dscore`` (r, n, K) are each row's losses and
        score derivatives on the design ``rows`` (n, d); ``a``/``b`` are (r,).
        A one-row stack also takes a lone run as it is: (n,) values, (n, K)
        dscore and float a, b give a float value, grad_a and grad_b and a
        (K, d) grad_h, computed with the float coefficients.
        """
        if not isinstance(a, np.ndarray):
            (p,) = self.params
            v, gh, ga, gb = p.record.objective(values, dscore, rows, a, b, *p.coefficients)
            return float(v), gh, 0.0 if ga is None else float(ga), 0.0 if gb is None else float(gb)
        r = len(self.params)
        value = np.empty(r)
        grad_h = np.empty((r, dscore.shape[2], rows.shape[1]))
        grad_a = np.zeros(r)
        grad_b = np.zeros(r)
        for sl, record, coef in self.blocks:
            v, gh, ga, gb = record.objective(
                values[sl], dscore[sl], rows, a[sl], b[sl], *coef
            )
            value[sl] = v
            grad_h[sl] = gh
            if ga is not None:
                grad_a[sl] = ga
            if gb is not None:
                grad_b[sl] = gb
        return value, grad_h, grad_a, grad_b

    def value(self, values, a, b, start: int = 0) -> np.ndarray:
        """Row-wise ``criterion_value`` of the (r, n) loss matrix of rows
        ``start`` to ``start + r`` of the stack; ``a``/``b`` are those rows'."""
        out = np.empty(values.shape[0])
        for sl, record, coef in self.blocks:
            lo, hi = max(sl.start, start), min(sl.stop, start + values.shape[0])
            if lo < hi:
                own = slice(lo - sl.start, hi - sl.start)
                at = slice(lo - start, hi - start)
                out[at] = record.value(values[at], a[at], b[at], *(c[own] for c in coef))
        return out


def mean_sd(values, lam: float = 1.0):
    """Sample mean plus sqrt(lam * sample variance), variance with divisor n.

    Reduces the last axis: a float for one sample, an array for a stack.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    n = values.shape[-1]
    if n == 0:
        raise ValueError("mean_sd requires at least one loss")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    # the sums and divisions of np.mean and np.var, without their call overhead
    mean = values.sum(axis=-1, keepdims=True) / n
    dev = values - mean
    dev *= dev
    out = mean[..., 0] + np.sqrt(lam * (dev.sum(axis=-1) / n))
    return float(out) if out.ndim == 0 else out


def partial_objective_grads(x: float, a: float, b: float, beta: float):
    """Gradient of (a, b) -> beta*b + b*rho((x - a)/b) at a single point.

    Component bounds: |d/da| < 1 and d/db in (beta - 1, beta), so the 1-norm
    never exceeds 1 + max(1 - beta, beta).
    """
    if b <= 0.0:
        raise ValueError("b must be positive")
    r = x - a
    s = math.hypot(r, b)
    return (-r / s, beta + b / s - 1.0)


def hessian_quadform(x: float, b: float, u1: float, u2: float) -> float:
    """Quadratic form <H u, u> of the (x, b) Hessian of b*rho(x/b).

    Equals (u1*b - u2*x)^2 / (x^2 + b^2)^(3/2): nonnegative everywhere, but
    unbounded along x = b as b -> 0, which is why the gradient of the
    partial objective is not Lipschitz.
    """
    if b <= 0.0:
        raise ValueError("b must be positive")
    num = u1 * b - u2 * x
    return num * num / math.hypot(x, b) ** 3
