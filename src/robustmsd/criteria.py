"""Empirical learning criteria and their (sub)gradients.

The central object is the joint location/scale robust objective

    alpha*a + beta*b + (lambda*b/n) * sum_i rho((l_i - a)/b),

with rho(x) = sqrt(x^2 + 1) - 1, minimized jointly in the model weights h,
the threshold a and the scale b.  Alongside it live the benchmark criteria
(plain mean, CVaR dual, chi-square divergence-ball dual), the sqrt(n)
parameter schedule that fixes (alpha, beta) before seeing data, and the
evaluation-side mean-SD functional.

Each criterion kind is one ``Criterion`` record in ``CRITERIA``: one kernel
per kind, value-only when ``dscore`` is None, and what else differs by kind.
A kernel takes losses of shape (..., n): one run's (n,) losses with float
a, b and coefficients, or r stacked runs' (r, n) losses with (r,) arrays,
every row getting the bits it has alone.  It reduces its batch to a value
(one formula for a training step and a checkpoint) plus one per-example
weight on the loss gradients:
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
    "BoundError",
    "schedule_params",
    "default_lam",
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
# stacked runs; ``_col`` lines an array up with the (r, n) losses.  A kernel
# writes its per-example terms into the rows of one (terms, ..., n) buffer
# and ``_means`` sums them in one ``np.add.reduce`` over the examples, which
# gives each row the bits of reducing it alone.


def _col(x, axes: int = 1):
    """A per-run array with ``axes`` unit axes appended; a float as it is."""
    return x.reshape(x.shape + (1,) * axes) if isinstance(x, np.ndarray) else x


def _means(terms: np.ndarray, n: int):
    """Row means of a (terms, ..., n) buffer; floats for a lone run's."""
    sums = np.add.reduce(terms, -1)
    return [s / n for s in sums.tolist()] if sums.ndim == 1 else sums / n


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
    terms = np.empty((1 if dscore is None else 3,) + r.shape)
    np.divide(rr, sb, out=terms[0])
    if dscore is not None:
        w = np.divide(r, s, out=terms[1])
        np.divide(rr, np.multiply(s, sb, out=terms[2]), out=terms[2])  # 1 - b/s
    means = _means(terms, n)
    value = alpha * a + beta * b + lam * means[0]
    if dscore is None:
        return value, None, None, None
    _, mean_w, mean_curv = means
    grad_a = alpha - lam * mean_w
    # beta + lam*mean(b/s - 1), written without the b/s - 1 cancellation
    grad_b = beta - lam * mean_curv
    grad_h = _col(lam, 2) * _contract(dscore, rows, w) / n
    return value, grad_h, grad_a, grad_b


def _erm(values, dscore, rows, a, b):
    """Plain mean of the losses; gradient is the mean per-example gradient."""
    n = values.shape[-1]
    grad_h = None if dscore is None else _contract(dscore, rows, None) / n
    return np.add.reduce(values, -1) / n, grad_h, None, None


def _cvar(values, dscore, rows, a, b, xi):
    """Variational CVaR objective a + mean((l - a)_+) / (1 - xi).

    At kinks (l_i == a exactly) the subgradient treating the example as
    inactive is used, so runs are deterministic.  A NaN loss makes the
    value NaN and weighs nothing in the gradient.
    """
    n = values.shape[-1]
    terms = np.empty((1 if dscore is None else 2,) + values.shape)
    pos = np.subtract(values, _col(a), out=terms[-1])  # terms[0] when value-only
    np.maximum(pos, 0.0, out=terms[0])
    if dscore is not None:
        weight = np.greater(pos, 0.0, out=terms[1])  # the active indicator
    means = _means(terms, n)
    value = a + means[0] / (1.0 - xi)  # not inv * the mean excess, which rounds apart
    if dscore is None:
        return value, None, None, None
    inv = 1.0 / (1.0 - xi)
    grad_a = 1.0 - inv * means[1]
    grad_h = _col(inv, 2) * _contract(dscore, rows, weight) / n
    return value, grad_h, grad_a, None


def _chisq_dro(values, dscore, rows, a, b, eta_tilde):
    """Chi-square divergence-ball dual a + sqrt(1+2*eta) * sqrt(mean((l-a)_+^2)).

    ``eta_tilde`` in (0, 1) re-parameterizes the ball radius via
    eta = (1/(1-eta_tilde) - 1)/2.  When every positive part vanishes the
    gradient of the root term is defined as 0 (a valid subgradient).
    """
    n = values.shape[-1]
    eta = (1.0 / (1.0 - eta_tilde) - 1.0) / 2.0
    terms = np.empty((2,) + values.shape)
    pos = np.maximum(values - _col(a), 0.0, out=terms[1])
    np.multiply(pos, pos, out=terms[0])
    mean_sq, mean_pos = _means(terms, n)
    value = a + np.sqrt((1.0 + 2.0 * eta) * mean_sq)  # not coef * root, which rounds apart
    if dscore is None:
        return value, None, None, None
    coef = np.sqrt(1.0 + 2.0 * eta)
    flat = mean_sq == 0.0
    root = np.sqrt(mean_sq + flat)  # 1 where flat; + 0.0 leaves the rest exact
    grad_a = 1.0 - coef * mean_pos / root
    grad_h = _col(coef, 2) * _contract(dscore, rows, pos)
    grad_h /= _col(n * root, 2)
    if np.count_nonzero(flat):
        grad_a = np.where(flat, 1.0, grad_a)
        grad_h[flat] = 0.0
    return value, grad_h, grad_a, None


@dataclass(frozen=True)
class Criterion:
    """One criterion kind: its kernel and what else differs by kind.

    ``objective(values, dscore, rows, a, b, *coef)`` gives (value, grad_h,
    grad_a, grad_b), None for a gradient the kind lacks; ``coef`` are the
    ``CriterionParams`` fields named in ``coefficients``.  With ``dscore``
    and ``rows`` None the call is value-only: it computes only the value's
    per-example terms and returns None for every gradient, and the value
    has the same bits.  ``setting`` is the field a sweep setting fills (None:
    the kind takes none) and ``label`` formats a run's file-name tag.
    """

    objective: Callable
    coefficients: Tuple[str, ...]
    setting: Optional[str]
    label: str
    updates_a: bool
    updates_b: bool


CRITERIA = {  # kernel, coefficients, setting, label, updates_a, updates_b
    "sunhuber": Criterion(_sunhuber, ("alpha", "beta", "lam"), "beta0",
                          "sunhuber_b0={0.beta0:g}", True, True),
    "erm": Criterion(_erm, (), None, "erm", False, False),
    "cvar": Criterion(_cvar, ("xi",), "xi", "cvar_xi={0.xi:g}", True, False),
    "chisq_dro": Criterion(_chisq_dro, ("eta_tilde",), "eta_tilde",
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


class BoundError(ValueError):
    """A beta0 and a lam, each in its own range, that give beta = beta0/sqrt(n) >= lam."""


def schedule_params(n: int, beta0: float, lam: float) -> CriterionParams:
    """Fix (alpha, beta) from the sample size alone: beta = beta0/sqrt(n), alpha = beta.

    Rejects configurations violating 0 < beta < lam; beta >= lam raises BoundError.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (beta0 > 0.0 and lam > 0.0):
        raise ValueError("beta0 and lam must be positive")
    beta = beta0 / math.sqrt(n)
    if not beta < lam:
        raise BoundError(
            f"beta = beta0/sqrt(n) = {beta:g} must stay below lam = {lam:g}"
        )
    return CriterionParams("sunhuber", alpha=beta, beta=beta, lam=lam, beta0=beta0)


def default_lam(n_train: int) -> float:
    return math.log(n_train) / math.sqrt(n_train)


def make_criterion(kind: str, setting, n_train: int, lam: Optional[float]) -> CriterionParams:
    """The criterion of one sweep setting (None for a kind that takes none).

    A beta0 goes through the sqrt(n) schedule, at ``default_lam(n_train)`` when
    ``lam`` is None.  An unknown kind or a setting the kind rejects raises
    ValueError naming the kind (BoundError where beta >= lam).
    """
    field = criterion_record(kind).setting
    try:
        if field == "beta0":
            return schedule_params(n_train, setting, default_lam(n_train) if lam is None else lam)
        return CriterionParams(kind, **({field: setting} if field else {}))
    except ValueError as err:
        raise type(err)(f"{kind} setting {setting!r}: {err}") from None


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
    coef = params.coefficients
    return float(params.record.objective(values, None, None, state.a, state.b, *coef)[0])


class CriterionStack:
    """The criteria of R runs stacked as rows, evaluated block by block.

    Each maximal stretch of consecutive rows of one kind forms a block whose
    coefficients are per-row vectors of the CriterionParams fields.  Rows
    whose criterion does not optimize a or b get a zero gradient there.
    """

    def __init__(self, params):
        self.params = tuple(params)
        self.updates_a = np.array([p.record.updates_a for p in self.params], dtype=bool)
        self.updates_b = np.array([p.record.updates_b for p in self.params], dtype=bool)
        self.blocks = []
        start = 0
        for kind, group in itertools.groupby(self.params, key=lambda p: p.kind):
            group = list(group)
            coef = tuple(np.array(c) for c in zip(*(p.coefficients for p in group)))
            rows = slice(start, start + len(group))
            self.blocks.append((rows, CRITERIA[kind], coef))
            start = rows.stop
        if len(self.params) == 1:  # a lone run's kernel and float coefficients
            self._lone = self.params[0].record.objective, self.params[0].coefficients

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
            kernel, coef = self._lone
            v, gh, ga, gb = kernel(values, dscore, rows, a, b, *coef)
            return float(v), gh, 0.0 if ga is None else float(ga), 0.0 if gb is None else float(gb)
        r = len(self.params)
        value = np.empty(r)
        grad_h = np.empty((r, dscore.shape[2], rows.shape[1]))
        grad_a, grad_b = np.zeros(r), np.zeros(r)
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
                own = [c[lo - sl.start : hi - sl.start] for c in coef]
                at = slice(lo - start, hi - start)
                out[at] = record.objective(values[at], None, None, a[at], b[at], *own)[0]
        return out


def mean_sd(values, *, mean=None):
    """Sample mean plus sample standard deviation, variance with divisor n.

    Reduces the last axis: a float for one sample, an array for a stack.
    A caller that already holds the sample mean, ``np.add.reduce(values,
    -1) / n``, passes it as ``mean`` and it is not summed again.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    n = values.shape[-1]
    if n == 0:
        raise ValueError("mean_sd requires at least one loss")
    # the sums and divisions of np.mean and np.var, without their call overhead
    if mean is None:
        mean = np.add.reduce(values, -1) / n
    dev = values - np.expand_dims(mean, -1)
    dev *= dev
    out = mean + np.sqrt(np.add.reduce(dev, -1) / n)
    return float(out) if out.ndim == 0 else out


def partial_objective_grads(x, a, b, beta):
    """Gradient of (a, b) -> beta*b + b*rho((x - a)/b), elementwise.

    Component bounds: |d/da| < 1 and d/db in (beta - 1, beta), so the 1-norm
    never exceeds 1 + max(1 - beta, beta).
    """
    if np.any(b <= 0.0):
        raise ValueError("b must be positive")
    r = x - a
    s = np.hypot(r, b)
    return (-r / s, beta + b / s - 1.0)


def hessian_quadform(x, b, u1, u2):
    """Quadratic form <H u, u> of the (x, b) Hessian of b*rho(x/b), elementwise.

    Equals (u1*b - u2*x)^2 / (x^2 + b^2)^(3/2): nonnegative everywhere, but
    unbounded along x = b as b -> 0, which is why the gradient of the
    partial objective is not Lipschitz.
    """
    if np.any(b <= 0.0):
        raise ValueError("b must be positive")
    num = u1 * b - u2 * x
    s = np.hypot(x, b)
    return num * num / (s * s * s)  # not s ** 3, whose bits differ between arrays and floats
