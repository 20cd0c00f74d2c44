"""Empirical learning criteria and their (sub)gradients.

The central object is the joint location/scale robust objective

    alpha*a + beta*b + (lambda*b/n) * sum_i rho((l_i - a)/b),

with rho(x) = sqrt(x^2 + 1) - 1, minimized jointly in the model weights h,
the threshold a and the scale b.  Alongside it live the benchmark criteria
(plain mean, CVaR dual, chi-square divergence-ball dual), the sqrt(n)
parameter schedule that fixes (alpha, beta) before seeing data, and the
evaluation-side mean-SD / mean-variance functionals.

Each training objective reduces its batch to scalars plus one per-example
weight on the loss gradients: (l_i - a)/sqrt((l_i - a)^2 + b^2) for the
joint objective, 1 for the mean, the active indicator for CVaR and the
positive part for the divergence dual.  The weight gradient grad_h is that
weight contracted with the batch's score derivatives and design rows (see
``model.LossBatch``), so no per-example gradient is ever materialised.

Throughout, the per-example deviation term b*rho(r/b) is computed as
r^2 / (sqrt(r^2 + b^2) + b), which is exact algebra but avoids the
catastrophic cancellation of sqrt(r^2 + b^2) - b for large scales.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import LossBatch

__all__ = [
    "KINDS",
    "CriterionParams",
    "JointState",
    "ObjectiveEval",
    "schedule_params",
    "sunhuber_objective",
    "erm_objective",
    "cvar_objective",
    "chisq_dro_objective",
    "evaluate_objective",
    "criterion_value",
    "CriterionStack",
    "mean_sd",
    "mean_variance",
    "mean_variance_variational",
    "mean_variance_minimizer",
    "partial_objective_grads",
    "hessian_quadform",
]

KINDS = ("sunhuber", "erm", "cvar", "chisq_dro")


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "cvar":
            if self.xi is None or not 0.0 < self.xi < 1.0:
                raise ValueError(f"cvar requires xi in (0, 1), got {self.xi!r}")
        if self.kind == "chisq_dro":
            if self.eta_tilde is None or not 0.0 < self.eta_tilde < 1.0:
                raise ValueError(
                    f"chisq_dro requires eta_tilde in (0, 1), got {self.eta_tilde!r}"
                )
        if self.kind == "sunhuber":
            if self.alpha < 0.0 or self.beta < 0.0:
                raise ValueError("alpha and beta must be nonnegative")
            if self.lam <= 0.0:
                raise ValueError("lam must be positive")

    def label(self) -> str:
        """Short human-readable tag used in run file names."""
        if self.kind == "sunhuber":
            return f"sunhuber_b0={self.beta0:g}"
        if self.kind == "cvar":
            return f"cvar_xi={self.xi:g}"
        if self.kind == "chisq_dro":
            return f"chisq_dro_eta={self.eta_tilde:g}"
        return "erm"

    @property
    def updates_a(self) -> bool:
        """Whether the threshold a is an optimization variable."""
        return self.kind != "erm"

    @property
    def updates_b(self) -> bool:
        """Whether the scale b is an optimization variable."""
        return self.kind == "sunhuber"


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

    def copy(self) -> "JointState":
        return JointState(h=self.h.copy(), a=self.a, b=self.b)


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
    if beta0 <= 0.0 or lam <= 0.0:
        raise ValueError("beta0 and lam must be positive")
    beta = beta0 / math.sqrt(n)
    if beta >= lam:
        raise ValueError(
            f"beta = beta0/sqrt(n) = {beta:g} must stay below lam = {lam:g}"
        )
    return CriterionParams("sunhuber", alpha=beta, beta=beta, lam=lam, beta0=beta0)


def _check_batch(losses: LossBatch):
    if len(losses) == 0:
        raise ValueError("empty loss batch")


def _weighted_grad(losses: LossBatch, weight) -> np.ndarray:
    """sum_i weight[i] * dscore[i] (x) rows[i], shape (K, d); None weighs all by 1.

    Single-output batches scale the design rows first and then contract
    over examples, the same multiply and sum order as building each
    per-example gradient and reducing over the batch, so binary runs stay
    bitwise reproducible.
    """
    dscore, rows = losses.dscore, losses.rows
    if dscore.shape[1] == 1:
        grads = dscore * rows
        summed = grads.sum(axis=0) if weight is None else weight @ grads
        return summed[None, :]
    if weight is not None:
        dscore = weight[:, None] * dscore
    return dscore.T @ rows


def sunhuber_objective(
    losses: LossBatch, state: JointState, params: CriterionParams
) -> ObjectiveEval:
    """Joint robust objective alpha*a + beta*b + (lam*b/n) sum rho((l-a)/b)."""
    if params.kind != "sunhuber":
        raise ValueError(f"expected sunhuber params, got kind {params.kind!r}")
    _check_batch(losses)
    if state.b <= 0.0:
        raise ValueError("b must be positive")
    n = len(losses)
    b = state.b
    r = losses.values - state.a
    rr = r * r
    s = np.sqrt(rr + b * b)
    sb = s + b
    value = params.alpha * state.a + params.beta * b + params.lam * (
        (rr / sb).sum() / n
    )
    w = r / s
    grad_a = params.alpha - params.lam * float(w.sum() / n)
    # beta + lam*mean(b/s - 1), written without the b/s - 1 cancellation
    grad_b = params.beta - params.lam * float((rr / (s * sb)).sum() / n)
    grad_h = params.lam * _weighted_grad(losses, w) / n
    return ObjectiveEval(float(value), grad_h, grad_a, grad_b)


def erm_objective(losses: LossBatch) -> ObjectiveEval:
    """Plain mean of the losses; gradient is the mean per-example gradient."""
    _check_batch(losses)
    n = len(losses)
    return ObjectiveEval(
        float(losses.values.sum() / n), _weighted_grad(losses, None) / n
    )


def cvar_objective(losses: LossBatch, a: float, xi: float) -> ObjectiveEval:
    """Variational CVaR objective a + mean((l - a)_+) / (1 - xi).

    At kinks (l_i == a exactly) the subgradient treating the example as
    inactive is used, so runs are deterministic.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0, 1), got {xi!r}")
    _check_batch(losses)
    n = len(losses)
    inv = 1.0 / (1.0 - xi)
    pos = losses.values - a
    active = pos > 0.0
    weight = active.astype(float)
    value = a + inv * float(np.where(active, pos, 0.0).sum() / n)
    grad_a = 1.0 - inv * float(weight.sum() / n)
    grad_h = inv * _weighted_grad(losses, weight) / n
    return ObjectiveEval(value, grad_h, grad_a, None)


def chisq_dro_objective(
    losses: LossBatch, a: float, eta_tilde: float
) -> ObjectiveEval:
    """Chi-square divergence-ball dual a + sqrt(1+2*eta) * sqrt(mean((l-a)_+^2)).

    ``eta_tilde`` in (0, 1) re-parameterizes the ball radius via
    eta = (1/(1-eta_tilde) - 1)/2.  When every positive part vanishes the
    gradient of the root term is defined as 0 (a valid subgradient).
    """
    if not 0.0 < eta_tilde < 1.0:
        raise ValueError(f"eta_tilde must lie in (0, 1), got {eta_tilde!r}")
    _check_batch(losses)
    n = len(losses)
    eta = (1.0 / (1.0 - eta_tilde) - 1.0) / 2.0
    coef = math.sqrt(1.0 + 2.0 * eta)
    pos = np.maximum(losses.values - a, 0.0)
    mean_sq = float((pos * pos).sum() / n)
    if mean_sq == 0.0:
        grad_h = np.zeros((losses.dscore.shape[1], losses.rows.shape[1]))
        return ObjectiveEval(float(a), grad_h, 1.0, None)
    root = math.sqrt(mean_sq)
    value = a + coef * root
    grad_a = 1.0 - coef * float(pos.sum() / n) / root
    grad_h = coef * _weighted_grad(losses, pos) / (n * root)
    return ObjectiveEval(value, grad_h, grad_a, None)


def evaluate_objective(
    losses: LossBatch, state: JointState, params: CriterionParams
) -> ObjectiveEval:
    """Dispatch to the objective selected by ``params.kind``."""
    if params.kind == "sunhuber":
        return sunhuber_objective(losses, state, params)
    if params.kind == "erm":
        return erm_objective(losses)
    if params.kind == "cvar":
        return cvar_objective(losses, state.a, params.xi)
    return chisq_dro_objective(losses, state.a, params.eta_tilde)


def criterion_value(values, state: JointState, params: CriterionParams) -> float:
    """Objective value only, from raw loss values (no gradients needed)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("empty loss values")
    if params.kind == "erm":
        return float(values.sum() / n)
    if params.kind == "cvar":
        pos = np.maximum(values - state.a, 0.0)
        return state.a + float(pos.sum() / n) / (1.0 - params.xi)
    if params.kind == "chisq_dro":
        eta = (1.0 / (1.0 - params.eta_tilde) - 1.0) / 2.0
        pos = np.maximum(values - state.a, 0.0)
        return state.a + math.sqrt((1.0 + 2.0 * eta) * float((pos * pos).sum() / n))
    b = state.b
    r = values - state.a
    dev = r * r / (np.sqrt(r * r + b * b) + b)
    return params.alpha * state.a + params.beta * b + params.lam * float(dev.sum() / n)


# ------------------------------------------------------------ stacked runs
#
# Runs trained together keep their losses as an (r, n) matrix, one row per
# run.  Each block kernel below evaluates the rows of one criterion kind with
# per-row coefficient vectors, performing per row the same arithmetic, in the
# same order, as the single-run function it mirrors, so every row carries
# the bits of a run evaluated alone.


def _stacked_grad(dscore, rows, weight) -> np.ndarray:
    """Row-wise ``_weighted_grad``: (r, n, K) derivatives, (n, d) rows -> (r, K, d).

    Stacked ``np.matmul`` makes one BLAS call per row, the call the single
    run makes, and the unweighted sum runs down the same axis.  The
    single-run form stays separate: at r = 1 it costs less per call.
    """
    if dscore.shape[2] == 1:
        grads = dscore * rows
        if weight is None:
            return grads.sum(axis=1)[:, None, :]
        return np.matmul(weight[:, None, :], grads)
    if weight is not None:
        dscore = weight[:, :, None] * dscore
    return np.matmul(dscore.transpose(0, 2, 1), rows)


def _sunhuber_block(values, dscore, rows, a, b, alpha, beta, lam):
    n = values.shape[1]
    r = values - a[:, None]
    rr = r * r
    s = np.sqrt(rr + (b * b)[:, None])
    sb = s + b[:, None]
    value = alpha * a + beta * b + lam * ((rr / sb).sum(axis=1) / n)
    w = r / s
    grad_a = alpha - lam * (w.sum(axis=1) / n)
    grad_b = beta - lam * ((rr / (s * sb)).sum(axis=1) / n)
    grad_h = lam[:, None, None] * _stacked_grad(dscore, rows, w) / n
    return value, grad_h, grad_a, grad_b


def _sunhuber_block_value(values, a, b, alpha, beta, lam):
    r = values - a[:, None]
    dev = r * r / (np.sqrt(r * r + (b * b)[:, None]) + b[:, None])
    return alpha * a + beta * b + lam * (dev.sum(axis=1) / values.shape[1])


def _erm_block(values, dscore, rows, a, b):
    n = values.shape[1]
    return values.sum(axis=1) / n, _stacked_grad(dscore, rows, None) / n, None, None


def _erm_block_value(values, a, b):
    return values.sum(axis=1) / values.shape[1]


def _cvar_block(values, dscore, rows, a, b, xi):
    n = values.shape[1]
    inv = 1.0 / (1.0 - xi)
    pos = values - a[:, None]
    active = pos > 0.0
    weight = active.astype(float)
    value = a + inv * (np.where(active, pos, 0.0).sum(axis=1) / n)
    grad_a = 1.0 - inv * (weight.sum(axis=1) / n)
    grad_h = inv[:, None, None] * _stacked_grad(dscore, rows, weight) / n
    return value, grad_h, grad_a, None


def _cvar_block_value(values, a, b, xi):
    pos = np.maximum(values - a[:, None], 0.0)
    return a + (pos.sum(axis=1) / values.shape[1]) / (1.0 - xi)


def _chisq_dro_block(values, dscore, rows, a, b, eta_tilde):
    n = values.shape[1]
    eta = (1.0 / (1.0 - eta_tilde) - 1.0) / 2.0
    coef = np.sqrt(1.0 + 2.0 * eta)
    pos = np.maximum(values - a[:, None], 0.0)
    mean_sq = (pos * pos).sum(axis=1) / n
    flat = mean_sq == 0.0  # every positive part vanishes: subgradient 0
    root = np.sqrt(np.where(flat, 1.0, mean_sq))
    value = np.where(flat, a, a + coef * root)
    grad_a = np.where(flat, 1.0, 1.0 - coef * (pos.sum(axis=1) / n) / root)
    grad_h = coef[:, None, None] * _stacked_grad(dscore, rows, pos)
    grad_h /= (n * root)[:, None, None]
    grad_h[flat] = 0.0
    return value, grad_h, grad_a, None


def _chisq_dro_block_value(values, a, b, eta_tilde):
    eta = (1.0 / (1.0 - eta_tilde) - 1.0) / 2.0
    pos = np.maximum(values - a[:, None], 0.0)
    return a + np.sqrt((1.0 + 2.0 * eta) * ((pos * pos).sum(axis=1) / values.shape[1]))


# kind -> (objective kernel, value kernel, CriterionParams fields they take)
_BLOCK_KERNELS = {
    "sunhuber": (_sunhuber_block, _sunhuber_block_value, ("alpha", "beta", "lam")),
    "erm": (_erm_block, _erm_block_value, ()),
    "cvar": (_cvar_block, _cvar_block_value, ("xi",)),
    "chisq_dro": (_chisq_dro_block, _chisq_dro_block_value, ("eta_tilde",)),
}


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
            objective, value, fields = _BLOCK_KERNELS[kind]
            coef = {f: np.array([getattr(p, f) for p in group]) for f in fields}
            rows = slice(start, start + len(group))
            self.blocks.append((rows, objective, value, coef))
            start = rows.stop

    def select(self, keep) -> "CriterionStack":
        """The stack of the rows flagged in the boolean mask ``keep``."""
        return CriterionStack([p for p, k in zip(self.params, keep) if k])

    def objective(self, values, dscore, rows, a, b):
        """(value, grad_h, grad_a, grad_b) of every row on one shared batch.

        ``values`` (r, n) and ``dscore`` (r, n, K) are each row's losses and
        score derivatives on the design ``rows`` (n, d); ``a``/``b`` are (r,).
        """
        r = len(self.params)
        value = np.empty(r)
        grad_h = np.empty((r, dscore.shape[2], rows.shape[1]))
        grad_a = np.zeros(r)
        grad_b = np.zeros(r)
        for sl, objective, _, coef in self.blocks:
            v, gh, ga, gb = objective(values[sl], dscore[sl], rows, a[sl], b[sl], **coef)
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
        for sl, _, value, coef in self.blocks:
            lo, hi = max(sl.start, start), min(sl.stop, start + values.shape[0])
            if lo < hi:
                own = slice(lo - sl.start, hi - sl.start)
                at = slice(lo - start, hi - start)
                out[at] = value(
                    values[at], a[at], b[at], **{f: c[own] for f, c in coef.items()}
                )
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


def mean_variance(values) -> float:
    """Sample mean plus sample variance (divisor n)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("mean_variance requires at least one loss")
    return float(np.mean(values)) + float(np.var(values))


def mean_variance_variational(values, a: float) -> float:
    """Convex surrogate a + (mean((l - a)^2) + 1)/2 whose minimizer is mean - 1.

    Note the minimum value is mean + variance/2, i.e. it tracks the
    mean-variance sum with the variance halved; see the module tests.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty loss values")
    d = values - a
    return a + (float(np.mean(d * d)) + 1.0) / 2.0


def mean_variance_minimizer(values) -> float:
    """Analytic minimizer (sample mean - 1) of the variational surrogate."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty loss values")
    return float(np.mean(values)) - 1.0


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
