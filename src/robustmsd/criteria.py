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


def mean_sd(values, lam: float = 1.0) -> float:
    """Sample mean plus sqrt(lam * sample variance), variance with divisor n."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("mean_sd requires at least one loss")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    # the sums and divisions of np.mean and np.var, without their call overhead
    mean = values.sum() / n
    dev = values - mean
    return float(mean) + math.sqrt(lam * float((dev * dev).sum() / n))


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
