"""Independent numerical oracles for the formal properties of the criterion.

Everything here works on small, analytically tractable loss distributions
(finite atom lists, or Gaussian/lognormal generators with known moments) and
certifies the population-level claims: the optimal-scale bounds, the
small-beta sandwich for the scale-optimized criterion, concentration of the
data-driven threshold at a shifted location, the stationarity link with the
mean-variance objective, and the first-order equalities of the jointly
optimal (a, b) pair.

Limits are certified by monotone finite sequences with a relative-change
stopping rule; nothing is evaluated symbolically.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .optimizer import B_FLOOR

__all__ = [
    "DiscreteDist",
    "GradientDist",
    "GaussianLosses",
    "LognormalLosses",
    "optimal_scale",
    "check_scale_bounds",
    "check_scale_optimized_limit",
    "check_location_concentration",
    "check_stationarity_equivalence",
    "check_pair_optimality",
    "ScaleBoundsReport",
    "ScaleLimitReport",
    "CoverageReport",
    "StationarityReport",
    "PairOptimalityReport",
]

PROB_TOL = 1e-12
THRESHOLD_BLOCK = 65536  # losses bisected at once per row block (512 KiB per temporary)


@dataclass(frozen=True)
class DiscreteDist:
    """Finite distribution of loss values: atoms (value, prob)."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.values.shape != self.probs.shape or self.values.ndim != 1:
            raise ValueError("values and probs must be matching 1-D arrays")
        if np.any(self.probs <= 0.0):
            raise ValueError("atom probabilities must be positive")
        if abs(float(self.probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {self.probs.sum()!r}, not 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("atom values must be finite")

    @classmethod
    def from_atoms(cls, atoms: Sequence[Tuple[float, float]]) -> "DiscreteDist":
        vals, probs = zip(*atoms)
        return cls(np.array(vals), np.array(probs))

    @classmethod
    def uniform(cls, values) -> "DiscreteDist":
        values = np.asarray(values, dtype=float)
        return cls(values, np.full(values.size, 1.0 / values.size))

    def mean(self) -> float:
        return float(self.probs @ self.values)

    def var(self) -> float:
        m = self.mean()
        return float(self.probs @ (self.values - m) ** 2)

    def second_moment_about(self, a: float) -> float:
        return float(self.probs @ (self.values - a) ** 2)


def _scale_condition_lhs(dist: DiscreteDist, a: float, b: float) -> float:
    """E[b / sqrt((L-a)^2 + b^2)]: continuous, increasing in b, range (P(L=a), 1)."""
    r = dist.values - a
    return float(dist.probs @ (b / np.sqrt(r * r + b * b)))


def _deviation_term(dist: DiscreteDist, a: float, b: float) -> float:
    """E[sqrt((L-a)^2 + b^2) - b], in the cancellation-free form."""
    r = dist.values - a
    return float(dist.probs @ (r * r / (np.sqrt(r * r + b * b) + b)))


def optimal_scale(dist: DiscreteDist, a: float, beta: float, lam: float) -> float:
    """Optimal scale: the root b of E[b/sqrt((L-a)^2+b^2)] = 1 - beta/lam.

    The left side is continuous and strictly increasing in b with range
    (P(L=a), 1), so a unique root exists iff P(L=a) < 1 - beta/lam; the
    bracket endpoints are checked before bisecting to relative tolerance
    1e-10.
    """
    if not 0.0 < beta < lam:
        raise ValueError(f"need 0 < beta < lam, got beta={beta!r}, lam={lam!r}")
    target = 1.0 - beta / lam
    p_at_a = float(dist.probs[dist.values == a].sum())
    if p_at_a >= target:
        raise ValueError(
            f"degenerate distribution: P(L=a)={p_at_a:g} >= 1-beta/lam={target:g}; "
            "the scale condition is unsatisfiable"
        )
    # Start from the theoretical upper bound sqrt(lam/(2 beta) E(L-a)^2).
    hi = math.sqrt(lam / (2.0 * beta) * dist.second_moment_about(a)) * 2.0
    while _scale_condition_lhs(dist, a, hi) <= target:
        hi *= 2.0
    lo = hi / 2.0
    while _scale_condition_lhs(dist, a, lo) >= target:
        lo /= 2.0
    assert _scale_condition_lhs(dist, a, lo) < target < _scale_condition_lhs(
        dist, a, hi
    )
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if _scale_condition_lhs(dist, a, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class ScaleBoundsReport:
    b_star: float
    b_sq: float
    lower: float
    upper: float
    passed: bool


def check_scale_bounds(
    dist: DiscreteDist, a: float, beta: float, lam: float
) -> ScaleBoundsReport:
    """Certify (lam/4beta) E[1{|L-a|<=b*}(L-a)^2] <= b*^2 <= (lam/2beta) E[(L-a)^2]."""
    b_star = optimal_scale(dist, a, beta, lam)
    r = dist.values - a
    inside = np.abs(r) <= b_star
    lower = lam / (4.0 * beta) * float(dist.probs @ (inside * r * r))
    upper = lam / (2.0 * beta) * dist.second_moment_about(a)
    b_sq = b_star * b_star
    # tiny slack for the bisection tolerance on b_star
    tol = 1e-8 * max(1.0, b_sq)
    passed = (lower <= b_sq + tol) and (b_sq <= upper + tol)
    return ScaleBoundsReport(b_star, b_sq, lower, upper, passed)


@dataclass
class ScaleLimitReport:
    betas: Tuple[float, ...]
    scaled_values: List[float]
    lower: float
    upper: float
    rel_change: float
    verdict: str  # "pass" | "fail" | "inconclusive"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def check_scale_optimized_limit(
    dist: DiscreteDist,
    a: float,
    lam: float,
    alpha_tilde: float,
    betas: Tuple[float, ...] = (1e-3, 1e-4, 1e-5, 1e-6),
) -> ScaleLimitReport:
    """Sandwich of lim_{beta->0} min_b C(h;a,b)/sqrt(beta) with alpha = alpha_tilde*sqrt(beta).

    Each beta is handled by the bisection oracle for the optimal scale; the
    limit is accepted when the last two scaled values differ by < 1% and the
    final value lies in

        [alpha_tilde*a + 0.5*sqrt(lam E(L-a)^2),
         alpha_tilde*a + 4.0*sqrt(lam E(L-a)^2)].

    Non-convergence (>= 1% change) yields verdict "inconclusive".
    """
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if alpha_tilde < 0.0:
        raise ValueError("alpha_tilde must be nonnegative")
    second = dist.second_moment_about(a)
    degenerate = second == 0.0
    scaled = []
    for beta in betas:
        alpha = alpha_tilde * math.sqrt(beta)
        if degenerate:
            # rho term vanishes identically; the infimum in b sits at the
            # optimizer's scale floor
            value = alpha * a + beta * B_FLOOR
        else:
            b_star = optimal_scale(dist, a, beta, lam)
            value = alpha * a + beta * b_star + lam * _deviation_term(dist, a, b_star)
        scaled.append(value / math.sqrt(beta))
    lower = alpha_tilde * a + 0.5 * math.sqrt(lam * second)
    upper = alpha_tilde * a + 4.0 * math.sqrt(lam * second)
    rel_change = abs(scaled[-1] - scaled[-2]) / max(abs(scaled[-1]), 1e-12)
    slack = 1e-9 * max(1.0, abs(upper))
    if rel_change >= 0.01:
        verdict = "inconclusive"
    elif lower - slack <= scaled[-1] <= upper + slack:
        verdict = "pass"
    else:
        verdict = "fail"
    return ScaleLimitReport(tuple(betas), scaled, lower, upper, rel_change, verdict)


@dataclass(frozen=True)
class GaussianLosses:
    """IID normal losses with known mean and variance."""

    mean: float = 0.0
    sd: float = 1.0

    @property
    def var(self) -> float:
        return self.sd * self.sd

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal(size)


@dataclass(frozen=True)
class LognormalLosses:
    """IID lognormal losses; mean e^(mu+sigma^2/2), known closed-form variance."""

    mu: float = 0.0
    sigma: float = 1.0

    @property
    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    @property
    def var(self) -> float:
        return (math.exp(self.sigma**2) - 1.0) * math.exp(
            2.0 * self.mu + self.sigma**2
        )

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size)


def _solve_thresholds(X: np.ndarray, b: float, alpha: float, lam: float) -> np.ndarray:
    """Row-wise root of (lam/n) sum_i rho'((x_ij - a)/b) = alpha.

    The left side is continuous and strictly decreasing in a with range
    (-lam, lam), so for 0 <= alpha < lam each row has a unique root.  For
    alpha < lam/sqrt(2) it lies in [min - b, max + b]: every rho' term is at
    least 1/sqrt(2) at min - b and negative at max + b, so that bracket
    needs no widening as long as b does not vanish in rounding against the
    losses; other alpha raise ValueError.  Rows are solved in blocks of
    ``THRESHOLD_BLOCK // n`` (at least one), so the bisection's temporaries
    stay in cache, and the blocks are shared among a thread pool that lives
    for the call, one thread per CPU this process may run on (at most one
    per block); numpy releases the GIL in each block's elementwise passes.
    A row's root depends on that row alone and each block writes only its
    own rows, so the result is bitwise the same for any block size and any
    number of threads.
    """
    if not 0.0 <= alpha < lam / math.sqrt(2.0):
        raise ValueError(f"alpha = {alpha:g} must lie in [0, lam/sqrt(2)), lam = {lam:g}")
    trials, n = X.shape
    rows = max(1, THRESHOLD_BLOCK // n)
    blocks = [slice(start, start + rows) for start in range(0, trials, rows)]
    roots = np.empty(trials)

    def solve(block):
        roots[block] = _bisect_rows(X[block], b, alpha, lam)

    workers = max(1, min(len(blocks), _usable_cpus()))
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(solve, blocks))  # re-raises a block's exception
    return roots


def _usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bisect_rows(X: np.ndarray, b: float, alpha: float, lam: float) -> np.ndarray:
    """Lockstep bisection of the rows of X: 64 halvings of [min - b, max + b]."""
    t = np.empty_like(X)
    s = np.empty_like(X)

    def g(a_col):
        # t = (X - a)/b;  t/sqrt(t*t + 1), written into preallocated buffers
        np.subtract(X, a_col[:, None], out=t)
        np.divide(t, b, out=t)
        np.multiply(t, t, out=s)
        np.add(s, 1.0, out=s)
        np.sqrt(s, out=s)
        np.divide(t, s, out=t)
        return lam * np.mean(t, axis=1) - alpha

    lo = X.min(axis=1) - b
    hi = X.max(axis=1) + b
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = g(mid) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


@dataclass
class CoverageReport:
    coverage: float
    required: float
    center: float
    halfwidth: float
    trials: int
    passed: bool


def check_location_concentration(
    losses,
    b: float,
    alpha: float,
    lam: float,
    n: int,
    delta: float,
    trials: int,
    seed: int = 0,
) -> CoverageReport:
    """Monte Carlo certificate of threshold concentration at a shifted location.

    Verifies the admissibility condition

        4*alpha/lam <= 4*(Var/b^2 + log(2/delta)/n) <= 1 - 4*alpha/lam

    up front, then over ``trials`` repetitions draws n IID losses, solves the
    empirical threshold at fixed (h, b), and counts how often it falls within

        |A_n - (E L - 2*(alpha/lam)*b)| <= 2*(Var/b + b*log(2/delta)/n).

    Passes when empirical coverage >= 1 - delta - 3*sqrt(delta(1-delta)/trials).
    The ``(trials, n)`` sample is solved in row blocks of about
    ``THRESHOLD_BLOCK`` losses, bisected in parallel on a thread per usable
    CPU, and every threshold is bitwise what one bisection over the whole
    array gives, whatever the number of CPUs.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if b <= 0.0 or lam <= 0.0 or alpha < 0.0:
        raise ValueError("need b > 0, lam > 0, alpha >= 0")
    for name, count in (("trials", trials), ("n", n)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count!r}")
    var = losses.var
    middle = 4.0 * (var / (b * b) + math.log(2.0 / delta) / n)
    if not 4.0 * alpha / lam <= middle <= 1.0 - 4.0 * alpha / lam:
        raise ValueError(
            f"admissibility condition violated: 4a/lam={4*alpha/lam:g}, "
            f"middle={middle:g}, 1-4a/lam={1-4*alpha/lam:g}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    X = losses.draw(rng, (trials, n))
    A = _solve_thresholds(X, b, alpha, lam)
    center = losses.mean - 2.0 * (alpha / lam) * b
    halfwidth = 2.0 * (var / b + b * math.log(2.0 / delta) / n)
    coverage = float(np.mean(np.abs(A - center) <= halfwidth))
    required = 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    return CoverageReport(coverage, required, center, halfwidth, trials, coverage >= required)


@dataclass(frozen=True)
class GradientDist:
    """Finite distribution over (loss value, loss gradient) pairs."""

    values: np.ndarray
    grads: np.ndarray  # shape (m, d)
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "grads", np.atleast_2d(np.asarray(self.grads, dtype=float)))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.values.shape[0] != self.grads.shape[0] or self.values.shape != self.probs.shape:
            raise ValueError("values, grads and probs must align")
        if np.any(self.probs <= 0.0) or abs(float(self.probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError("probs must be positive and sum to 1")


@dataclass
class StationarityReport:
    mv_grad: np.ndarray
    diffs: List[float]
    passed: bool


def check_stationarity_equivalence(
    dist: GradientDist, bs: Tuple[float, ...] = (1e1, 1e2, 1e3, 1e4)
) -> StationarityReport:
    """Check the large-b gradient surrogate against the mean-variance gradient.

    With a_mv = E L - 1, the target is mv' = E[(L - a_mv) L'] and the
    surrogate is g(b) = E[(L - a_mv)/sqrt(((L-a_mv)/b)^2 + 1) * L'].  The
    report passes when ||g(b) - mv'|| is nonincreasing across ``bs`` and the
    final gap is <= 1e-3 * (1 + ||mv'||).
    """
    a_mv = float(dist.probs @ dist.values) - 1.0
    r = dist.values - a_mv
    mv_grad = (dist.probs * r) @ dist.grads
    diffs = []
    for b in bs:
        w = r / np.sqrt((r / b) ** 2 + 1.0)
        g_b = (dist.probs * w) @ dist.grads
        diffs.append(float(np.linalg.norm(g_b - mv_grad)))
    nonincreasing = all(
        diffs[i + 1] <= diffs[i] + 1e-15 for i in range(len(diffs) - 1)
    )
    small = diffs[-1] <= 1e-3 * (1.0 + float(np.linalg.norm(mv_grad)))
    return StationarityReport(mv_grad, diffs, nonincreasing and small)


def _location_residual(dist: DiscreteDist, a: float, b: float) -> float:
    """E[(L-a)/sqrt((L-a)^2 + b^2)]: continuous, strictly decreasing in a."""
    r = dist.values - a
    return float(dist.probs @ (r / np.sqrt(r * r + b * b)))


def _solve_location(dist: DiscreteDist, b: float, target: float) -> float:
    lo = float(dist.values.min()) - b
    hi = float(dist.values.max()) + b
    widen = b
    while _location_residual(dist, lo, b) <= target:
        lo -= widen
        widen *= 2.0
    widen = b
    while _location_residual(dist, hi, b) >= target:
        hi += widen
        widen *= 2.0
    for _ in range(200):
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if _location_residual(dist, mid, b) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class PairOptimalityReport:
    a_star: float
    b_star: float
    location_residual: float
    scale_residual: float
    sweeps: int
    converged: bool
    passed: bool


def check_pair_optimality(
    dist: DiscreteDist,
    alpha: float,
    beta: float,
    lam: float,
    tol: float = 1e-10,
    max_sweeps: int = 10_000,
) -> PairOptimalityReport:
    """Jointly minimize over (a, b) by alternating bisections and check both
    first-order equalities

        E[(L-a)/sqrt((L-a)^2+b^2)] = alpha/lam,
        E[b/sqrt((L-a)^2+b^2)]     = 1 - beta/lam.

    The partial objective is jointly convex in (a, b), so failure to drive
    both residuals below ``tol`` within ``max_sweeps`` is reported as
    non-convergence.  Existence of an interior optimum requires
    (alpha/lam)^2 + (1-beta/lam)^2 < 1 (Cauchy-Schwarz on the two unit-split
    terms); configurations violating it are rejected.
    """
    if not 0.0 <= alpha < lam:
        raise ValueError("need 0 <= alpha < lam")
    if not 0.0 < beta < lam:
        raise ValueError("need 0 < beta < lam")
    ratio_sq = (alpha / lam) ** 2 + (1.0 - beta / lam) ** 2
    if ratio_sq >= 1.0:
        raise ValueError(
            f"(alpha/lam)^2 + (1-beta/lam)^2 = {ratio_sq:g} >= 1: "
            "the two first-order equalities cannot hold simultaneously"
        )
    a = dist.mean()
    b = max(math.sqrt(dist.var()), 1e-6)
    loc_target = alpha / lam
    sweeps = 0
    res_loc = res_scale = math.inf
    while sweeps < max_sweeps:
        sweeps += 1
        a = _solve_location(dist, b, loc_target)
        b = optimal_scale(dist, a, beta, lam)
        res_loc = abs(_location_residual(dist, a, b) - loc_target)
        res_scale = abs(_scale_condition_lhs(dist, a, b) - (1.0 - beta / lam))
        if max(res_loc, res_scale) <= tol:
            break
    converged = max(res_loc, res_scale) <= tol
    passed = converged and res_loc <= 1e-8 and res_scale <= 1e-8
    return PairOptimalityReport(a, b, res_loc, res_scale, sweeps, converged, passed)
