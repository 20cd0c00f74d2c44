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
THRESHOLD_BLOCK = 65536  # losses per drawn and Newton-solved row block (512 KiB per buffer)
# A Newton point outside the bracket is replaced by its midpoint, and 549
# halvings take the widest admitted bracket, (1e150 + 2) b, below the 1e-15 b
# stop; the widest rows tested take ~500 steps, verify's Gaussian rows
# 1.0015-1.004 on average and its lognormal rows two (seeds 0-5)
NEWTON_CAP = 600
PAIR_POINTS = 31  # trial points per round of check_pair_optimality's k-section
RHO3_MAX = 0.8587  # max |rho'''(t)| = 1.5 * 1.25**-2.5 = 0.858650..., at |t| = 1/2, rounded up
RHO4_MAX = 3.0  # max |rho''''(t)| = |(12 t^2 - 3) (1 + t^2)^(-7/2)|, at t = 0


def _require_finite(dist, *fields: str) -> None:
    """Raise ValueError naming the first field holding a NaN or an infinity
    (a NaN prob passes both the positivity and the sum test)."""
    for name in fields:
        if not np.all(np.isfinite(getattr(dist, name))):
            raise ValueError(f"{type(dist).__name__} {name} must be finite")


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
        if self.values.size == 0:
            raise ValueError("a distribution needs at least one atom")
        _require_finite(self, "values", "probs")
        if np.any(self.probs <= 0.0):
            raise ValueError("atom probabilities must be positive")
        if abs(float(self.probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {self.probs.sum()!r}, not 1")

    @classmethod
    def from_atoms(cls, atoms: Sequence[Tuple[float, float]]) -> "DiscreteDist":
        vals, probs = zip(*atoms) if atoms else ((), ())
        return cls(np.array(vals), np.array(probs))

    @classmethod
    def uniform(cls, values) -> "DiscreteDist":
        values = np.asarray(values, dtype=float)
        return cls(values, np.ones(values.size) / values.size)


def _stack(dist, *per_row):
    """One row from a DiscreteDist and floats, or N from (N, M) and (N,) arrays."""
    if isinstance(dist, DiscreteDist):
        return (dist.values, dist.probs, *map(np.float64, per_row))
    return tuple(np.asarray(x, dtype=float) for x in (*dist, *per_row))


def _row_sums(x: np.ndarray):
    """Left-to-right sums along the last axis, so a zero-mass atom adds +0."""
    return x.cumsum(-1)[..., -1][()]  # a scalar for one row


def optimal_scale(dist, a, beta, lam):
    """Optimal scale: the root b of E[b/sqrt((L-a)^2+b^2)] = 1 - beta/lam.

    The left side is continuous, strictly increasing and concave in b > 0
    with range (P(L=a), 1), so a unique root exists iff P(L=a) < 1 - beta/lam.
    Newton's method from below never passes the root: it starts at the
    Newton point of b = 0+, E[b/s] ~ P(L=a) + b E[1/|L-a|; L != a], and a
    row stops when a step is at most 1e-14 b or the left side is already at
    or above the target.  ``dist`` is a DiscreteDist with floats a, beta,
    lam, or an N-row stack (``_stack``; zero-mass padding atoms at a row's
    a), rows retiring one by one.  Each op is elementwise or a ``_row_sums``,
    so a row has the bits of its own one-distribution call.
    """
    values, probs, a, beta, lam = _stack(dist, a, beta, lam)
    if np.count_nonzero(~((0.0 < beta) & (beta < lam))):
        raise ValueError(f"need 0 < beta < lam, got beta={beta}, lam={lam}")
    target = 1.0 - beta / lam
    r = values - a[..., None]
    at_a = r == 0.0
    p_at_a = _row_sums(probs * at_a)
    if np.count_nonzero(p_at_a >= target):
        raise ValueError(f"degenerate distribution: P(L=a)={np.max(p_at_a):g} >= 1-beta/lam; "
                         "the scale condition is unsatisfiable")
    # every quantity below is a ratio of at most 1, so none overflows for
    # atoms at any scale; hypot does not underflow where r*r + b*b would
    gaps = np.where(at_a, np.inf, np.abs(r))
    m = gaps.min(-1)
    b = (target - p_at_a) * m / _row_sums(probs * (m[..., None] / gaps))
    roots, live = np.empty(np.size(b)), np.arange(np.size(b))
    for _ in range(NEWTON_CAP):
        column = b[:, None] if b.ndim else b
        s = np.hypot(r, column)
        pv = probs * (column / s)
        g = _row_sums(pv) - target
        pv *= (r / s) ** 2
        step = g * b / _row_sums(pv)  # g / g', g' = E[r^2 / s^3]
        new = b - step
        done = step >= -1e-14 * new  # also where g >= 0: such a row steps down
        if retired := np.count_nonzero(done):
            roots[live[done]] = np.where(g >= 0.0, b, new)[done]
            if retired == live.size:
                return float(roots[0]) if isinstance(dist, DiscreteDist) else roots
            keep = ~done
            live, r, probs, target, new = live[keep], r[keep], probs[keep], target[keep], new[keep]
        b = new
    raise RuntimeError(f"optimal-scale Newton did not converge in {NEWTON_CAP} steps")


@dataclass
class ScaleBoundsReport:
    b_star: float
    b_sq: float
    lower: float
    upper: float
    passed: bool


def check_scale_bounds(dist, a, beta, lam) -> ScaleBoundsReport:
    """Certify (lam/4beta) E[1{|L-a|<=b*}(L-a)^2] <= b*^2 <= (lam/2beta) E[(L-a)^2],
    taking ``optimal_scale``'s arguments; a stack's report fields are arrays."""
    values, probs, a, beta, lam, b_star = _stack(dist, a, beta, lam,
                                                 optimal_scale(dist, a, beta, lam))
    r = values - a[..., None]
    lower = lam / (4.0 * beta) * _row_sums(probs * ((np.abs(r) <= b_star[..., None]) * r * r))
    upper = lam / (2.0 * beta) * _row_sums(probs * (r * r))
    b_sq = b_star * b_star
    # tiny slack for the rounding of b_star (Newton stops at a 1e-14 b step)
    tol = 1e-8 * np.maximum(1.0, b_sq)
    passed = (lower <= b_sq + tol) & (b_sq <= upper + tol)
    return ScaleBoundsReport(*(x if np.ndim(x) else x.item()
                               for x in (b_star, b_sq, lower, upper, passed)))


@dataclass
class ScaleLimitReport:
    scaled_values: List[float]
    lower: float
    upper: float
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

    Each beta is handled by the Newton oracle for the optimal scale; the
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
    second = float(dist.probs @ (dist.values - a) ** 2)
    betas = np.array(betas, dtype=float)
    k, r = betas.size, dist.values - a
    if second == 0.0:  # the rho term vanishes: the infimum in b sits at the scale floor
        b, deviation = B_FLOOR, 0.0
    else:  # one optimal-scale row per beta, and E[sqrt((L-a)^2 + b^2) - b] without cancellation
        b = optimal_scale((np.tile(dist.values, (k, 1)), np.tile(dist.probs, (k, 1))),
                          np.full(k, a), betas, np.full(k, lam))
        deviation = _row_sums(dist.probs * (r * r / (np.hypot(r, b[:, None]) + b[:, None])))
    value = alpha_tilde * np.sqrt(betas) * a + betas * b + lam * deviation
    scaled = (value / np.sqrt(betas)).tolist()
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
    return ScaleLimitReport(scaled, lower, upper, verdict)


@dataclass(frozen=True)
class GaussianLosses:
    """IID normal losses with known mean and variance."""

    mean: float = 0.0
    sd: float = 1.0

    @property
    def var(self) -> float:
        return self.sd * self.sd

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with ``mean + sd * rng.standard_normal(out.shape)``
        and return it: the bits and the generator state of
        ``rng.normal(mean, sd, out.shape)``, with no temporary.  A pass that
        leaves the bits as they are (``* 1.0``, ``+ 0.0``) is skipped, so
        with mean 0 a -0.0 draw stays -0.0 where ``rng.normal`` gives +0.0."""
        rng.standard_normal(out=out)
        if self.sd != 1.0:
            out *= self.sd
        if self.mean != 0.0:
            out += self.mean
        return out


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

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with ``rng.lognormal(mu, sigma, out.shape)`` within
        1 ulp and return it: the same normal draws through the vectorized
        ``np.exp``, in place, instead of scalar libm ``exp``, leaving the
        generator in the same state."""
        return np.exp(GaussianLosses(self.mu, self.sigma).draw(rng, out), out=out)


def _solve_thresholds(X: np.ndarray, b: float, alpha: float, lam: float) -> np.ndarray:
    """Row-wise root of g(a) = (lam/n) sum_i rho'((x_ij - a)/b) - alpha.

    g is smooth and strictly decreasing with range (-lam - alpha, lam - alpha).
    For 0 <= alpha < lam/sqrt(2) each row's root lies in [min - b, max + b]:
    every rho' term is at least 1/sqrt(2) at min - b and negative at max + b
    (as long as b does not vanish in rounding against the losses).  Other
    alpha raise ValueError, and so does a row holding a NaN or an
    infinity, or one whose max - min exceeds 1e150*b (t^2 could overflow
    past it), before anything is solved.  The rows are solved together, in
    three buffers of X's size, by Newton steps from each row's mean with that
    bracket as a safeguard (t by a 1/b multiply, g and g' as fused row dot
    products).  With tol = 1e-14*(b + |a|), a row retires with root a + s
    when its step s is at most tol or is certified.  Taylor's theorem
    certifies it: g'' = (lam/(n b^2)) sum rho'''(t) is at most
    curv = RHO3_MAX*lam/b^2 in size and g''' at most jolt = RHO4_MAX*lam/b^3,
    so where 2*curv*(|s| + tol/10) <= |g'(a)|, |g'| stays above |g'(a)|/2
    within |s| + tol/10 of a, and a bound r >= |g(a + s)| with
    20*r <= tol*|g'(a)| puts the root within 2r/|g'(a)| <= tol/10 of a + s,
    the bracket stop's precision.  For the Newton step s = -g/g',
    r = G*s^2/2 with G = min(curv, c + jolt*|s|), where c bounds |g''(a)|:
    the secant of g' from the previous iterate a_p is within
    jolt*|a - a_p|/2 of g''(a).  On a row's first pass G = curv (the stop
    10*curv*s^2 <= tol*|g'(a)| then implies the first condition when
    |s| > tol).  A row that is not certified but whose step is small enough
    for jolt's term, 10*jolt*|s|^3 <= 3*tol*|g'(a)|, could be certified
    one order higher: when some row is, g''(a) is summed for the pass
    (three more array passes), and those rows take the Halley step
    s = s_N/(1 + s_N g''/(2 g')) from the Newton step s_N, which zeroes
    g's quadratic Taylor model up to g''^2 s^2 s_N/(4 g'), so
    r = g''^2 s^2 |s_N|/(4|g'|) + jolt*|s|^3/6.  A Gaussian row of
    verify's, whose g'' at the mean is near 0, is certified on its first
    pass by the Halley bound; a lognormal row on its second, mostly by the
    secant.  A row also retires when g(a) == 0 or its bracket is at
    most tol/10 wide (root a; this stops a row whose g is flat to rounding,
    such as one far wider than b whose g steps across zero between two
    floats, within 1e-15*(b + |a|) of the sign change).  The
    stop is tested first, so a sub-ulp step landing on a bracket end still
    stops; otherwise the bracket end on the iterate's side moves to it, and
    a Newton point outside the bracket is replaced by the midpoint.  Running
    rows are gathered into the first rows of the buffers, so a row's root
    depends on that row alone: any split of the rows solves to the same bits.
    """
    if not 0.0 <= alpha < lam / math.sqrt(2.0):
        raise ValueError(f"alpha = {alpha:g} must lie in [0, lam/sqrt(2)), lam = {lam:g}")
    mins, maxs = X.min(axis=1), X.max(axis=1)  # NaN and +-inf reach min or max
    finite = np.isfinite(mins) & np.isfinite(maxs)
    if not finite.all():
        raise ValueError(f"sample row {int(np.argmin(finite))} is not finite")
    wide = maxs / 2.0 - mins / 2.0 > 0.5e150 * b  # halved, so the spread cannot overflow
    if wide.any():
        raise ValueError(f"sample row {int(np.argmax(wide))} spreads over more than 1e150*b")
    t, r, w = np.empty((3,) + X.shape)
    roots = X.mean(axis=1)
    live = np.arange(len(X))
    a, lo, hi = roots.copy(), mins - b, maxs + b
    a_prev = slope_prev = np.full(len(X), np.nan)  # each row's last iterate and |g'| there: none yet
    inv_b, scale = 1.0 / b, lam / X.shape[1]
    curv, jolt = RHO3_MAX * lam / (b * b), RHO4_MAX * lam / (b * b * b)  # bound |g''|, |g'''|
    for _ in range(NEWTON_CAP):
        tl, rl, wl = t[: live.size], r[: live.size], w[: live.size]
        np.subtract(X if live.size == len(X) else X[live], a[:, None], out=tl)
        np.multiply(tl, inv_b, out=tl)
        np.square(tl, out=rl)
        np.add(rl, 1.0, out=rl)
        np.sqrt(rl, out=rl)
        np.divide(1.0, rl, out=rl)  # (1 + t^2)^(-1/2)
        # row sums of rho'(t) = t (1 + t^2)^(-1/2) and rho''(t) = (1 + t^2)^(-3/2)
        g = scale * np.vecdot(tl, rl) - alpha
        np.square(rl, out=wl)
        slope = (scale * inv_b) * np.vecdot(wl, rl)  # |g'|
        tol = 1e-14 * (b + np.abs(a))
        # rho'' underflows far from the root: an infinite step is outside
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = g / slope  # -g/g'
            # |g''(a)| is at most the secant of g' from the previous iterate, plus jolt's share
            moved = np.abs(a - a_prev)
            g2 = np.abs(slope - slope_prev) / moved + 0.5 * jolt * moved
            bound = 0.5 * step * step * np.fmin(curv, g2 + jolt * np.abs(step))  # >= |g(a + step)|
            halley = (10.0 * jolt * np.abs(step) ** 3 <= 3.0 * tol * slope) & (
                20.0 * bound > tol * slope)
            if halley.any():  # row sums of rho'''(t) = -3 t (1 + t^2)^(-5/2)
                np.multiply(tl, wl, out=tl)
                np.multiply(wl, rl, out=wl)
                g2 = (-3.0 * scale * inv_b * inv_b) * np.vecdot(tl, wl)  # g''
                newton = step
                step = np.where(halley, newton / (1.0 - newton * g2 / (2.0 * slope)), newton)
                third = (g2 * step) ** 2 * np.abs(newton) / (4.0 * slope)
                bound = np.where(halley, third + jolt * np.abs(step) ** 3 / 6.0, bound)
            size = np.abs(step)
            converged = (size <= tol) | (
                (20.0 * bound <= tol * slope) & (2.0 * curv * (size + 0.1 * tol) <= slope))
        done = converged | (g == 0.0) | (hi - lo <= 0.1 * tol)
        roots[live[done]] = np.where(converged, a + step, a)[done]
        keep = ~done
        if not keep.any():
            return roots
        live, a, lo, hi, g, step = live[keep], a[keep], lo[keep], hi[keep], g[keep], step[keep]
        a_prev, slope_prev = a, slope[keep]
        above = g > 0.0
        lo = np.where(above, a, lo)
        hi = np.where(above, hi, a)
        a = a + step
        outside = ~((lo < a) & (a < hi))  # also a NaN point
        a[outside] = 0.5 * (lo[outside] + hi[outside])
    raise RuntimeError(f"threshold Newton did not converge in {NEWTON_CAP} steps")


@dataclass
class CoverageReport:
    coverage: float
    required: float
    center: float
    halfwidth: float
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
    The ``(trials, n)`` sample is drawn from one PCG64 generator and solved
    in blocks of ``THRESHOLD_BLOCK // n`` rows (at least one), each drawn
    into one buffer only when it is solved, by safeguarded Newton steps:
    on verify's samples one per Gaussian row (1.0015-1.004 on average) and
    two per lognormal row.  The generator fills values in order and a row's threshold
    depends on that row alone, so every threshold has the bits of drawing
    and solving the whole sample at once, in memory that does not grow
    with ``trials``.
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
    rows = max(1, THRESHOLD_BLOCK // n)
    drawn = np.empty((min(rows, trials), n))  # every block is drawn into it
    A = np.empty(trials)
    for start in range(0, trials, rows):
        block = losses.draw(rng, drawn[: trials - start])
        A[start : start + len(block)] = _solve_thresholds(block, b, alpha, lam)
    center = losses.mean - 2.0 * (alpha / lam) * b
    halfwidth = 2.0 * (var / b + b * math.log(2.0 / delta) / n)
    coverage = float(np.mean(np.abs(A - center) <= halfwidth))
    required = 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    return CoverageReport(coverage, required, center, halfwidth, coverage >= required)


@dataclass(frozen=True)
class GradientDist:
    """Finite distribution over (loss value, loss gradient) pairs, or S of them stacked."""

    values: np.ndarray  # shape (m,), or (S, m)
    grads: np.ndarray  # shape (m, d), or (S, m, d)
    probs: np.ndarray  # shape (m,), or (S, m)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "grads", np.atleast_2d(np.asarray(self.grads, dtype=float)))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.values.shape != self.grads.shape[:-1] or self.values.shape != self.probs.shape:
            raise ValueError("values, grads and probs must align")
        _require_finite(self, "values", "grads", "probs")
        if np.any(self.probs <= 0.0) or np.any(np.abs(self.probs.sum(axis=-1) - 1.0) > PROB_TOL):
            raise ValueError("probs must be positive and sum to 1")


@dataclass
class StationarityReport:
    mv_grad: np.ndarray
    diffs: List[float]
    passed: bool


def check_stationarity_equivalence(dist: GradientDist) -> StationarityReport:
    """Check the large-b gradient surrogate against the mean-variance gradient.

    With a_mv = E L - 1, the target is mv' = E[(L - a_mv) L'] and the
    surrogate is g(b) = E[(L - a_mv)/sqrt(((L-a_mv)/b)^2 + 1) * L'].  The
    report passes when ||g(b) - mv'|| is nonincreasing across b = 1e1, 1e2,
    1e3, 1e4 and the final gap is <= 1e-3 * (1 + ||mv'||).  A stack's
    report fields are arrays, each row the bits of its one-instance call.
    """
    values, probs = np.atleast_2d(dist.values, dist.probs)
    grads = dist.grads.reshape(values.shape + dist.grads.shape[-1:])
    a_mv = np.sum(probs * values, axis=1, keepdims=True) - 1.0
    r = values - a_mv
    mv_grad = np.sum((probs * r)[..., None] * grads, axis=-2)
    w = r / np.sqrt((r / np.array([1e1, 1e2, 1e3, 1e4])[:, None, None]) ** 2 + 1.0)
    g_b = np.sum((probs * w)[..., None] * grads, axis=-2)  # (b, instance, d)
    diffs = np.linalg.norm(g_b - mv_grad, axis=-1).T
    passed = (np.all(diffs[:, 1:] <= diffs[:, :-1] + 1e-15, axis=1)
              & (diffs[:, -1] <= 1e-3 * (1.0 + np.linalg.norm(mv_grad, axis=1))))
    if dist.values.ndim == 1:
        return StationarityReport(mv_grad[0], diffs[0].tolist(), bool(passed[0]))
    return StationarityReport(mv_grad, diffs, passed)


def _unit_split(dist: DiscreteDist, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(E[(L-a)/s], E[b/s]) at each point of the arrays a and b, with
    s = sqrt((L-a)^2 + b^2); at b = 0 their limits as b -> 0+, E[sign(L-a)]
    and P(L=a)."""
    r = dist.values - a[:, None]
    s = np.hypot(r, b[:, None])
    off = s != 0.0  # s = 0 only at b = 0 and L = a, where the limits are 0 and 1
    u = np.divide(r, s, out=np.zeros_like(r), where=off)
    v = np.divide(b[:, None], s, out=np.ones_like(r), where=off)
    return _row_sums(dist.probs * u), _row_sums(dist.probs * v)


@dataclass
class PairOptimalityReport:
    a_star: float
    b_star: float
    location_residual: float
    scale_residual: float
    passed: bool


def check_pair_optimality(
    dist: DiscreteDist, alpha: float, beta: float, lam: float
) -> PairOptimalityReport:
    """Jointly minimize f(a, b) = alpha a + beta b + lam E[sqrt((L-a)^2+b^2) - b]
    over a and b >= 0 and check both first-order equalities

        E[(L-a)/sqrt((L-a)^2+b^2)] = alpha/lam,
        E[b/sqrt((L-a)^2+b^2)]     = 1 - beta/lam.

    b is profiled out: phi(a) = min_b f(a, b) is convex with
    phi'(a) = alpha - lam E[(L-a)/s] at b*(a) = ``optimal_scale``.  Where
    P(L=a) >= 1 - beta/lam, b*(a) = 0 and phi has a kink whose
    subdifferential is alpha - lam E[sign(L-a)] +- lam
    sqrt(P(L=a)^2 - (1-beta/lam)^2).  The minimizer is bracketed by widening
    [min - 1, max + 1] and narrowed by a k-section on the sign of phi'.
    Each round tries the ``PAIR_POINTS`` points that cut the bracket into
    equal parts and every kink atom inside it, with one stacked
    ``optimal_scale`` call and one array ``_unit_split``, and keeps the two
    adjacent points between which phi' turns nonnegative, so it shrinks the
    bracket by at least PAIR_POINTS + 1.  Of the bracket's two ends, the one
    whose phi' is nearer 0 is the estimate a.  The k-section stops when
    phi'(a) = 0, after a round that started from a bracket at most
    1e-15 (|a| + b*(a)) wide, or when the bracket holds no float between
    its ends, so the stop scales with the atoms even when they are close
    together, and a bracket narrower than PAIR_POINTS + 1 floats ends on
    two adjacent floats.  A kink atom whose subdifferential holds 0 is the
    minimizer, with b = 0.  Both residuals are then taken at the minimizer
    (at b = 0, their limits as b -> 0+); the report passes when both are at
    most 1e-10, which only an interior optimum can meet.
    Existence of one requires (alpha/lam)^2 + (1-beta/lam)^2 < 1
    (Cauchy-Schwarz on the two unit-split terms); configurations violating
    it are rejected.
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
    target = 1.0 - beta / lam
    values, probs = dist.values, dist.probs
    kinks = values[(values[:, None] == values) @ probs >= target]

    def slopes(a):
        """(b*(a), phi'(a)) at each point of the array a, by one stacked
        ``optimal_scale`` call; at a kink b*(a) = 0 and phi'(a) is the end of
        the subdifferential nearest 0, which is 0 when the subdifferential
        holds it."""
        p_at_a = _row_sums(probs * (values == a[:, None]))
        smooth = p_at_a < target
        b = np.zeros(a.size)
        if n := np.count_nonzero(smooth):  # n rows of the atoms and their probabilities
            rows = np.broadcast_to(np.stack([values, probs])[:, None], (2, n, values.size))
            b[smooth] = optimal_scale(rows, a[smooth], np.full(n, beta), np.full(n, lam))
        g = alpha - lam * _unit_split(dist, a, b)[0]
        kink = lam * np.sqrt(np.maximum(p_at_a * p_at_a - target * target, 0.0))
        return b, np.copysign(np.maximum(np.abs(g) - kink, 0.0), g)

    ends, widen = np.array([values.min() - 1.0, values.max() + 1.0]), np.array([-1.0, 1.0])
    while True:
        (b_lo, b_hi), (g_lo, g_hi) = slopes(ends)
        short = np.array([g_lo > 0.0, g_hi < 0.0])  # the minimizer lies beyond that end
        if not short.any():
            break
        ends[short] += widen[short]
        widen[short] *= 2.0
    lo, hi = ends
    fractions = np.arange(1.0, PAIR_POINTS + 1.0) / (PAIR_POINTS + 1.0)
    width = math.inf  # of the bracket the last round started from
    while True:
        a, b, g = (lo, b_lo, g_lo) if abs(g_lo) <= abs(g_hi) else (hi, b_hi, g_hi)
        if g == 0.0 or width <= 1e-15 * (abs(a) + b):
            break
        width = hi - lo
        points = np.unique(np.concatenate([kinks, lo + width * fractions]))
        points = points[(lo < points) & (points < hi)]
        if not points.size:  # no float between the ends
            break
        bs, gs = slopes(points)
        above = gs >= 0.0
        j = int(np.argmax(above)) if above.any() else points.size  # points[:j] have phi' < 0
        if j:
            lo, b_lo, g_lo = points[j - 1], bs[j - 1], gs[j - 1]
        if j < points.size:
            hi, b_hi, g_hi = points[j], bs[j], gs[j]
    (u,), (v,) = _unit_split(dist, np.array([a]), np.array([b]))
    res_loc, res_scale = abs(u - alpha / lam), abs(v - target)
    return PairOptimalityReport(float(a), float(b), float(res_loc), float(res_scale),
                                bool(max(res_loc, res_scale) <= 1e-10))
