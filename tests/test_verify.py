"""Numerical-oracle checks for the population-level properties."""

import math
import sys
import threading

import numpy as np
import pytest

from robustmsd import verify
from robustmsd.suite import _conjugate_grid, _conjugate_sup
from robustmsd.verify import (
    THRESHOLD_BLOCK,
    DiscreteDist,
    GaussianLosses,
    GradientDist,
    LognormalLosses,
    check_location_concentration,
    check_pair_optimality,
    check_scale_bounds,
    check_scale_optimized_limit,
    check_stationarity_equivalence,
    _solve_thresholds,
    optimal_scale,
)


def symmetric_pair(spread=1.0, center=0.0):
    return DiscreteDist.from_atoms([(center - spread, 0.5), (center + spread, 0.5)])


def random_dist(rng, max_atoms=6):
    m = int(rng.integers(2, max_atoms + 1))
    values = rng.uniform(-5.0, 5.0, m)
    probs = rng.uniform(0.1, 1.0, m)
    return DiscreteDist(values, probs / probs.sum())


# ----------------------------------------------------------- optimal_scale


def test_optimal_scale_symmetric_closed_form():
    # two-point L - a = +-s: condition b/sqrt(s^2+b^2) = 1 - eta
    # solves to b = s(1-eta)/sqrt(1 - (1-eta)^2)
    d = symmetric_pair()
    b = optimal_scale(d, 0.0, beta=0.5, lam=1.0)
    expected = 0.5 / math.sqrt(1.0 - 0.25)
    assert b == pytest.approx(expected, rel=1e-8)
    assert b == pytest.approx(0.57735, abs=1e-5)


def test_optimal_scale_grows_as_beta_shrinks():
    d = symmetric_pair()
    b1 = optimal_scale(d, 0.0, 1e-1, 1.0)
    b2 = optimal_scale(d, 0.0, 1e-2, 1.0)
    b3 = optimal_scale(d, 0.0, 1e-3, 1.0)
    assert b1 < b2 < b3


def test_optimal_scale_rejects_degenerate():
    d = DiscreteDist.from_atoms([(2.0, 1.0)])
    with pytest.raises(ValueError, match="degenerate"):
        optimal_scale(d, 2.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        optimal_scale(symmetric_pair(), 0.0, 1.5, 1.0)  # beta >= lam


# ------------------------------------------------------------ scale bounds


def test_scale_bounds_symmetric_example():
    r = check_scale_bounds(symmetric_pair(), 0.0, beta=0.5, lam=1.0)
    assert r.passed
    # residual 1 exceeds b* ~ 0.577, so the truncated lower bound is 0
    assert r.lower == 0.0
    assert r.upper == pytest.approx(1.0, rel=1e-12)
    assert r.b_sq == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_scale_bounds_three_point():
    d = DiscreteDist.uniform([-1.0, 0.0, 1.0])
    assert check_scale_bounds(d, 0.0, beta=0.1, lam=1.0).passed


def test_scale_bounds_random_sweep():
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(200):
        d = random_dist(rng)
        a = float(rng.uniform(-6.0, 6.0))
        lam = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(0.01, 0.99)) * lam
        assert check_scale_bounds(d, a, beta, lam).passed


# ------------------------------------------------------- scale-opt. limit


def test_scale_limit_symmetric_unit():
    r = check_scale_optimized_limit(symmetric_pair(), 0.0, lam=1.0, alpha_tilde=0.0)
    assert r.verdict == "pass"
    assert 0.5 <= r.scaled_values[-1] <= 4.0
    # the exact limit for this instance is sqrt(2)
    assert r.scaled_values[-1] == pytest.approx(math.sqrt(2.0), rel=1e-5)


def test_scale_limit_constant_dist():
    d = DiscreteDist.from_atoms([(2.0, 1.0)])
    r = check_scale_optimized_limit(d, 2.0, lam=1.0, alpha_tilde=1.0)
    assert r.verdict == "pass"
    assert r.scaled_values[-1] == pytest.approx(2.0, abs=1e-9)
    assert r.lower == r.upper == 2.0


def test_scale_limit_shifted_with_alpha():
    d = symmetric_pair(center=3.0)
    r = check_scale_optimized_limit(d, 3.0, lam=1.0, alpha_tilde=1.0)
    assert r.verdict == "pass"
    assert 3.5 <= r.scaled_values[-1] <= 7.0


def test_scale_limit_inconclusive_when_far_from_limit():
    r = check_scale_optimized_limit(
        symmetric_pair(), 0.0, lam=1.0, alpha_tilde=0.0, betas=(0.9, 0.5)
    )
    assert r.verdict == "inconclusive"


# ------------------------------------------------------- location coverage


def test_location_concentration_gaussian_quick():
    r = check_location_concentration(
        GaussianLosses(0.0, 1.0), b=20.0, alpha=0.0, lam=1.0,
        n=2000, delta=0.05, trials=300, seed=11,
    )
    assert r.passed
    assert r.center == 0.0  # alpha = 0: band centered exactly at the mean


def test_location_concentration_lognormal_quick():
    losses = LognormalLosses(0.0, 1.0)
    assert losses.mean == pytest.approx(math.sqrt(math.e), rel=1e-12)
    assert losses.var == pytest.approx((math.e - 1.0) * math.e, rel=1e-12)
    r = check_location_concentration(
        losses, b=20.0, alpha=0.0, lam=1.0, n=2000, delta=0.05, trials=300, seed=12
    )
    assert r.passed


def test_location_concentration_shifted_center():
    r = check_location_concentration(
        GaussianLosses(0.0, 1.0), b=20.0, alpha=0.002, lam=1.0,
        n=2000, delta=0.05, trials=200, seed=13,
    )
    assert r.center == pytest.approx(-2.0 * 0.002 * 20.0, rel=1e-12)
    assert r.passed


def test_location_concentration_rejects_bad_condition():
    with pytest.raises(ValueError, match="condition"):
        check_location_concentration(
            GaussianLosses(0.0, 1.0), b=20.0, alpha=0.3, lam=1.0,
            n=2000, delta=0.05, trials=10,
        )


@pytest.mark.parametrize("trials, n, message", [(0, 2000, "trials must be >= 1, got 0"),
                                                (-3, 2000, "trials must be >= 1, got -3"),
                                                (300, 0, "n must be >= 1, got 0"),
                                                (300, -1, "n must be >= 1, got -1")])
def test_location_concentration_rejects_empty_samples(trials, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_location_concentration(
            GaussianLosses(0.0, 1.0), b=20.0, alpha=0.0, lam=1.0,
            n=n, delta=0.05, trials=trials,
        )


# ------------------------------------------------- blocked threshold solve


def whole_array_thresholds(X, b, alpha, lam):
    """Reference: one lockstep bisection over every row of X at once."""

    def g(a_col):
        t = (X - a_col[:, None]) / b
        return lam * np.mean(t / np.sqrt(t * t + 1.0), axis=1) - alpha

    lo = X.min(axis=1) - b
    hi = X.max(axis=1) + b
    widen = b
    while True:
        bad = g(lo) <= 0.0
        if not bad.any():
            break
        lo[bad] -= widen
        widen *= 2.0
    widen = b
    while True:
        bad = g(hi) >= 0.0
        if not bad.any():
            break
        hi[bad] += widen
        widen *= 2.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = g(mid) > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "trials, n, b, alpha",
    [
        (37, 2000, 20.0, 0.0),  # 37 rows: blocks of 32 and 5
        (3, THRESHOLD_BLOCK + 1, 20.0, 0.0),  # one row per block
        (50, 1, 0.5, 0.0),
        (41, 3, 0.5, 0.0),
        (37, 2000, 20.0, 0.002),
        (29, 700, 0.5, 0.3),
    ],
)
def test_blocked_thresholds_equal_whole_array_bisection(trials, n, b, alpha):
    rng = np.random.Generator(np.random.PCG64(trials * n))
    X = rng.lognormal(0.0, 1.0, (trials, n))
    expected = whole_array_thresholds(X, b, alpha, 1.0)
    assert np.array_equal(_solve_thresholds(X, b, alpha, 1.0), expected)


@pytest.mark.parametrize("block", [1, 4 * 700, 16 * 700, 64 * 700])
def test_threshold_block_size_does_not_change_bits(monkeypatch, block):
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.standard_normal((37, 700))
    expected = whole_array_thresholds(X, 0.5, 0.1, 1.0)
    monkeypatch.setattr(verify, "THRESHOLD_BLOCK", block)
    assert np.array_equal(_solve_thresholds(X, 0.5, 0.1, 1.0), expected)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("trials", [1, 11, 37])
def test_threaded_thresholds_equal_whole_array_bisection(monkeypatch, workers, trials):
    # blocks of four rows: one row is fewer rows than threads, 11 rows fill
    # blocks of 4, 4 and 3, 37 rows end in a block of 1
    rng = np.random.Generator(np.random.PCG64(trials))
    X = rng.lognormal(0.0, 1.0, (trials, 700))
    expected = whole_array_thresholds(X, 0.5, 0.1, 1.0)
    pools = []

    class Pool(verify.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(verify, "THRESHOLD_BLOCK", 4 * 700)
    monkeypatch.setattr(verify, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: workers)
    assert np.array_equal(_solve_thresholds(X, 0.5, 0.1, 1.0), expected)
    assert pools == [min(workers, -(-trials // 4))]


def test_thresholds_under_frequent_thread_switches(monkeypatch):
    # more threads than cores, one row per block and a switch every
    # microsecond: a row written by the wrong block would change the bits
    rng = np.random.Generator(np.random.PCG64(9))
    X = rng.lognormal(0.0, 1.0, (64, 50))
    expected = whole_array_thresholds(X, 0.5, 0.1, 1.0)
    monkeypatch.setattr(verify, "THRESHOLD_BLOCK", 50)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        roots = _solve_thresholds(X, 0.5, 0.1, 1.0)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(roots, expected)


def test_threshold_pool_ends_with_the_call(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(8))
    X = rng.standard_normal((37, 700))
    monkeypatch.setattr(verify, "THRESHOLD_BLOCK", 700)
    before = threading.active_count()
    _solve_thresholds(X, 0.5, 0.1, 1.0)
    assert threading.active_count() == before

    def fail_on_nan(rows, b, alpha, lam):
        if np.isnan(rows).any():
            raise FloatingPointError("nan in block")
        return bisect(rows, b, alpha, lam)

    bisect = verify._bisect_rows
    monkeypatch.setattr(verify, "_bisect_rows", fail_on_nan)
    X[20, 3] = np.nan
    with pytest.raises(FloatingPointError, match="nan in block"):
        _solve_thresholds(X, 0.5, 0.1, 1.0)
    assert threading.active_count() == before


def test_thresholds_need_no_bracket_widening():
    # at min - b every rho' term is at least 1/sqrt(2), so for alpha below
    # lam/sqrt(2) the bracket [min - b, max + b] already holds every root:
    # rows sitting mostly within b of their minimum, and row 3, whose 1e12
    # outlier makes its bracket so wide that 64 halvings do not converge,
    # solve to the bits of the widening reference; other alpha are refused
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.standard_normal((37, 500))
    X[3] = 0.0
    X[3, 0] = 1e12
    X[20] = -1e6
    X[22] *= 1e-3
    b, alpha, lam = 0.5, 0.7, 1.0
    expected = whole_array_thresholds(X, b, alpha, lam)
    assert np.array_equal(_solve_thresholds(X, b, alpha, lam), expected)
    for alpha in (-1e-3, lam / math.sqrt(2.0), 0.95):
        with pytest.raises(ValueError, match="alpha"):
            _solve_thresholds(X, b, alpha, lam)


def test_conjugate_sup_on_shared_grid_matches_per_call_grid():
    u, rho_u = _conjugate_grid()
    fine = np.linspace(-10.0, 10.0, 2_000_001)
    tails = np.geomspace(10.0, 1e6, 20_000)
    grid = np.concatenate([fine, tails, -tails])
    for x in (-0.99, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.99):
        old = float(np.max(x * grid - (np.sqrt(grid * grid + 1.0) - 1.0)))
        assert _conjugate_sup(x, u, rho_u) == old


# --------------------------------------------------------- stationarity


def test_stationarity_zero_gradients():
    d = GradientDist(values=[1.0, 3.0], grads=np.zeros((2, 2)), probs=[0.5, 0.5])
    r = check_stationarity_equivalence(d)
    assert r.passed
    np.testing.assert_array_equal(r.mv_grad, np.zeros(2))
    assert r.diffs == [0.0, 0.0, 0.0, 0.0]


def test_stationarity_two_atom_arithmetic():
    u = np.array([1.0, -2.0])
    v = np.array([0.5, 3.0])
    d = GradientDist(values=[0.0, 2.0], grads=np.vstack([u, v]), probs=[0.5, 0.5])
    r = check_stationarity_equivalence(d)
    # a_mv = 0, so mv' = ((0-0)u + (2-0)v)/2 = v
    np.testing.assert_allclose(r.mv_grad, v, rtol=1e-14)
    assert r.passed


def test_stationarity_random_instances():
    for s in range(100):
        rng = np.random.Generator(np.random.PCG64(1000 + s))
        values = rng.uniform(-4.0, 4.0, 5)
        grads = rng.normal(size=(5, 3))
        probs = rng.uniform(0.1, 1.0, 5)
        d = GradientDist(values, grads, probs / probs.sum())
        assert check_stationarity_equivalence(d).passed


# ------------------------------------------------------- pair optimality


def test_pair_optimality_symmetric_center():
    r = check_pair_optimality(symmetric_pair(center=1.5), alpha=0.0, beta=0.1, lam=1.0)
    assert r.passed
    assert r.a_star == pytest.approx(1.5, abs=1e-9)


def test_pair_optimality_asymmetric():
    d = DiscreteDist.uniform([0.0, 0.0, 10.0])
    r = check_pair_optimality(d, alpha=0.01, beta=0.05, lam=1.0)
    assert r.passed
    assert r.location_residual < 1e-8 and r.scale_residual < 1e-8


def test_pair_optimality_alpha_near_lambda():
    # alpha = 0.99*lam forces the threshold far below the atoms; existence
    # additionally pins beta into a narrow band (see the module docstring),
    # and beta = 0.87 sits inside it for this distribution
    d = DiscreteDist.uniform([0.0, 0.0, 10.0])
    r = check_pair_optimality(d, alpha=0.99, beta=0.87, lam=1.0)
    assert r.passed
    assert r.a_star < -1.0


def test_pair_optimality_rejects_infeasible_pair():
    with pytest.raises(ValueError, match="cannot hold"):
        check_pair_optimality(symmetric_pair(), alpha=0.99, beta=0.05, lam=1.0)


# ------------------------------------------------------------- validation


def test_discrete_dist_validation():
    with pytest.raises(ValueError):
        DiscreteDist(np.array([1.0, 2.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        DiscreteDist(np.array([1.0, 2.0]), np.array([1.1, -0.1]))
    d = DiscreteDist.uniform([0.0, 2.0, 4.0])
    assert d.mean() == pytest.approx(2.0)
    assert d.var() == pytest.approx(8.0 / 3.0)


def test_location_concentration_deterministic_given_seed():
    kw = dict(b=20.0, alpha=0.0, lam=1.0, n=500, delta=0.05, trials=100, seed=77)
    r1 = check_location_concentration(GaussianLosses(0.0, 1.0), **kw)
    r2 = check_location_concentration(GaussianLosses(0.0, 1.0), **kw)
    assert r1.coverage == r2.coverage
