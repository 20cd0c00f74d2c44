"""Numerical-oracle checks for the population-level properties."""

import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from conftest import use_cpus
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from robustmsd import suite, verify
from robustmsd.criteria import (
    CRITERIA,
    CriterionParams,
    JointState,
    criterion_value,
    hessian_quadform,
    partial_objective_grads,
)
from robustmsd.rho import catoni_envelope_check, rho_conjugate, rho_prime
from robustmsd.suite import _closed_forms, _conjugate_sup, _partial_convexity, run_property_suite
from robustmsd.verify import (
    RHO3_MAX,
    RHO4_MAX,
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


@pytest.mark.parametrize("spread", [1e-200, 1e-3, 1.0, 7.5, 1e200])
@pytest.mark.parametrize("eta", [0.01, 0.5, 0.99])
def test_optimal_scale_matches_symmetric_closed_form_tightly(spread, eta):
    # the root's relative condition number grows like (1 - target^2)^(-3/2),
    # about 350 at eta = 0.01; test_optimal_scale_converges_at_tiny_beta
    # covers small eta
    target = 1.0 - eta
    b = optimal_scale(symmetric_pair(spread, center=3.0 * spread), 3.0 * spread, eta, 1.0)
    assert b == pytest.approx(spread * target / math.sqrt(1.0 - target**2), rel=1e-12)


def test_optimal_scale_converges_at_tiny_beta():
    d = DiscreteDist.uniform([-3.0, 0.0, 0.0, 0.5, 4.0])
    b = optimal_scale(d, 0.2, 1e-6, 1.0)
    r = d.values - 0.2
    assert float(d.probs @ (b / np.hypot(r, b))) == pytest.approx(1.0 - 1e-6, abs=1e-15)
    assert b == pytest.approx(math.sqrt(float(d.probs @ r**2) / 2e-6), rel=1e-5)


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


@st.composite
def scale_problems(draw):
    """One distribution of 2-6 atoms, each 1e-6 to 1e6 in magnitude, with
    a, beta and lam such that P(L=a) < 1 - beta/lam."""
    magnitude = st.floats(1e-6, 1e6)
    m = draw(st.integers(2, 6))
    values = [draw(magnitude) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(m)]
    weights = np.array([draw(st.floats(0.1, 1.0)) for _ in range(m)])
    dist = DiscreteDist(np.array(values), weights / weights.sum())
    a = draw(st.one_of(st.sampled_from(values), magnitude, st.just(0.0)))
    lam = draw(st.floats(0.2, 3.0))
    beta = draw(st.floats(0.01, 0.99)) * lam
    assume(float(dist.probs[dist.values == a].sum()) < 1.0 - beta / lam)
    return dist, a, beta, lam


@settings(max_examples=100, deadline=None)
@given(st.lists(scale_problems(), min_size=1, max_size=5), st.integers(0, 5), st.randoms())
def test_padded_scale_stack_rows_have_the_bits_of_one_distribution_calls(problems, pad, random):
    # each row padded to the widest plus ``pad`` with zero-mass atoms at its a
    random.shuffle(problems)
    width = max(d.values.size for d, *_ in problems) + pad
    values, probs = np.zeros((2, len(problems), width))
    for row, (d, a, _, _) in zip(values, problems):
        row[:] = a
        row[: d.values.size] = d.values
    for row, (d, *_) in zip(probs, problems):
        row[: d.probs.size] = d.probs
    a, beta, lam = np.array([p[1:] for p in problems], dtype=float).T
    expected = [optimal_scale(*p) for p in problems]
    np.testing.assert_array_equal(bits(optimal_scale((values, probs), a, beta, lam)),
                                  bits(expected))
    stacked = check_scale_bounds((values, probs), a, beta, lam)
    for i, p in enumerate(problems):
        one = check_scale_bounds(*p)
        assert [bits(getattr(stacked, f)[i]) for f in ("b_star", "b_sq", "lower", "upper")] == [
            bits(getattr(one, f)) for f in ("b_star", "b_sq", "lower", "upper")]
        assert stacked.passed[i] == one.passed


def test_optimal_scale_stack_rejects_a_degenerate_row():
    values = np.array([[-1.0, 1.0], [2.0, 2.0]])
    probs = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="degenerate"):
        optimal_scale((values, probs), np.array([0.0, 2.0]), np.full(2, 0.1), np.ones(2))
    with pytest.raises(ValueError, match="beta"):
        optimal_scale((values, probs), np.zeros(2), np.array([0.1, 1.5]), np.ones(2))


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


# --------------------------------------------------- threshold Newton solve

# Newton's roots lie within ROOT_TOL * (b + |root|) of the converged
# reference bisection's bracket; the largest gap seen is 2.7e-16 of that scale
ROOT_TOL = 1e-15


def g_rows(X, a, b, alpha, lam):
    t = (X - a[:, None]) / b
    return lam * np.mean(t / np.sqrt(t * t + 1.0), axis=1) - alpha


def reference_bracket(X, b, alpha, lam):
    """Reference: lockstep bisection of every row of X at once, from a
    bracket widened until it holds the root, halved until no bracket
    shrinks.  Returns the final (lo, hi); 64 halvings would leave a row
    with a 1e12 outlier about 1.5e-8 from its root."""
    lo = X.min(axis=1) - b
    hi = X.max(axis=1) + b
    widen = b
    while (bad := g_rows(X, lo, b, alpha, lam) <= 0.0).any():
        lo[bad] -= widen
        widen *= 2.0
    widen = b
    while (bad := g_rows(X, hi, b, alpha, lam) >= 0.0).any():
        hi[bad] += widen
        widen *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        shrinks = (lo < mid) & (mid < hi)
        if not shrinks.any():
            return lo, hi
        above = g_rows(X, mid, b, alpha, lam) > 0.0
        lo = np.where(shrinks & above, mid, lo)
        hi = np.where(shrinks & ~above, mid, hi)


def assert_matches_reference(roots, X, b, alpha, lam):
    lo, hi = reference_bracket(X, b, alpha, lam)
    tol = ROOT_TOL * (b + np.abs(roots))
    assert np.all((lo - tol <= roots) & (roots <= hi + tol))


@pytest.mark.parametrize(
    "trials, n, b, alpha",
    [
        (37, 2000, 20.0, 0.0),  # 37 rows as wide as verify's
        (3, THRESHOLD_BLOCK + 1, 20.0, 0.0),  # rows wider than verify's row block
        (50, 1, 0.5, 0.0),
        (41, 3, 0.5, 0.0),
        (37, 2000, 20.0, 0.002),
        (29, 700, 0.5, 0.3),
    ],
)
def test_blocked_thresholds_equal_whole_array_bisection(trials, n, b, alpha):
    # equal to within ROOT_TOL
    rng = np.random.Generator(np.random.PCG64(trials * n))
    X = rng.lognormal(0.0, 1.0, (trials, n))
    assert_matches_reference(_solve_thresholds(X, b, alpha, 1.0), X, b, alpha, 1.0)


@settings(max_examples=25, deadline=None)
@given(cuts=st.lists(st.integers(1, 36), max_size=6, unique=True))
@example(cuts=list(range(1, 37)))  # a row at a time
def test_any_split_of_the_rows_solves_to_the_same_bits(cuts):
    # row 3's 1e12 outlier keeps it bisecting for ~35 steps after the other
    # rows retire, so each part gathers its running rows differently
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.standard_normal((37, 700))
    X[3, 0] = 1e12
    parts = [_solve_thresholds(part, 0.5, 0.1, 1.0) for part in np.split(X, sorted(cuts))]
    assert np.array_equal(np.concatenate(parts), _solve_thresholds(X, 0.5, 0.1, 1.0))


@pytest.mark.parametrize("block", [1, 4 * 700, 16 * 700, 64 * 700])
def test_threshold_block_size_does_not_change_bits(monkeypatch, block):
    # check_location_concentration solves rows of 700 in blocks of
    # THRESHOLD_BLOCK // 700 (at least one); the thresholds it solves, joined,
    # and its report keep their bits whatever the block size
    def thresholds():
        solved = []

        def recording(X, b, alpha, lam):
            solved.append(_solve_thresholds(X, b, alpha, lam))
            return solved[-1]

        with monkeypatch.context() as patch:
            patch.setattr(verify, "_solve_thresholds", recording)
            report = check_location_concentration(
                LognormalLosses(0.0, 1.0), b=20.0, alpha=0.002, lam=1.0, n=700,
                delta=0.05, trials=37, seed=5,
            )
        return np.concatenate(solved), report

    expected, expected_report = thresholds()
    monkeypatch.setattr(verify, "THRESHOLD_BLOCK", block)
    A, report = thresholds()
    assert np.array_equal(bits(A), bits(expected))
    assert report == expected_report


def solve_in_threads(samples, b, alpha, lam):
    """Solve each sample in a thread of its own, all released together."""
    start = threading.Barrier(len(samples))
    results = [None] * len(samples)

    def solve(k):
        start.wait(timeout=60)
        results[k] = _solve_thresholds(samples[k], b, alpha, lam)

    threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(samples))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("trials", [1, 11, 37])
def test_threaded_thresholds_equal_whole_array_bisection(workers, trials):
    # callers in several threads at once, each on its own shifted sample:
    # the solve's buffers belong to the call, so each caller gets the bits of
    # a serial call, on one row as on many
    rng = np.random.Generator(np.random.PCG64(trials))
    X = rng.lognormal(0.0, 1.0, (trials, 700))
    samples = [X + k for k in range(workers)]
    expected = [_solve_thresholds(S, 0.5, 0.1, 1.0) for S in samples]
    for S, roots in zip(samples, expected):
        assert_matches_reference(roots, S, 0.5, 0.1, 1.0)
    for roots, serial in zip(solve_in_threads(samples, 0.5, 0.1, 1.0), expected):
        assert roots is not None and np.array_equal(roots, serial)


def test_thresholds_under_frequent_thread_switches():
    # more callers than cores, a 1e12 outlier that keeps one row stepping
    # after the others retire, and a switch every microsecond: a row written
    # through another call's buffer would change the bits
    rng = np.random.Generator(np.random.PCG64(9))
    X = rng.lognormal(0.0, 1.0, (64, 50))
    X[3, 0] = 1e12
    samples = [X + k for k in range(8)]
    expected = [_solve_thresholds(S, 0.5, 0.1, 1.0) for S in samples]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = solve_in_threads(samples, 0.5, 0.1, 1.0)
    finally:
        sys.setswitchinterval(interval)
    for roots, serial in zip(results, expected):
        assert roots is not None and np.array_equal(roots, serial)


@pytest.mark.parametrize("seed", [0, 1])
def test_threshold_coverage_equals_reference_on_verify_samples(seed):
    # the two samples `verify --seed S` draws; a root lies in the band
    # exactly when g is >= 0 at the band's low end and <= 0 at its high end
    trials = 2000
    for losses, offset in ((GaussianLosses(0.0, 1.0), 50), (LognormalLosses(0.0, 1.0), 51)):
        r = check_location_concentration(
            losses, b=20.0, alpha=0.0, lam=1.0, n=2000, delta=0.05, trials=trials,
            seed=seed + offset,
        )
        out = np.empty((trials, 2000))
        X = losses.draw(np.random.Generator(np.random.PCG64(seed + offset)), out)
        assert X is out
        ends = np.full(trials, r.center)
        inside = (g_rows(X, ends - r.halfwidth, 20.0, 0.0, 1.0) >= 0.0) & (
            g_rows(X, ends + r.halfwidth, 20.0, 0.0, 1.0) <= 0.0
        )
        assert r.coverage == float(np.mean(inside))
        rows = X[::50]
        assert_matches_reference(_solve_thresholds(rows, 20.0, 0.0, 1.0), rows, 20.0, 0.0, 1.0)


def test_thresholds_need_no_bracket_widening():
    # at min - b every rho' term is at least 1/sqrt(2), so for alpha below
    # lam/sqrt(2) the bracket [min - b, max + b] already holds every root:
    # rows sitting mostly within b of their minimum, row 3 with a 1e12
    # outlier and row 20 at -1e6 solve to the widening reference's roots;
    # other alpha are refused
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.standard_normal((37, 500))
    X[3] = 0.0
    X[3, 0] = 1e12
    X[20] = -1e6
    X[22] *= 1e-3
    b, alpha, lam = 0.5, 0.7, 1.0
    assert_matches_reference(_solve_thresholds(X, b, alpha, lam), X, b, alpha, lam)
    for alpha in (-1e-3, lam / math.sqrt(2.0), 0.95):
        with pytest.raises(ValueError, match="alpha"):
            _solve_thresholds(X, b, alpha, lam)


def test_threshold_edge_cases_stay_well_under_the_step_cap(monkeypatch):
    monkeypatch.setattr(verify, "NEWTON_CAP", 50)
    b, lam = 0.5, 1.0
    near_edge = lam / math.sqrt(2.0) * (1.0 - 1e-9)
    rng = np.random.Generator(np.random.PCG64(7))
    rows = rng.standard_normal((6, 500))
    rows[0] = 0.0
    rows[0, 0] = 1e12
    rows[1] = -1e6
    rows[2] = -1e6 + rows[3]
    rows[4] = 3.0  # tied: g == 0 at the start when alpha = 0
    singles = rng.standard_normal((9, 1))
    for X in (rows, singles):
        for alpha in (0.0, 0.3, near_edge):
            assert_matches_reference(_solve_thresholds(X, b, alpha, lam), X, b, alpha, lam)
    assert _solve_thresholds(rows, b, 0.0, lam)[4] == 3.0
    # n = 1: rho'((x - a)/b) = alpha/lam in closed form
    q = near_edge / lam
    expected = singles[:, 0] - b * q / math.sqrt(1.0 - q * q)
    np.testing.assert_allclose(_solve_thresholds(singles, b, near_edge, lam), expected,
                               rtol=0.0, atol=1e-15 * (b + np.abs(expected)).max())


def test_threshold_step_cap_raises(monkeypatch):
    monkeypatch.setattr(verify, "NEWTON_CAP", 2)
    X = np.zeros((1, 500))
    X[0, 0] = 1e12
    with pytest.raises(RuntimeError, match="did not converge in 2 steps"):
        _solve_thresholds(X, 0.5, 0.0, 1.0)


@pytest.mark.parametrize("spread", [1e58, 1e60, 1e100, 1e149])
def test_thresholds_of_rows_near_the_spread_limit_converge_unwarned(spread):
    # far from the root rho'' underflows, so each Newton point leaves the
    # bracket and the step halves it: ~3.3 steps per decade of spread; at
    # alpha 0.7 and at the edge, row 1's root lies within b of -spread, where
    # g steps across zero between two floats and only the bracket stop ends it
    X = np.zeros((2, 4))
    X[0, 3] = spread
    X[1, 0] = -spread
    for alpha in (0.0, 0.3, 0.7, 1.0 / math.sqrt(2.0) * (1.0 - 1e-9)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = _solve_thresholds(X, 1.0, alpha, 1.0)
        assert_matches_reference(roots, X, 1.0, alpha, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_thresholds_reject_non_finite_rows(bad):
    X = np.zeros((9, 4))
    X[6, 1] = bad
    X[8, 0] = np.nan
    with pytest.raises(ValueError, match="^sample row 6 is not finite$"):
        _solve_thresholds(X, 0.5, 0.0, 1.0)


def test_thresholds_reject_rows_too_wide_for_the_scale():
    # past (max - min)/b = 1e150, t^2 overflows and rho' rounds to 0: the row
    # [0, 0, 0, 1e200] at b = 1 would solve to its mean, 2.5e199, where the
    # root is about 0.35; row 1 is within the limit, and a row whose spread
    # overflows is refused without an overflow warning
    X = np.zeros((5, 4))
    X[1, 3] = 1e149
    X[3, 3] = 1e200
    X[4] = [-1e308, 0.0, 0.0, 1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^sample row 3 spreads over more than 1e150\*b$"):
            _solve_thresholds(X, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="^sample row 0 spreads"):
            _solve_thresholds(X[4:], 1.0, 0.0, 1.0)


@st.composite
def skewed_rows(draw):
    """A few rows of lognormal or of skewed (exponential, gamma or two-cluster)
    losses, each shifted to start at 0 and scaled to spread over 1, and the
    spread in units of b to scale them to."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 400)))
    kind = draw(st.sampled_from(["lognormal", "exponential", "gamma", "clusters"]))
    if kind == "lognormal":
        X = rng.lognormal(0.0, draw(st.floats(0.1, 2.5)), shape)
    elif kind == "exponential":
        X = rng.exponential(1.0, shape)
    elif kind == "gamma":
        X = rng.gamma(draw(st.floats(0.1, 3.0)), 1.0, shape)
    else:  # most losses near 0, a tenth far out
        X = rng.standard_normal(shape) + 50.0 * (rng.uniform(size=shape) < 0.1)
    X -= X.min(axis=1, keepdims=True)
    return X / np.maximum(X.max(axis=1, keepdims=True), 1e-300), draw(st.floats(1e-3, 10.0))


@settings(max_examples=150, deadline=None)
@given(skewed_rows(), st.floats(1e-3, 1e3), st.floats(0.0, 0.999), st.floats(0.1, 10.0))
@example(rows=(np.array([[1.0, 0.0]]), 9.0), b=1.0, frac=0.015625, lam=1.0)
# rows spread over 1e-3 b to 10 b; verify's spread over about 1.5 b (lognormal)
# and 0.35 b (Gaussian).  Far wider sparse rows, such as two losses 100 b
# apart at alpha = 0, hold a stretch where g rounds to 0, every point of which
# is a root to rounding (test_threshold_g_changes_sign_across_the_root)
def test_thresholds_of_skewed_rows_match_the_reference_bisection(rows, b, frac, lam):
    unit, spread = rows
    X = unit * (spread * b)
    alpha = frac * lam / math.sqrt(2.0)
    roots = _solve_thresholds(X, b, alpha, lam)
    lo, hi = reference_bracket(X, b, alpha, lam)
    t = (X - roots[:, None]) / b
    slope = (lam / b) * np.mean((1.0 + t * t) ** -1.5, axis=1)  # -g'(root)
    # g is evaluated to about an ulp of lam, so the computed g's sign change
    # lies up to about that over the slope from the root, as in
    # test_threshold_g_changes_sign_across_the_root; on a sparse row a few b
    # wide, such as two losses 9 b apart, that is more than ROOT_TOL
    tol = ROOT_TOL * (b + np.abs(roots)) + 1e-15 * lam / slope
    assert np.all((lo - tol <= roots) & (roots <= hi + tol))


@pytest.mark.parametrize("losses, seed, passes, sums", [
    (GaussianLosses(0.0, 1.0), 50, 1, 3),
    (LognormalLosses(0.0, 1.0), 51, 2, 4),
])
def test_certified_stop_on_verify_rows(monkeypatch, losses, seed, passes, sums):
    # 64 rows of a sample `verify --seed 0` draws, which the step stop alone
    # (|s| <= tol) retires after two passes per Gaussian row and three per
    # lognormal row.  The Halley bound certifies the Gaussian rows on their first pass, which
    # sums g'' as a third row dot product; the secant bound on g'' certifies
    # the lognormal rows on their second, with no third sum
    X = losses.draw(np.random.Generator(np.random.PCG64(seed)), np.empty((64, 2000)))
    rows, dots, sqrt, vecdot = [], [], np.sqrt, np.vecdot

    def counting_sqrt(x, *args, **kwargs):  # one square root over the running rows per pass
        rows.append(len(x))
        return sqrt(x, *args, **kwargs)

    def counting_vecdot(x, y):
        dots.append(len(x))
        return vecdot(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(verify.np, "sqrt", counting_sqrt)
        patch.setattr(verify.np, "vecdot", counting_vecdot)
        roots = _solve_thresholds(X, 20.0, 0.0, 1.0)
    assert rows == [len(X)] * passes and dots == [len(X)] * sums
    assert_matches_reference(roots, X, 20.0, 0.0, 1.0)


def test_rho3_and_rho4_max_bound_the_derivatives_of_rho():
    # rho''' = -3 t (1 + t^2)^(-5/2), the derivative of rho'' = (1 + t^2)^(-3/2),
    # is largest in size at |t| = 1/2; rho'''' = (12 t^2 - 3) (1 + t^2)^(-7/2) at t = 0
    t = np.concatenate([np.linspace(-20.0, 20.0, 400_001), [-0.5, 0.5]])
    third = -3.0 * t * (1.0 + t * t) ** -2.5
    fourth = (12.0 * t * t - 3.0) * (1.0 + t * t) ** -3.5
    h = 1e-5

    def second(u):
        return (1.0 + u * u) ** -1.5

    def third_of(u):
        return -3.0 * u * (1.0 + u * u) ** -2.5

    for derivative, of in ((third, second), (fourth, third_of)):
        np.testing.assert_allclose(derivative, (of(t + h) - of(t - h)) / (2.0 * h),
                                   rtol=0.0, atol=1e-9)
    peak = np.abs(third).max()
    assert peak == pytest.approx(1.5 * 1.25**-2.5, rel=1e-15)
    assert peak <= RHO3_MAX <= peak * (1.0 + 1e-4)
    assert np.abs(fourth).max() == RHO4_MAX == 3.0


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 30)),
               elements=st.floats(-1e6, 1e6)),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 0.999),
    st.floats(0.1, 10.0),
)
# g is flat to rounding between the clusters, so the Newton step stays above
# the stop tolerance there and only the bracket-width stop ends the row
@example(np.array([[32.0, 35.0, 36.0, 0.0, 0.0, 0.0]]), 1.0, 0.0, 1.0)
def test_threshold_g_changes_sign_across_the_root(X, b, frac, lam):
    alpha = frac * lam / math.sqrt(2.0)
    roots = _solve_thresholds(X, b, alpha, lam)
    t = (X - roots[:, None]) / b
    slope = (lam / b) * np.mean((1.0 + t * t) ** -1.5, axis=1)  # -g'(root)
    # g is evaluated to about an ulp of lam, so where it is flat its sign is
    # defined only to about that over the slope; and where every rho' term
    # has rounded to +-1, g is exactly 0 over an interval, hence >= and <=
    tol = 1e-14 * (b + np.abs(roots)) + 1e-15 * lam / slope
    assert np.all(g_rows(X, roots - tol, b, alpha, lam) >= 0.0)
    assert np.all(g_rows(X, roots + tol, b, alpha, lam) <= 0.0)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("x", [-0.999, -0.99, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.99, 0.999])
def test_conjugate_sup_by_bisection_meets_the_closed_form(x):
    expected = rho_conjugate(x)
    assert abs(_conjugate_sup(x) - expected) <= 1e-15 * max(1.0, abs(expected))


def traced_peak(fn, *args, **kwargs):
    """The largest traced allocation total, in bytes, while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_closed_forms_run_in_bounded_memory():
    # the whole 2 040 001-point grid would trace about 62 MB
    assert traced_peak(_closed_forms) <= 4 * 2**20


def test_full_size_location_concentration_runs_in_bounded_memory():
    # drawing the whole 2000 x 2000 sample would trace about 32 MB
    peak = traced_peak(
        check_location_concentration, GaussianLosses(0.0, 1.0), b=20.0, alpha=0.0,
        lam=1.0, n=2000, delta=0.05, trials=2000, seed=50,
    )
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("losses", [GaussianLosses(0.0, 1.0), LognormalLosses(0.0, 1.0)])
def test_streamed_blocks_are_the_rows_of_one_whole_draw(monkeypatch, losses):
    # the row blocks check_location_concentration draws and solves, joined,
    # are the sample one (trials, n) draw from its generator makes
    seen = []

    def recording(X, b, alpha, lam):
        seen.append(X.copy())
        return _solve_thresholds(X, b, alpha, lam)

    monkeypatch.setattr(verify, "_solve_thresholds", recording)
    check_location_concentration(losses, b=20.0, alpha=0.0, lam=1.0, n=700, delta=0.05,
                                 trials=100, seed=3)
    assert [len(X) for X in seen] == [THRESHOLD_BLOCK // 700, 100 - THRESHOLD_BLOCK // 700]
    out = np.empty((100, 700))
    whole = losses.draw(np.random.Generator(np.random.PCG64(3)), out)
    assert whole is out
    np.testing.assert_array_equal(bits(np.concatenate(seen)), bits(whole))


def pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", [0, 50])
@pytest.mark.parametrize("mean, sd", [(0.0, 1.0), (0.0, 3.0), (2.0, 1.0), (-1.0, 0.5),
                                      (-3.25, 0.7), (1e3, 2.5e-3)])
def test_gaussian_draw_is_bitwise_mean_plus_sd_times_standard_normal(seed, mean, sd):
    # mean 0 skips the add and sd 1 the multiply; both leave every bit as it is
    rng, ref = pcg(seed), pcg(seed)
    out = np.empty((32, 2000))
    drawn = GaussianLosses(mean, sd).draw(rng, out)
    assert drawn is out
    np.testing.assert_array_equal(bits(drawn), bits(mean + sd * ref.standard_normal((32, 2000))))
    np.testing.assert_array_equal(bits(drawn), bits(pcg(seed).normal(mean, sd, (32, 2000))))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", [0, 51])
@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (-2.0, 0.3), (1.5, 2.0)])
def test_lognormal_draw_is_within_an_ulp_of_rng_lognormal(seed, mu, sigma):
    # np.exp against numpy's scalar libm exp of the same normal draws
    rng, ref = pcg(seed), pcg(seed)
    out = np.empty((32, 2000))
    drawn = LognormalLosses(mu, sigma).draw(rng, out)
    assert drawn is out
    expected = ref.lognormal(mu, sigma, (32, 2000))
    assert np.all(np.abs(drawn - expected) <= np.spacing(expected))
    assert rng.random() == ref.random()


@dataclass(frozen=True)
class LibmLognormal(LognormalLosses):
    """The lognormal sampler through numpy's own ``rng.lognormal``."""

    def draw(self, rng, out):
        out[...] = rng.lognormal(self.mu, self.sigma, out.shape)
        return out


@pytest.mark.parametrize("seed", [50, 51])
def test_lognormal_coverage_equals_the_rng_lognormal_reference(seed):
    kw = dict(b=20.0, alpha=0.0, lam=1.0, n=2000, delta=0.05, trials=300, seed=seed)
    r = check_location_concentration(LognormalLosses(0.0, 1.0), **kw)
    assert r == check_location_concentration(LibmLognormal(0.0, 1.0), **kw)


def convexity_values(n_pairs, seed):
    """The partial-convexity property's objective values by one
    ``criterion_value`` call per point, pair by pair, with its detail; the
    pairs' first ends, second ends and scales are drawn as the property
    draws them, each in one generator call."""
    rng = pcg(seed)
    losses = rng.normal(size=20) * 3.0
    params = CriterionParams("sunhuber", alpha=0.05, beta=0.1, lam=1.0)
    ends_a = rng.normal(scale=5.0, size=(2, n_pairs))
    ends_b = rng.uniform(1e-3, 10.0, size=(2, n_pairs))

    def value(a, b):
        return criterion_value(losses, JointState(h=np.zeros(1), a=a, b=b), params)

    values, worst = [], -math.inf
    for (a1, a2), (b1, b2) in zip(ends_a.T, ends_b.T):
        mid, one, two = value(0.5 * (a1 + a2), 0.5 * (b1 + b2)), value(a1, b1), value(a2, b2)
        values.append((mid, one, two))
        worst = max(worst, mid - 0.5 * (one + two))
    return np.array(values).T, f"{n_pairs} midpoint pairs, worst gap {worst:.2e}"


@pytest.mark.parametrize("seed", [10, 11])
@pytest.mark.parametrize("n_pairs", [200, 1000])
def test_stacked_convexity_values_equal_per_pair_criterion_values(monkeypatch, n_pairs, seed):
    expected, detail = convexity_values(n_pairs, seed)
    # the property's one kernel call, recorded: (3, n_pairs) midpoints and ends
    record = CRITERIA["sunhuber"]
    calls = []

    def recording(*args):
        out = record.objective(*args)
        calls.append(out[0])
        return out

    monkeypatch.setitem(CRITERIA, "sunhuber", replace(record, objective=recording))
    outcome = _partial_convexity(n_pairs, seed)
    assert len(calls) == 1
    np.testing.assert_array_equal(bits(calls[0].reshape(3, n_pairs)), bits(expected))
    assert outcome.detail == detail and outcome.passed


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


@pytest.mark.parametrize("instances, atoms, dims", [(1, 5, 3), (7, 5, 3), (40, 1, 1),
                                                    (13, 9, 2), (100, 5, 1)])
def test_stacked_stationarity_instances_equal_their_one_instance_calls(instances, atoms, dims):
    rng = np.random.Generator(np.random.PCG64(instances * atoms * dims))
    values = rng.uniform(-4.0, 4.0, (instances, atoms))
    grads = rng.normal(size=(instances, atoms, dims)) * rng.choice([1e-3, 1.0, 1e3], instances)[
        :, None, None]
    probs = rng.uniform(0.1, 1.0, (instances, atoms))
    probs /= probs.sum(axis=1, keepdims=True)
    stacked = check_stationarity_equivalence(GradientDist(values, grads, probs))
    assert stacked.diffs.shape == (instances, 4) and stacked.passed.shape == (instances,)
    for i in range(instances):
        one = check_stationarity_equivalence(GradientDist(values[i], grads[i], probs[i]))
        assert stacked.diffs[i].tolist() == one.diffs
        assert stacked.passed[i] == one.passed
        np.testing.assert_array_equal(bits(stacked.mv_grad[i]), bits(one.mv_grad))


def test_gradient_dist_stack_rejects_a_row_that_does_not_sum_to_one():
    probs = np.array([[0.5, 0.5], [0.5, 0.4]])
    with pytest.raises(ValueError, match="sum to 1"):
        GradientDist(np.zeros((2, 2)), np.zeros((2, 2, 3)), probs)
    with pytest.raises(ValueError, match="align"):
        GradientDist(np.zeros((2, 2)), np.zeros((2, 3, 3)), np.full((2, 2), 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["values", "grads", "probs"])
def test_gradient_dist_rejects_non_finite_entries(field, bad):
    atoms = dict(values=np.array([0.0, 2.0]), grads=np.ones((2, 3)), probs=np.array([0.5, 0.5]))
    atoms[field].flat[-1] = bad
    with pytest.raises(ValueError, match=f"^GradientDist {field} must be finite$"):
        GradientDist(**atoms)


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


def test_pair_optimality_reports_a_kink_optimum():
    # P(L=0) = 0.8 >= 1 - beta/lam = 0.5, so b*(0) = 0, and 0 lies in phi's
    # subdifferential there: 0.1 - 0.2 +- sqrt(0.8^2 - 0.5^2)
    d = DiscreteDist.uniform([0.0, 0.0, 0.0, 0.0, 10.0])
    start = time.perf_counter()
    r = check_pair_optimality(d, alpha=0.1, beta=0.5, lam=1.0)
    assert time.perf_counter() - start < 0.05
    assert r.a_star == 0.0 and r.b_star == 0.0
    assert not r.passed
    assert r.location_residual == pytest.approx(0.1)  # |E[sign(L)] - alpha/lam|
    assert r.scale_residual == pytest.approx(0.3)  # P(L=0) - (1 - beta/lam)


def pair_objective(d, alpha, beta, lam, a, b):
    return alpha * a + beta * b + lam * float(d.probs @ (np.hypot(d.values - a, b) - b))


@st.composite
def pair_problems(draw):
    pool = np.array(draw(st.lists(st.floats(-5.0, 5.0, allow_subnormal=False),
                                  min_size=1, max_size=6)))
    # distinct atoms differ by more than 1e-5 of their size: the optimum can
    # lie between them, where closer atoms leave too few floats to place a
    # within 1e-10 of it (see test_pair_optimality_between_adjacent_floats)
    gap, size = np.abs(pool[:, None] - pool), np.maximum(np.abs(pool[:, None]), np.abs(pool))
    assume(np.all((gap == 0.0) | (gap > 1e-5 * size)))
    values = draw(st.lists(st.sampled_from(list(pool)), min_size=2, max_size=6))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(values),
                                     max_size=len(values))))
    lam = draw(st.floats(0.2, 3.0))
    alpha = draw(st.floats(0.0, 0.99)) * lam
    beta = draw(st.floats(0.01, 0.99)) * lam
    assume((alpha / lam) ** 2 + (1.0 - beta / lam) ** 2 < 1.0)
    return DiscreteDist(np.array(values), weights / weights.sum()), alpha, beta, lam


@settings(max_examples=150, deadline=None)
@given(pair_problems())
# a trial point within a subnormal distance of an atom: 1/|L - a| overflows
@example((DiscreteDist.uniform([0.0, 4.85575243e-308]), 0.0, 0.25, 1.0))
@example((DiscreteDist.uniform([-5.0, 2.3e-308, 5.0]), 0.0, 0.25, 1.0))
def test_pair_optimality_meets_both_equalities_or_finds_a_kink(problem):
    d, alpha, beta, lam = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = check_pair_optimality(d, alpha, beta, lam)
    if r.b_star > 0.0:
        assert r.passed
        assert r.location_residual <= 1e-10 and r.scale_residual <= 1e-10
        return
    assert r.b_star == 0.0
    assert float(d.probs[d.values == r.a_star].sum()) >= 1.0 - beta / lam
    best = pair_objective(d, alpha, beta, lam, r.a_star, 0.0)
    for k in range(8):
        angle = math.pi * (k + 0.5) / 8.0
        a, b = r.a_star + 1e-6 * math.cos(angle), 1e-6 * math.sin(angle)
        assert best <= pair_objective(d, alpha, beta, lam, a, b) + 1e-13


def test_pair_optimality_between_adjacent_floats():
    # the optimum lies strictly between the two atoms, where no float is
    d = DiscreteDist.uniform([0.1, math.nextafter(0.1, 1.0)])
    r = check_pair_optimality(d, alpha=0.0, beta=0.25, lam=1.0)
    assert r.a_star in d.values and 0.0 < r.b_star < 1e-16
    assert not r.passed and r.location_residual > 0.4


def test_pair_optimality_stacks_its_scale_solves(monkeypatch):
    # the suite's three oracles: one stacked optimal_scale call for the
    # bracket's ends, then one for each round of the k-section
    calls, solve = [], optimal_scale

    def counting(*args):
        calls.append(np.size(args[1]))  # the trial points solved
        return solve(*args)

    monkeypatch.setattr(verify, "optimal_scale", counting)
    sym = DiscreteDist.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    asym = DiscreteDist.uniform([0.0, 0.0, 10.0])
    for args in ((sym, 0.0, 0.1, 1.0), (asym, 0.01, 0.05, 1.0), (asym, 0.99, 0.87, 1.0)):
        calls.clear()
        assert check_pair_optimality(*args).passed
        assert 1 <= len(calls) <= 15
        assert max(calls) <= verify.PAIR_POINTS  # a round's grid points off the kinks


def test_pair_optimality_rejects_infeasible_pair():
    with pytest.raises(ValueError, match="cannot hold"):
        check_pair_optimality(symmetric_pair(), alpha=0.99, beta=0.05, lam=1.0)


# --------------------------------------------------------- property suite


def serial_quick_suite(seed):
    """``run_property_suite(quick=True, seed=seed)``'s checks, run one after
    another in this process in their listed order."""
    return [
        suite._closed_forms(),
        suite._catoni_grid(),
        suite._partial_convexity(200, seed + 10),
        suite._lipschitz_bound(200, seed + 20),
        suite._nonsmooth_witness(200, seed + 30),
        suite._scale_bounds(50, seed + 40),
        suite._scale_limit(),
        suite._concentration("gaussian", GaussianLosses(0.0, 1.0), 300, seed + 50),
        suite._concentration("lognormal", LognormalLosses(0.0, 1.0), 300, seed + 51),
        suite._stationarity(20, seed + 60),
        suite._pair_optimality(),
    ]


@pytest.mark.parametrize("seed", [0, 3])
def test_suite_with_a_forked_worker_equals_a_serial_run_in_listed_order(monkeypatch, seed):
    use_cpus(monkeypatch, 2)  # the lognormal check runs in a forked worker
    outcomes = run_property_suite(quick=True, seed=seed)
    assert [(o.name, o.status, o.detail) for o in outcomes] == [
        (o.name, o.status, o.detail) for o in serial_quick_suite(seed)
    ]
    assert [o.name for o in outcomes if o.forked] == ["location_concentration_lognormal"]


@pytest.mark.parametrize("seed", [0, 1])
def test_full_size_suite_passes_every_property(monkeypatch, seed):
    use_cpus(monkeypatch, 2)
    outcomes = run_property_suite(quick=False, seed=seed)
    assert len(outcomes) == 11
    assert [o.name for o in outcomes if not o.passed] == []
    assert [o.name for o in outcomes if o.forked] == ["location_concentration_lognormal"]


@pytest.mark.parametrize("seed", range(5))
def test_quick_suite_passes_every_property(seed):
    assert [o.name for o in run_property_suite(quick=True, seed=seed) if not o.passed] == []


finite = st.floats(-1e30, 1e30)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(finite, finite, st.floats(1e-30, 1e30), st.floats(0.0, 1.0),
                          finite, finite), min_size=1, max_size=40))
def test_array_calls_equal_per_element_float_calls_bitwise(points):
    # the functions the suite's per-draw properties call once on arrays
    x, a, b, beta, u1, u2 = np.array(points).T
    for fn, args in [
        (rho_prime, (x,)),
        (catoni_envelope_check, (x,)),
        (partial_objective_grads, (x, a, b, beta)),
        (hessian_quadform, (x, b, u1, u2)),
    ]:
        each = [fn(*(float(v) for v in point)) for point in zip(*args)]
        np.testing.assert_array_equal(bits(fn(*args)), bits(each).T)


class Raised(Exception):
    pass


@pytest.mark.parametrize("raiser", ["worker", "caller"])
def test_suite_passes_on_an_exception_from_the_worker_or_the_caller(monkeypatch, raiser):
    # the lognormal concentration check runs in the forked worker, which
    # sends back its exception pickled (Raised pickles by reference), the
    # pair check last in this process
    use_cpus(monkeypatch, 2)
    if raiser == "worker":
        concentration = suite._concentration

        def failing(name, *args):
            if name == "lognormal":
                raise Raised(name)
            return concentration(name, *args)

        monkeypatch.setattr(suite, "_concentration", failing)
    else:
        def failing():
            raise Raised("pair")

        monkeypatch.setattr(suite, "_pair_optimality", failing)
    with pytest.raises(Raised, match="^(lognormal|pair)$"):
        run_property_suite(quick=True, seed=0)
    with pytest.raises(ChildProcessError):  # the worker has been reaped
        os.waitpid(-1, os.WNOHANG)


# ------------------------------------------------------------- validation


def test_discrete_dist_validation():
    with pytest.raises(ValueError):
        DiscreteDist(np.array([1.0, 2.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        DiscreteDist(np.array([1.0, 2.0]), np.array([1.1, -0.1]))
    # a NaN prob passes both the positivity and the sum test
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^DiscreteDist probs must be finite$"):
            DiscreteDist([0.0, 1.0], [bad, 1.0])
        with pytest.raises(ValueError, match="^DiscreteDist values must be finite$"):
            DiscreteDist([0.0, bad], [0.5, 0.5])


@pytest.mark.parametrize("make", [
    lambda: DiscreteDist.uniform([]),
    lambda: DiscreteDist.from_atoms([]),
    lambda: DiscreteDist(np.array([]), np.array([])),
])
def test_discrete_dist_needs_an_atom(make):
    with pytest.raises(ValueError, match="at least one atom"):
        make()


def test_location_concentration_deterministic_given_seed():
    kw = dict(b=20.0, alpha=0.0, lam=1.0, n=500, delta=0.05, trials=100, seed=77)
    r1 = check_location_concentration(GaussianLosses(0.0, 1.0), **kw)
    r2 = check_location_concentration(GaussianLosses(0.0, 1.0), **kw)
    assert r1.coverage == r2.coverage
