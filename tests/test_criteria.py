"""Objective values, gradients and structural properties of the criteria."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from robustmsd.criteria import (
    CRITERIA,
    KINDS,
    CriterionParams,
    CriterionStack,
    JointState,
    criterion_value,
    evaluate_objective,
    hessian_quadform,
    mean_sd,
    partial_objective_grads,
    schedule_params,
)
from robustmsd.model import LinearModel, LossBatch, loss_batch


def make_batch(values, rows=None):
    """Single-output batch whose per-example gradients are the given rows."""
    values = np.asarray(values, dtype=float)
    if rows is None:
        rows = np.zeros((values.size, 1))
    return LossBatch(values=values, dscore=np.ones((values.size, 1)), rows=rows)


def erm_objective(batch):
    return evaluate_objective(batch, JointState(h=np.zeros(1)), CriterionParams("erm"))


def cvar_objective(batch, a, xi):
    params = CriterionParams("cvar", xi=xi)
    return evaluate_objective(batch, JointState(h=np.zeros(1), a=a), params)


def chisq_dro_objective(batch, a, eta_tilde):
    params = CriterionParams("chisq_dro", eta_tilde=eta_tilde)
    return evaluate_objective(batch, JointState(h=np.zeros(1), a=a), params)


# ---------------------------------------------------------------- schedule


def test_schedule_params_matches_planar_experiment_setting():
    lam = math.log(100.0) / math.sqrt(100.0)
    p = schedule_params(100, 0.9, lam)
    assert p.alpha == pytest.approx(0.09, rel=1e-14)
    assert p.beta == pytest.approx(0.09, rel=1e-14)
    assert p.kind == "sunhuber" and p.lam == lam and p.beta0 == 0.9


def test_schedule_params_n_one():
    p = schedule_params(1, 0.5, 1.0)
    assert p.alpha == 0.5 and p.beta == 0.5


def test_schedule_params_rejects_beta_at_least_lambda():
    with pytest.raises(ValueError):
        schedule_params(4, 2.5, 1.0)  # beta = 1.25 >= 1
    with pytest.raises(ValueError):
        schedule_params(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        schedule_params(10, -1.0, 1.0)


def test_criterion_params_validation():
    with pytest.raises(ValueError):
        CriterionParams("cvar", xi=1.0)
    with pytest.raises(ValueError):
        CriterionParams("cvar")
    with pytest.raises(ValueError):
        CriterionParams("chisq_dro", eta_tilde=0.0)
    with pytest.raises(ValueError):
        CriterionParams("nope")


# ------------------------------------------------------------- objectives


def test_sunhuber_symmetric_pair():
    params = CriterionParams("sunhuber", alpha=0.0, beta=0.0, lam=1.0)
    state = JointState(h=np.zeros(1), a=2.0, b=1.0)
    ev = evaluate_objective(make_batch([1.0, 3.0]), state, params)
    assert ev.value == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    # symmetric residuals cancel in the location gradient
    assert ev.grad_a == pytest.approx(0.0, abs=1e-15)


def test_sunhuber_linear_terms_add():
    params = CriterionParams("sunhuber", alpha=0.1, beta=0.2, lam=1.0)
    state = JointState(h=np.zeros(1), a=2.0, b=1.0)
    ev = evaluate_objective(make_batch([1.0, 3.0]), state, params)
    expected = (math.sqrt(2.0) - 1.0) + 0.1 * 2.0 + 0.2 * 1.0
    assert ev.value == pytest.approx(expected, rel=1e-12)


def test_sunhuber_zero_deviation():
    params = CriterionParams("sunhuber", alpha=0.0, beta=0.0, lam=1.0)
    state = JointState(h=np.zeros(1), a=4.0, b=3.0)
    ev = evaluate_objective(make_batch([4.0, 4.0, 4.0]), state, params)
    assert ev.value == 0.0
    assert ev.grad_a == 0.0


def test_sunhuber_rejects_empty_and_bad_scale():
    params = CriterionParams("sunhuber", lam=1.0)
    with pytest.raises(ValueError):
        evaluate_objective(make_batch([]), JointState(h=np.zeros(1), b=1.0), params)
    with pytest.raises(ValueError):
        JointState(h=np.zeros(1), a=0.0, b=0.0)


def test_erm_examples():
    assert erm_objective(make_batch([1.0, 3.0])).value == 2.0
    assert erm_objective(make_batch([5.0])).value == 5.0
    assert erm_objective(make_batch([0.0, 0.0, 2.0, 2.0])).value == 1.0
    grads = np.array([[1.0, 0.0], [3.0, 2.0]])
    ev = erm_objective(make_batch([1.0, 3.0], grads))
    np.testing.assert_allclose(ev.grad_h, [[2.0, 1.0]])
    with pytest.raises(ValueError):
        erm_objective(make_batch([]))


def test_cvar_minimized_value_by_grid_search():
    losses = np.array([1.0, 2.0, 3.0, 4.0])
    grid = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    vals = [cvar_objective(make_batch(losses), a, 0.75).value for a in grid]
    assert min(vals) == pytest.approx(4.0, abs=1e-9)


def test_cvar_constant_losses_at_threshold():
    ev = cvar_objective(make_batch([3.0, 3.0, 3.0]), 3.0, 0.4)
    assert ev.value == 3.0


def test_cvar_direct_evaluation():
    ev = cvar_objective(make_batch([0.0, 10.0]), 0.0, 0.5)
    assert ev.value == pytest.approx(10.0, rel=1e-14)
    with pytest.raises(ValueError):
        cvar_objective(make_batch([1.0]), 0.0, 1.0)
    with pytest.raises(ValueError):
        cvar_objective(make_batch([1.0]), 0.0, 0.0)


def test_cvar_kink_subgradient_excludes_boundary():
    # l_i == a exactly: indicator treats the example as inactive
    ev = cvar_objective(make_batch([2.0, 2.0]), 2.0, 0.5)
    assert ev.grad_a == 1.0


def test_chisq_dro_examples():
    assert chisq_dro_objective(make_batch([4.0, 4.0]), 4.0, 0.3).value == 4.0
    ev = chisq_dro_objective(make_batch([0.0, 2.0]), 0.0, 0.5)
    assert ev.value == pytest.approx(2.0, rel=1e-14)
    assert chisq_dro_objective(make_batch([1.0, 3.0]), 5.0, 0.2).value == 5.0
    with pytest.raises(ValueError):
        chisq_dro_objective(make_batch([1.0]), 0.0, 1.5)


def test_chisq_dro_zero_positive_part_gradient():
    grads = np.ones((2, 3))
    ev = chisq_dro_objective(make_batch([1.0, 3.0], grads), 5.0, 0.2)
    assert ev.grad_a == 1.0
    np.testing.assert_array_equal(ev.grad_h, np.zeros((1, 3)))


# -------------------------------------------------- evaluation functionals


def test_mean_sd_examples():
    assert mean_sd([0.0, 0.0, 2.0, 2.0]) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        mean_sd([])


def test_mean_sd_given_mean_keeps_the_bits():
    rng = np.random.Generator(np.random.PCG64(4))
    stack = rng.lognormal(0.0, 2.0, (6, 333))
    mean = np.add.reduce(stack, -1) / 333
    assert np.array_equal(mean_sd(stack, mean=mean), mean_sd(stack))
    one = stack[2]
    assert mean_sd(one, mean=mean[2]) == mean_sd(one)
    assert isinstance(mean_sd(one, mean=mean[2]), float)


def mean_variance(values):
    """Sample mean plus sample variance (divisor n)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("mean_variance requires at least one loss")
    return float(np.mean(values)) + float(np.var(values))


def test_mean_variance_examples():
    assert mean_variance([0.0, 0.0, 2.0, 2.0]) == pytest.approx(2.0, rel=1e-14)
    assert mean_variance([5.0, 5.0]) == 5.0


def mean_variance_variational(values, a):
    """Convex surrogate a + (mean((l - a)^2) + 1)/2 whose minimizer is mean - 1."""
    d = np.asarray(values, dtype=float) - a
    return a + (float(np.mean(d * d)) + 1.0) / 2.0


def mean_variance_minimizer(values):
    """Analytic minimizer (sample mean - 1) of the variational surrogate."""
    return float(np.mean(values)) - 1.0


def test_mean_variance_variational_form():
    """Grid-minimize the convex surrogate and pin down what it equals.

    The surrogate a + (mean((l-a)^2) + 1)/2 is minimized at a = mean - 1 and
    its minimum is mean + variance/2, i.e. the variance enters halved; the
    useful exact identity is mean((l - a_mv)^2) = variance + 1.
    """
    losses = np.array([0.0, 0.0, 2.0, 2.0])
    grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
    vals = np.array([mean_variance_variational(losses, a) for a in grid])
    i = int(np.argmin(vals))
    a_mv = mean_variance_minimizer(losses)
    assert a_mv == pytest.approx(0.0, abs=1e-14)
    assert grid[i] == pytest.approx(a_mv, abs=1e-4)
    mean, var = float(np.mean(losses)), float(np.var(losses))
    assert vals[i] == pytest.approx(mean + var / 2.0, abs=1e-7)
    assert float(np.mean((losses - a_mv) ** 2)) == pytest.approx(var + 1.0, rel=1e-14)


# ----------------------------------------------------------- finite diffs


def _objective_value(params, X, labels, w, a, b):
    model = LinearModel(weights=w)
    batch = loss_batch(model, X, labels)
    return criterion_value(batch.values, JointState(h=w, a=a, b=b), params)


def _fd_check(params, rng, n_checks=100, eps=1e-6, rtol=1e-5):
    """Central finite differences for grad_h, grad_a (and grad_b) at random states."""
    checked = 0
    attempts = 0
    while checked < n_checks:
        attempts += 1
        assert attempts < 20 * n_checks, "could not find enough kink-free states"
        X = rng.normal(size=(8, 3))
        labels = rng.integers(2, size=8)
        w = rng.normal(size=(1, 4))
        batch = loss_batch(LinearModel(weights=w), X, labels)
        a = float(rng.normal(loc=np.mean(batch.values), scale=1.0))
        b = float(rng.uniform(0.3, 3.0))
        if params.kind in ("cvar", "chisq_dro"):
            if np.min(np.abs(batch.values - a)) <= 1e-3:
                continue  # stay away from the subgradient kinks
        state = JointState(h=w, a=a, b=b)
        ev = evaluate_objective(batch, state, params)

        fd_h = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            fd_h[idx] = (
                _objective_value(params, X, labels, wp, a, b)
                - _objective_value(params, X, labels, wm, a, b)
            ) / (2.0 * eps)
        np.testing.assert_allclose(ev.grad_h, fd_h, rtol=rtol, atol=1e-8)

        if params.kind != "erm":
            fd_a = (
                _objective_value(params, X, labels, w, a + eps, b)
                - _objective_value(params, X, labels, w, a - eps, b)
            ) / (2.0 * eps)
            assert ev.grad_a == pytest.approx(fd_a, rel=rtol, abs=1e-8)
        if params.kind == "sunhuber":
            fd_b = (
                _objective_value(params, X, labels, w, a, b + eps)
                - _objective_value(params, X, labels, w, a, b - eps)
            ) / (2.0 * eps)
            assert ev.grad_b == pytest.approx(fd_b, rel=rtol, abs=1e-8)
        checked += 1


def test_sunhuber_gradients_match_finite_differences():
    params = CriterionParams("sunhuber", alpha=0.07, beta=0.09, lam=0.46)
    _fd_check(params, np.random.Generator(np.random.PCG64(101)))


def test_erm_gradients_match_finite_differences():
    _fd_check(CriterionParams("erm"), np.random.Generator(np.random.PCG64(102)))


def test_cvar_gradients_match_finite_differences():
    _fd_check(
        CriterionParams("cvar", xi=0.7), np.random.Generator(np.random.PCG64(103))
    )


def test_chisq_dro_gradients_match_finite_differences():
    _fd_check(
        CriterionParams("chisq_dro", eta_tilde=0.4),
        np.random.Generator(np.random.PCG64(104)),
    )


B_FLOOR = 1e-8  # optimizer.B_FLOOR
PARAMS = {
    "sunhuber": st.builds(
        lambda alpha, beta, lam: CriterionParams("sunhuber", alpha=alpha, beta=beta, lam=lam),
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 2.0),
    ),
    "erm": st.just(CriterionParams("erm")),
    "cvar": st.floats(0.05, 0.95).map(lambda xi: CriterionParams("cvar", xi=xi)),
    "chisq_dro": st.floats(0.05, 0.95).map(
        lambda level: CriterionParams("chisq_dro", eta_tilde=level)
    ),
}


@st.composite
def gradient_cases(draw):
    """A criterion, a logistic batch (K in {1, 3}, n = 1..8) whose losses
    reach 1e6, a threshold a (anywhere, or next to one of the losses) and a
    scale b in [B_FLOOR, 1e8]."""
    params = draw(st.sampled_from(KINDS).flatmap(PARAMS.get))
    k = draw(st.sampled_from([1, 3]))
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(-5.0, 5.0)))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, max(k, 2) - 1)))
    w = draw(arrays(np.float64, (k, d), elements=st.floats(-1.0, 1.0)))
    w = w * 10.0 ** draw(st.floats(-2.0, 5.0))
    anchor = draw(st.one_of(st.floats(-10.0, 1e6), st.tuples(st.integers(0, 7), st.floats(-1, 1))))
    b = draw(st.one_of(st.just(B_FLOOR), st.floats(B_FLOOR, 1e8)))
    return params, X, labels, w, anchor, b


def smoothness_scale(params, r, b):
    """Distance in loss units over which the objective stays smooth: the
    joint criterion curves on sqrt(r^2 + b^2); CVaR kinks at r = 0, and the
    divergence dual's square kinks there too and its root curves on its own
    size."""
    if params.kind == "sunhuber":
        return float(np.min(np.sqrt(r * r + b * b)))
    kinks = float(np.min(np.abs(r)))
    if params.kind == "cvar":
        return kinks
    if params.kind == "chisq_dro":
        root = math.sqrt(float(np.mean(np.maximum(r, 0.0) ** 2)))
        return min(root, kinks) if root > 0.0 else kinks
    return max(1.0, float(np.max(np.abs(r))))  # the mean is linear in the losses


@settings(max_examples=200, deadline=None)
@given(gradient_cases())
def test_stack_gradients_match_central_differences(case):
    """grad_h, grad_a and grad_b of every kind, from ``CriterionStack.objective``
    for a lone run and for rows of a stack, against central differences.

    The differences are taken in the frame shifted by a, where the objective
    is a sum of nonnegative terms, with a step well inside the smoothness
    scale, so truncation is negligible.  The tolerance adds the float64
    rounding of a central difference at that step; it leaves the check loose
    only where the smoothness scale is below ~1e-8 of the losses' size (b
    near B_FLOOR beside losses near 1e6, or a loss that close to a kink).
    """
    params, X, labels, w, anchor, b = case
    model = LinearModel(weights=w, includes_bias=False)
    batch = loss_batch(model, X, labels)
    n = batch.values.size
    a = anchor if isinstance(anchor, float) else float(batch.values[anchor[0] % n] + anchor[1])
    scale = smoothness_scale(params, batch.values - a, b)
    assume(scale > 0.0)  # on a kink the subgradient convention has no difference quotient
    lone = CriterionStack([params])

    def objective(values, t, scale_b):
        return lone.objective(values - a, batch.dscore, batch.rows, t, scale_b)[0]

    def moved_h(idx, step):
        model.weights = w.copy()
        model.weights[idx] += step
        return objective(loss_batch(model, X, labels).values, 0.0, b)

    xmax = max(1.0, float(np.max(np.abs(X))))
    eps_h = 1e-5 * min(scale, 10.0) / xmax
    eps_a = 1e-5 * scale
    eps_b = 1e-5 * (scale if params.kind == "sunhuber" else b)
    fd_h = {idx: (moved_h(idx, eps_h), moved_h(idx, -eps_h)) for idx in np.ndindex(*w.shape)}
    fd_a = objective(batch.values, eps_a, b), objective(batch.values, -eps_a, b)
    fd_b = objective(batch.values, 0.0, b + eps_b), objective(batch.values, 0.0, b - eps_b)

    sensitivity = 20.0 * (1.0 + params.lam)  # bounds the sum of |d objective / d loss_i|
    size = float(np.max(np.abs(batch.values) + abs(a) + np.abs(X) @ np.abs(w).sum(0)))
    base = objective(batch.values, 0.0, b)
    noise = 32.0 * np.finfo(float).eps * (sensitivity * size + n * abs(base))

    def check(got, moved, eps, gauge):
        fd = (moved[0] - moved[1]) / (2.0 * eps)
        assert abs(got - fd) <= 1e-5 * max(abs(got), abs(fd)) + 1e-12 * gauge + noise / eps

    stack = CriterionStack([CriterionParams("erm"), params, params])
    _, *stacked = stack.objective(
        np.stack([batch.values] * 3), np.stack([batch.dscore] * 3), batch.rows,
        np.full(3, a), np.full(3, b),
    )
    lone_grads = lone.objective(batch.values, batch.dscore, batch.rows, a, b)[1:]
    for grad_h, grad_a, grad_b in [lone_grads] + [[g[i] for g in stacked] for i in (1, 2)]:
        for idx, moved in fd_h.items():
            check(grad_h[idx], moved, eps_h, sensitivity * xmax)
        check(grad_a, fd_a, eps_a, sensitivity)
        check(grad_b, fd_b, eps_b, sensitivity)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@st.composite
def value_cases(draw):
    """1 to 4 stacked runs of any kinds on 1 to 6 losses that include 0,
    1e300, inf and NaN, with thresholds that include -0.0 (a row of zero
    losses at a = -0.0 is a flat divergence-dual row) and scales in
    [B_FLOOR, 1e8]."""
    r, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    params = draw(st.lists(st.sampled_from(KINDS).flatmap(PARAMS.get), min_size=r, max_size=r))
    edges = st.sampled_from([0.0, 1e300, math.inf, math.nan])
    losses = draw(arrays(np.float64, (r, n), elements=st.one_of(edges, st.floats(0.0, 1e6))))
    a = draw(arrays(np.float64, r, elements=st.one_of(st.just(-0.0), st.floats(-10.0, 1e6))))
    b = draw(arrays(np.float64, r, elements=st.one_of(st.just(B_FLOOR), st.floats(B_FLOOR, 1e8))))
    return params, losses, a, b


@settings(max_examples=300, deadline=None)
@given(value_cases())
@example(([CriterionParams("chisq_dro", eta_tilde=0.5)], np.zeros((1, 3)), np.array([-0.0]),
          np.ones(1)))
@example(([CriterionParams("cvar", xi=0.5)], np.array([[1.0, math.nan]]), np.zeros(1),
          np.ones(1)))
def test_training_value_equals_checkpoint_value_bitwise(case):
    """A step's objective value has the bits of ``criterion_value`` for a lone
    run, and ``CriterionStack.objective``'s those of ``CriterionStack.value``
    for a stack's rows, at the extremes too."""
    params, losses, a, b = case
    r, n = losses.shape
    dscore, rows = np.ones((r, n, 1)), np.ones((n, 2))
    with np.errstate(all="ignore"):
        for i, p in enumerate(params):
            state = JointState(h=np.zeros((1, 2)), a=a[i], b=b[i])
            ev = evaluate_objective(LossBatch(losses[i], dscore[i], rows), state, p)
            assert bits(ev.value) == bits(criterion_value(losses[i], state, p))
        stack = CriterionStack(params)
        value = stack.objective(losses, dscore, rows, a, b)[0]
        np.testing.assert_array_equal(bits(value), bits(stack.value(losses, a, b)))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_value_only_kernel_call_keeps_the_full_calls_value_bitwise(kind, data):
    """Each kind's kernel called value-only (``dscore`` and ``rows`` None)
    returns None for every gradient and the value of the full call bit for
    bit, for a lone run and for a stack of runs of that kind, on batches
    long enough for numpy's pairwise summation to split them."""
    record = CRITERIA[kind]
    r, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 300))
    params = data.draw(st.lists(PARAMS[kind], min_size=r, max_size=r))
    edges = st.sampled_from([0.0, 1e300, math.inf, math.nan])
    elements = st.one_of(edges, st.floats(0.0, 1e6))
    losses = data.draw(arrays(np.float64, (r, n), elements=elements))
    a = data.draw(arrays(np.float64, r, elements=st.floats(-10.0, 1e6)))
    b = data.draw(arrays(np.float64, r, elements=st.floats(B_FLOOR, 1e8)))
    dscore, rows = np.ones((r, n, 1)), np.ones((n, 2))
    coef = [np.array(c) for c in zip(*(p.coefficients for p in params))]
    calls = [(losses[i], dscore[i], float(a[i]), float(b[i]), p.coefficients)
             for i, p in enumerate(params)] + [(losses, dscore, a, b, coef)]
    with np.errstate(all="ignore"):
        for values, ds, at, bt, c in calls:
            only = record.objective(values, None, None, at, bt, *c)
            full = record.objective(values, ds, rows, at, bt, *c)
            assert only[1:] == (None, None, None)
            np.testing.assert_array_equal(bits(only[0]), bits(full[0]))


# --------------------------------------------------- structural properties


def test_partial_objective_midpoint_convexity():
    """(a, b) -> joint objective value is convex for fixed losses."""
    rng = np.random.Generator(np.random.PCG64(42))
    losses = rng.normal(size=20) * 3.0
    params = CriterionParams("sunhuber", alpha=0.05, beta=0.1, lam=1.0)

    def value(a, b):
        return criterion_value(losses, JointState(h=np.zeros(1), a=a, b=b), params)

    for _ in range(1000):
        a1, a2 = rng.normal(scale=5.0, size=2)
        b1, b2 = rng.uniform(1e-3, 10.0, size=2)
        mid = value(0.5 * (a1 + a2), 0.5 * (b1 + b2))
        avg = 0.5 * (value(a1, b1) + value(a2, b2))
        assert mid <= avg + 1e-12


def test_partial_gradient_one_norm_bound():
    rng = np.random.Generator(np.random.PCG64(43))
    for _ in range(1000):
        x = float(rng.normal(scale=10.0))
        a = float(rng.normal(scale=10.0))
        b = float(rng.uniform(1e-4, 10.0))
        beta = float(rng.uniform(0.0, 1.0))
        ga, gb = partial_objective_grads(x, a, b, beta)
        assert abs(ga) + abs(gb) <= 1.0 + max(1.0 - beta, beta) + 1e-12


def test_hessian_quadform_positive_semidefinite():
    rng = np.random.Generator(np.random.PCG64(44))
    for _ in range(1000):
        x = float(rng.normal(scale=5.0))
        b = float(rng.uniform(1e-6, 10.0))
        u1, u2 = rng.normal(size=2)
        assert hessian_quadform(x, b, u1, u2) >= 0.0


def test_hessian_quadform_unbounded_witness():
    # along x = b with direction (1, -1) the curvature blows up as b -> 0
    assert hessian_quadform(1e-6, 1e-6, 1.0, -1.0) > 1e4


def test_scale_term_monotone_nonincreasing_in_b():
    rng = np.random.Generator(np.random.PCG64(45))
    losses = rng.normal(size=15) * 4.0
    a = 0.5
    params = CriterionParams("sunhuber", alpha=0.0, beta=0.0, lam=1.0)

    def dev(b):
        # beta = 0 and alpha = 0 leaves exactly mean(sqrt(r^2+b^2) - b)
        return criterion_value(losses, JointState(h=np.zeros(1), a=a, b=b), params)

    grid = np.geomspace(1e-4, 1e6, 200)
    vals = [dev(b) for b in grid]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_deviation_term_vanishes_for_large_scale():
    rng = np.random.Generator(np.random.PCG64(46))
    losses = rng.uniform(-5.0, 5.0, size=30)
    params = CriterionParams("sunhuber", alpha=0.0, beta=0.0, lam=1.0)
    v = criterion_value(losses, JointState(h=np.zeros(1), a=0.0, b=1e8), params)
    assert 0.0 <= v < 1e-6


def test_trajectory_metric_inequality_mean_sd_dominates_mean():
    rng = np.random.Generator(np.random.PCG64(47))
    for _ in range(50):
        losses = rng.normal(size=10)
        assert mean_sd(losses) >= float(np.mean(losses))
