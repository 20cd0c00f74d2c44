"""The runnable property suite behind ``robustmsd verify``.

Each property evaluates one closed-form identity, structural bound or
population-level oracle and reports PASS/FAIL with a one-line detail.
``quick`` shrinks the randomized sample counts, not the tolerances.  The
lognormal concentration property runs in a forked worker beside the
others (``parallel.run_calls``).
"""

import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import List

import numpy as np

from . import rho as rho_mod
from .criteria import CriterionParams, hessian_quadform, partial_objective_grads
from .parallel import run_calls
from .verify import (
    DiscreteDist,
    GaussianLosses,
    GradientDist,
    LognormalLosses,
    check_location_concentration,
    check_pair_optimality,
    check_scale_bounds,
    check_scale_optimized_limit,
    check_stationarity_equivalence,
)

__all__ = ["PropertyOutcome", "run_property_suite"]


@dataclass
class PropertyOutcome:
    name: str
    passed: bool
    detail: str
    seconds: float = field(default=0.0, compare=False)  # wall time of the check
    forked: bool = field(default=False, compare=False)  # ran in a forked worker, beside the others

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _conjugate_sup(x: float) -> float:
    """sup_u x*u - rho(u), by bisection on the sign of its slope x - rho'(u).

    The objective is concave in u, so the slope changes sign once; [-1e6, 1e6]
    is halved until no float lies between its ends, and the larger of the
    objective's values at the two ends is returned.
    """
    lo, hi = -1e6, 1e6
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if x - rho_mod.rho_prime(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return max(x * u - rho_mod.rho(u) for u in (lo, hi))


def _closed_forms() -> PropertyOutcome:
    checks = [
        abs(rho_mod.rho(0.0)) == 0.0,
        abs(rho_mod.rho(1.0) - (math.sqrt(2.0) - 1.0)) < 1e-12,
        abs(rho_mod.rho(-3.0) - (math.sqrt(10.0) - 1.0)) < 1e-12,
        rho_mod.rho_prime(0.0) == 0.0,
        abs(rho_mod.rho_prime(1.0) - 1.0 / math.sqrt(2.0)) < 1e-12,
        0.999999 < rho_mod.rho_prime(1e6) < 1.0,
        rho_mod.rho_conjugate(0.0) == 0.0,
        abs(rho_mod.rho_conjugate(0.6) - 0.2) < 1e-12,
        rho_mod.rho_conjugate(1.0) == math.inf,
        rho_mod.rho_conjugate(-0.9) > rho_mod.rho_conjugate(-0.1),
        rho_mod.pseudo_huber(0.0, 5.0) == 0.0,
        abs(rho_mod.pseudo_huber(1.0, 1.0) - (math.sqrt(2.0) - 1.0)) < 1e-12,
        abs(rho_mod.pseudo_huber(2.0, 1e4) - 2.0) < 1e-3,
    ]
    xs = (-0.99, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.99)
    sup_err = max(abs(rho_mod.rho_conjugate(x) - _conjugate_sup(x)) for x in xs)
    ok = all(checks) and sup_err < 1e-6
    return PropertyOutcome(
        "rho_closed_forms", ok, f"conjugate sup deviation {sup_err:.2e}"
    )


def _catoni_grid() -> PropertyOutcome:
    xs = np.linspace(-50.0, 50.0, 10_001)
    bad = np.count_nonzero(~rho_mod.catoni_envelope_check(xs))
    return PropertyOutcome(
        "catoni_envelope_grid",
        bad == 0,
        f"{len(xs)} points on [-50, 50], {bad} violations",
    )


def _partial_convexity(n_pairs: int, seed: int) -> PropertyOutcome:
    rng = np.random.Generator(np.random.PCG64(seed))
    losses = rng.normal(size=20) * 3.0
    params = CriterionParams("sunhuber", alpha=0.05, beta=0.1, lam=1.0)
    # rows 1 and 2 hold each pair's ends, row 0 its midpoint
    a, b = np.empty((2, 3, n_pairs))
    a[1:] = rng.normal(scale=5.0, size=(2, n_pairs))
    b[1:] = rng.uniform(1e-3, 10.0, size=(2, n_pairs))
    a[0] = 0.5 * (a[1] + a[2])
    b[0] = 0.5 * (b[1] + b[2])
    # one value-only kernel call over the 3 * n_pairs points, the losses
    # broadcast to every row; each value has the bits of its criterion_value
    value = params.record.objective(
        losses, None, None, a.ravel(), b.ravel(), *params.coefficients
    )[0].reshape(3, n_pairs)
    gap = value[0] - 0.5 * (value[1] + value[2])
    worst = float(np.max(gap, initial=-math.inf))
    return PropertyOutcome(
        "partial_objective_convexity",
        worst <= 1e-12,
        f"{n_pairs} midpoint pairs, worst gap {worst:.2e}",
    )


def _lipschitz_bound(n_draws: int, seed: int) -> PropertyOutcome:
    rng = np.random.Generator(np.random.PCG64(seed))
    x, a = rng.normal(scale=10.0, size=(2, n_draws))
    b = rng.uniform(1e-4, 10.0, n_draws)
    beta = rng.uniform(0.0, 1.0, n_draws)
    ga, gb = partial_objective_grads(x, a, b, beta)
    excess = np.abs(ga) + np.abs(gb) - (1.0 + np.maximum(1.0 - beta, beta))
    worst = float(np.max(excess, initial=-math.inf))
    return PropertyOutcome(
        "gradient_one_norm_bound",
        worst <= 1e-12,
        f"{n_draws} draws, worst excess {worst:.2e}",
    )


def _nonsmooth_witness(n_draws: int, seed: int) -> PropertyOutcome:
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(scale=5.0, size=n_draws)
    b = rng.uniform(1e-6, 10.0, n_draws)
    u1, u2 = rng.normal(size=(2, n_draws))
    psd_ok = np.all(hessian_quadform(x, b, u1, u2) >= 0.0)
    witness = hessian_quadform(1e-6, 1e-6, 1.0, -1.0)
    return PropertyOutcome(
        "hessian_psd_and_blowup",
        bool(psd_ok and witness > 1e4),
        f"quadform at (x,b)=(1e-6,1e-6): {witness:.3e}",
    )


def _scale_bounds(n_configs: int, seed: int) -> PropertyOutcome:
    rng = np.random.Generator(np.random.PCG64(seed))
    values, probs = np.zeros((2, n_configs, 6))  # 2-6 atoms, padded at a with no mass
    a, beta, lam = np.empty((3, n_configs))
    for i in range(n_configs):  # drawn one configuration at a time
        m = int(rng.integers(2, 7))
        atoms, p = rng.uniform(-5.0, 5.0, m), rng.uniform(0.1, 1.0, m)
        a[i] = values[i] = rng.uniform(-6.0, 6.0)
        lam[i] = rng.uniform(0.2, 3.0)
        beta[i] = rng.uniform(0.01, 0.99) * lam[i]
        values[i, :m], probs[i, :m] = atoms, p / p.sum()
    fails = int(np.count_nonzero(~check_scale_bounds((values, probs), a, beta, lam).passed))
    return PropertyOutcome(
        "optimal_scale_bounds",
        fails == 0,
        f"{n_configs} random configurations, {fails} failures",
    )


def _scale_limit() -> PropertyOutcome:
    sym = DiscreteDist.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    const = DiscreteDist.from_atoms([(2.0, 1.0)])
    shifted = DiscreteDist.from_atoms([(2.0, 0.5), (4.0, 0.5)])
    reports = [
        check_scale_optimized_limit(sym, 0.0, 1.0, 0.0),
        check_scale_optimized_limit(const, 2.0, 1.0, 1.0),
        check_scale_optimized_limit(shifted, 3.0, 1.0, 1.0),
    ]
    ok = all(r.verdict == "pass" for r in reports)
    vals = ", ".join(f"{r.scaled_values[-1]:.4f}" for r in reports)
    return PropertyOutcome("scale_optimized_sandwich", ok, f"limits: {vals}")


def _concentration(name: str, losses, trials: int, seed: int) -> PropertyOutcome:
    r = check_location_concentration(
        losses, b=20.0, alpha=0.0, lam=1.0, n=2000,
        delta=0.05, trials=trials, seed=seed,
    )
    return PropertyOutcome(
        f"location_concentration_{name}",
        r.passed,
        f"coverage {r.coverage:.4f} >= required {r.required:.4f}",
    )


def _stationarity(n_instances: int, seed: int) -> PropertyOutcome:
    values, probs = np.empty((2, n_instances, 5))
    grads = np.empty((n_instances, 5, 3))
    for s in range(n_instances):
        rng = np.random.Generator(np.random.PCG64(seed + s))
        values[s] = rng.uniform(-4.0, 4.0, 5)
        grads[s] = rng.normal(size=(5, 3))
        probs[s] = rng.uniform(0.1, 1.0, 5)
    probs /= probs.sum(axis=1, keepdims=True)
    fails = int(np.count_nonzero(~check_stationarity_equivalence(
        GradientDist(values, grads, probs)).passed))
    return PropertyOutcome(
        "mean_variance_stationarity",
        fails == 0,
        f"{n_instances} random 5-atom instances, {fails} failures",
    )


def _pair_optimality() -> PropertyOutcome:
    sym = DiscreteDist.from_atoms([(-1.0, 0.5), (1.0, 0.5)])
    asym = DiscreteDist.uniform([0.0, 0.0, 10.0])
    reports = [
        check_pair_optimality(sym, alpha=0.0, beta=0.1, lam=1.0),
        check_pair_optimality(asym, alpha=0.01, beta=0.05, lam=1.0),
        check_pair_optimality(asym, alpha=0.99, beta=0.87, lam=1.0),
    ]
    ok = all(r.passed for r in reports)
    res = max(max(r.location_residual, r.scale_residual) for r in reports)
    return PropertyOutcome(
        "pair_optimality_equalities", ok, f"worst residual {res:.2e}"
    )


def _timed(check) -> PropertyOutcome:
    start = time.perf_counter()
    outcome = check()
    outcome.seconds = time.perf_counter() - start
    return outcome


def run_property_suite(quick: bool = False, seed: int = 0) -> List[PropertyOutcome]:
    """Run every property check; ``quick`` shrinks randomized sample counts.

    ``run_calls`` runs the lognormal concentration check in a forked
    worker, started first, while this process runs the others in listed
    order; where it runs every call here, the lognormal check runs last.
    Outcomes come back in listed order, each with its wall time, taken in
    the process that ran it, in ``seconds``; the forked worker's outcome,
    whose time overlaps the others', has ``forked`` set.  An exception
    from either side reaches the caller, and the worker has been reaped
    when this returns or raises.
    """
    n_pairs = 200 if quick else 1000
    n_draws = 200 if quick else 1000
    n_configs = 50 if quick else 200
    mc_trials = 300 if quick else 2000
    n_stat = 20 if quick else 100
    side = partial(_concentration, "lognormal", LognormalLosses(0.0, 1.0),
                   mc_trials, seed + 51)
    checks = [
        _closed_forms,
        _catoni_grid,
        partial(_partial_convexity, n_pairs, seed + 10),
        partial(_lipschitz_bound, n_draws, seed + 20),
        partial(_nonsmooth_witness, n_draws, seed + 30),
        partial(_scale_bounds, n_configs, seed + 40),
        _scale_limit,
        partial(_concentration, "gaussian", GaussianLosses(0.0, 1.0),
                mc_trials, seed + 50),
        side,
        partial(_stationarity, n_stat, seed + 60),
        _pair_optimality,
    ]
    caller = os.getpid()

    def side_timed() -> PropertyOutcome:
        outcome = _timed(side)
        outcome.forked = os.getpid() != caller  # False where run_calls ran it here
        return outcome

    others, lognormal = run_calls([
        ("the other properties", lambda: [_timed(c) for c in checks if c is not side]),
        ("location_concentration_lognormal", side_timed),
    ])
    others = iter(others)
    return [lognormal if check is side else next(others) for check in checks]
