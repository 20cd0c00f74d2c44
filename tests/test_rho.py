"""Closed-form checks for the smooth Huber function and its transforms."""

import math

import numpy as np
import pytest

from robustmsd.rho import (
    catoni_envelope_check,
    pseudo_huber,
    rho,
    rho_conjugate,
    rho_prime,
)


def conjugate_sup_oracle(x):
    """Numeric supremum of x*u - (sqrt(u^2+1) - 1) over a dense u-grid.

    The optimizer sign(x)/sqrt(1/x^2 - 1) stays below 7.1 for |x| <= 0.99,
    so a fine grid on [-10, 10] resolves the peak; coarse tails out to 1e6
    confirm nothing larger lives out there.
    """
    fine = np.linspace(-10.0, 10.0, 2_000_001)
    tails = np.geomspace(10.0, 1e6, 20_000)
    u = np.concatenate([fine, tails, -tails])
    return float(np.max(x * u - (np.sqrt(u * u + 1.0) - 1.0)))


def test_rho_examples():
    assert rho(0.0) == 0.0
    assert rho(1.0) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
    assert rho(-3.0) == pytest.approx(math.sqrt(10.0) - 1.0, rel=1e-14)
    assert rho(-3.0) == rho(3.0)


def test_rho_even_and_prime_odd_on_grid():
    for x in np.linspace(0.0, 50.0, 2001):
        assert rho(x) == rho(-x)
        assert rho_prime(-x) == -rho_prime(x)


def test_rho_nonnegative_zero_only_at_origin():
    for x in [1e-12, 1e-8, 1e-3, 0.5, 3.0, 1e3]:
        assert rho(x) > 0.0
        assert rho(-x) > 0.0
    assert rho(0.0) == 0.0


def test_rho_prime_examples():
    assert rho_prime(0.0) == 0.0
    assert rho_prime(1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    v = rho_prime(1e6)
    assert 0.999999 < v < 1.0


def test_rho_prime_strictly_inside_unit_interval():
    for x in np.linspace(-50.0, 50.0, 5001):
        assert abs(rho_prime(x)) < 1.0


def test_rho_prime_matches_finite_difference():
    h = 1e-6
    for x in np.concatenate([np.linspace(0.1, 50.0, 400), -np.linspace(0.1, 50.0, 400)]):
        fd = (rho(x + h) - rho(x - h)) / (2.0 * h)
        assert fd == pytest.approx(rho_prime(x), rel=1e-5)
    for x in np.linspace(-0.1, 0.1, 101):
        fd = (rho(x + h) - rho(x - h)) / (2.0 * h)
        assert fd == pytest.approx(rho_prime(x), abs=1e-7)


def test_catoni_envelope_examples():
    assert catoni_envelope_check(0.0)
    assert catoni_envelope_check(2.5)
    assert catoni_envelope_check(-7.0)
    # cross-check the x = 2.5 numbers directly
    assert rho_prime(2.5) == pytest.approx(2.5 / math.sqrt(7.25), rel=1e-14)
    assert rho_prime(2.5) <= math.log(1.0 + 2.5 + 6.25)
    assert rho_prime(2.5) >= -math.log(1.0 - 2.5 + 6.25)


def test_catoni_envelope_full_grid():
    # 10,001 points over [-50, 50] at step 1e-2
    for x in np.linspace(-50.0, 50.0, 10_001):
        assert catoni_envelope_check(x)


def test_conjugate_examples():
    assert rho_conjugate(0.0) == 0.0
    assert rho_conjugate(0.6) == pytest.approx(0.2, abs=1e-12)
    assert rho_conjugate(1.0) == math.inf
    assert rho_conjugate(-1.0) == math.inf
    assert rho_conjugate(3.7) == math.inf


def test_conjugate_matches_numeric_supremum():
    for x in [-0.99, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9, 0.99]:
        assert rho_conjugate(x) == pytest.approx(conjugate_sup_oracle(x), abs=1e-6)


def test_conjugate_nonmonotone_on_negative_side():
    assert rho_conjugate(-0.9) > rho_conjugate(-0.1)


def test_pseudo_huber_examples():
    assert pseudo_huber(0.0, 5.0) == 0.0
    assert pseudo_huber(1.0, 1.0) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
    assert abs(pseudo_huber(2.0, 1e4) - 2.0) < 1e-3


def test_pseudo_huber_limit_to_half_square():
    for x in [0.5, 1.0, 3.0, -2.0]:
        prev_err = math.inf
        for b in [1e1, 1e2, 1e3, 1e4]:
            err = abs(pseudo_huber(x, b) - x * x / 2.0)
            assert err < prev_err
            prev_err = err
        assert prev_err < 1e-3


def test_pseudo_huber_rejects_bad_scale():
    with pytest.raises(ValueError):
        pseudo_huber(1.0, 0.0)
    with pytest.raises(ValueError):
        pseudo_huber(1.0, -2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_inputs_rejected(bad):
    for fn in (rho, rho_prime, catoni_envelope_check, rho_conjugate):
        with pytest.raises(ValueError):
            fn(bad)
    with pytest.raises(ValueError):
        pseudo_huber(bad, 1.0)
