"""Closed-form math for the smooth Huber dispersion function.

The dispersion function here is rho(x) = sqrt(x^2 + 1) - 1: approximately
quadratic near zero, asymptotically linear in the tails, with a derivative
bounded strictly inside (-1, 1).  This module collects the function, its
derivative, the logarithmic envelope check that justifies its use
for heavy-tailed location estimation, its Legendre-Fenchel conjugate, and
the rescaled (pseudo-Huber) map b^2 * rho(x/b).
"""

import math

import numpy as np

__all__ = [
    "rho",
    "rho_prime",
    "catoni_envelope_check",
    "rho_conjugate",
    "pseudo_huber",
]

def _require_finite(name: str, x):
    x = float(x) if isinstance(x, float) or np.ndim(x) == 0 else np.asarray(x, dtype=float)
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def rho(x: float) -> float:
    """Smooth Huber function sqrt(x^2 + 1) - 1.

    Even and nonnegative, zero only at the origin.  For |x| < 1 the
    algebraically equivalent form x^2 / (sqrt(x^2 + 1) + 1) is used so small
    inputs keep full relative precision instead of cancelling against 1.
    """
    x = _require_finite("x", x)
    if abs(x) < 1.0:
        return x * x / (math.hypot(x, 1.0) + 1.0)
    return math.hypot(x, 1.0) - 1.0


def rho_prime(x):
    """First derivative x / sqrt(x^2 + 1), elementwise; odd, strictly inside (-1, 1)."""
    x = _require_finite("x", x)
    return x / np.hypot(x, 1.0)


def catoni_envelope_check(x):
    """True iff -log(1 - x + x^2) <= rho'(x) <= log(1 + x + x^2), elementwise.

    Both log arguments are automatically positive (1 +- x + x^2 >= 3/4), so
    the check is well defined for every finite x.
    """
    x = _require_finite("x", x)
    d = rho_prime(x)
    upper = np.log1p(x + x * x)
    lower = -np.log1p(-x + x * x)
    return (lower <= d) & (d <= upper)


def rho_conjugate(x: float) -> float:
    """Legendre-Fenchel conjugate sup_u [x*u - rho(u)].

    Closed form x^2/sqrt(1-x^2) + 1 - 1/sqrt(1-x^2) on |x| < 1, and +inf
    otherwise (the linear growth of rho caps the slopes it can support).
    Conditioning degrades as |x| -> 1; intended for |x| <= 0.99.
    """
    x = _require_finite("x", x)
    if abs(x) >= 1.0:
        return math.inf
    root = math.sqrt(1.0 - x * x)
    return x * x / root + 1.0 - 1.0 / root


def pseudo_huber(x: float, b: float) -> float:
    """Rescaled map b^2 * rho(x/b) = b*sqrt(x^2 + b^2) - b^2.

    Smooth Huber with scale b: approximately x^2/2 for |x| << b (and
    pointwise -> x^2/2 as b -> inf), approximately b*|x| in the tails.
    """
    x = _require_finite("x", x)
    b = _require_finite("b", b)
    if b <= 0.0:
        raise ValueError(f"b must be positive, got {b!r}")
    if abs(x) < b:
        # stable against the cancellation in b*sqrt(x^2+b^2) - b^2
        return b * x * x / (math.hypot(x, b) + b)
    return b * (math.hypot(x, b) - b)
