"""Wigner angle of the boost from the rapidities, and the spin-1 rotation it applies.

This module needs only the standard library, so `spinboost.cli` can import
it at load time and `spinboost wigner-angle` never loads numpy.
"""

from __future__ import annotations

import math


def wigner_angle(xi: float, eta: float) -> float:
    """Rotation angle from the particle rapidity xi and the boost rapidity eta.

    The angle is arctan(sinh(xi) sinh(eta) / (cosh(xi) + cosh(eta))). The
    ratio grows without bound with the rapidities, so the angle fills
    [0, pi/2) and reaches pi/2 only in the infinite-rapidity limit, or where
    the ratio is beyond double precision. Symmetric in its arguments and
    monotone nondecreasing in each.
    """
    if not (math.isfinite(xi) and math.isfinite(eta)):
        raise ValueError("rapidities must be finite")
    if xi < 0 or eta < 0:
        raise ValueError("rapidities must be nonnegative")
    if xi == 0.0 or eta == 0.0:
        return 0.0
    try:
        ratio = math.sinh(xi) * math.sinh(eta) / (math.cosh(xi) + math.cosh(eta))
    except OverflowError:
        ratio = math.inf
    if math.isfinite(ratio):
        return math.atan(ratio)
    # past rapidity ~710 the hyperbolic functions overflow; the same ratio
    # in bounded functions is tanh(xi) tanh(eta) / (sech(xi) + sech(eta))
    return math.atan2(math.tanh(xi) * math.tanh(eta), _sech(xi) + _sech(eta))


def _sech(x: float) -> float:
    """1/cosh(x) for x >= 0, underflowing to 0 instead of overflowing."""
    e = math.exp(-x)
    return 2.0 * e / (1.0 + e * e)


def d1(beta: float) -> tuple[tuple[float, float, float], ...]:
    """Closed-form spin-1 small-d rotation matrix, equal to exp(-i beta Jy) entrywise.

    The rows and columns run over the basis (|1>, |0>, |-1>).
    """
    c, s = math.cos(beta), math.sin(beta)
    r = math.sqrt(2.0)
    return (
        ((1 + c) / 2, -s / r, (1 - c) / 2),
        (s / r, c, -s / r),
        ((1 - c) / 2, s / r, (1 + c) / 2),
    )
