"""Relativistic kinematics: Wigner angle, rotation matrices, boost operator.

For particles moving along +z and -z and an observer boost along x, the
boost acts on each spin as a rotation about y. The rotation angle has equal
magnitude and opposite sense for the two momentum directions, which makes
the full transformation a momentum-controlled spin rotation on the
composite space.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import kron_all


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


def jy_matrix() -> np.ndarray:
    """Spin-1 angular-momentum y generator, basis ordered by descending m.

    Built from the ladder operator J+, independently of wigner_d, so the
    checks can compare the closed form against exp(-i beta Jy).
    """
    jplus = np.zeros((3, 3), dtype=complex)
    for k, m in ((1, 0.0), (2, -1.0)):
        # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1)) with j(j+1) = 2
        jplus[k - 1, k] = math.sqrt(2.0 - m * (m + 1))
    return (jplus - jplus.conj().T) / 2j


def wigner_d(beta: float) -> np.ndarray:
    """Closed-form spin-1 small-d rotation matrix, equal to exp(-i beta Jy) entrywise.

    The basis is (|1>, |0>, |-1>).
    """
    c, s = math.cos(beta), math.sin(beta)
    r = math.sqrt(2.0)
    return np.array(
        [
            [(1 + c) / 2, -s / r, (1 - c) / 2],
            [s / r, c, -s / r],
            [(1 - c) / 2, s / r, (1 + c) / 2],
        ],
        dtype=complex,
    )


_P_PLUS = np.diag([1.0, 0.0]).astype(complex)
_P_MINUS = np.diag([0.0, 1.0]).astype(complex)
_SECTORS = ((_P_PLUS, 1.0), (_P_MINUS, -1.0))


def boost_operator(omega: float) -> np.ndarray:
    """Composite boost on the canonical [pA, pB, sA, sB] space.

    Momentum p+ controls a spin rotation by +omega about y and p- the
    opposite rotation, independently for each particle:

        U = sum over a, b of (P_a x P_b) x (d1(sign_a omega) x d1(sign_b omega))

    The 36x36 result is unitary and block diagonal over momentum sectors.
    """
    u = np.zeros((36, 36), dtype=complex)
    for proj_a, sign_a in _SECTORS:
        for proj_b, sign_b in _SECTORS:
            da = wigner_d(sign_a * omega)
            db = wigner_d(sign_b * omega)
            u += kron_all(proj_a, proj_b, da, db)
    return u


def single_particle_boost(omega: float) -> np.ndarray:
    """Controlled rotation on one particle's (momentum, spin) pair, 6x6.

    The composite boost factors as the product of one copy per particle
    after reordering factors to [pA, sA, pB, sB].
    """
    return kron_all(_P_PLUS, wigner_d(omega)) + kron_all(_P_MINUS, wigner_d(-omega))
