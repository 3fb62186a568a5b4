"""Spin-1 rotation matrices and the composite boost operator.

For particles moving along +z and -z and an observer boost along x, the
boost acts on each spin as a rotation about y. The rotation angle has equal
magnitude and opposite sense for the two momentum directions, which makes
the full transformation a momentum-controlled spin rotation on the
composite space.
"""

from __future__ import annotations

import math

import numpy as np

from .kinematics import d1
from .tensor import kron_all


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
    """The closed-form spin-1 rotation `kinematics.d1` as a complex 3x3 array."""
    return np.array(d1(beta), dtype=complex)


_P_PLUS = np.diag([1.0, 0.0]).astype(complex)
_P_MINUS = np.diag([0.0, 1.0]).astype(complex)


def boost_operator(omega: float) -> np.ndarray:
    """Composite boost on the canonical [pA, pB, sA, sB] space.

    Momentum p+ controls a spin rotation by +omega about y and p- the
    opposite rotation, independently for each particle:

        U = sum over a, b of (P_a x P_b) x (d1(sign_a omega) x d1(sign_b omega))

    The 36x36 result is unitary and block diagonal over momentum sectors.
    Each term is one momentum sector's 9x9 diagonal block, built here as
    the outer product of its two rotations.
    """
    rotations = (wigner_d(omega), wigner_d(-omega))  # under momentum p+ and p-
    u = np.zeros((4, 9, 4, 9), dtype=complex)
    for a, da in enumerate(rotations):
        for b, db in enumerate(rotations):
            # sector (a, b) is momentum index 2a + b; adding into the zeros
            # turns a -0.0 product into 0.0, as the sum does
            block = (da[:, None, :, None] * db[None, :, None, :]).reshape(9, 9)
            u[2 * a + b, :, 2 * a + b] += block
    return u.reshape(36, 36)


def single_particle_boost(omega: float) -> np.ndarray:
    """Controlled rotation on one particle's (momentum, spin) pair, 6x6.

    The composite boost factors as the product of one copy per particle
    after reordering factors to [pA, sA, pB, sB].
    """
    return kron_all(_P_PLUS, wigner_d(omega)) + kron_all(_P_MINUS, wigner_d(-omega))
