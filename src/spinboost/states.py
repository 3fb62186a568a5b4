"""Subsystem labels, parametrized state families and named special states.

Momentum states live on the two-particle momentum pair (dim 4, order
[pA, pB]), spin states on the two-particle spin pair (dim 9, order
[sA, sB]). Their Kronecker product, momentum first, is a state in the
canonical [pA, pB, sA, sB] order. Both are plain lists of floats: this
module needs only the standard library.

Basis conventions: momentum |p+> is index 0 and |p-> index 1 within each
particle; spin indices run |1> = 0, |0> = 1, |-1> = 2.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum


class SubsystemLabel(Enum):
    """The four physical subsystems: momenta and spins of particles A and B. The members'
    order is the canonical factor order of a state's amplitudes, (pA, pB, sA, sB)."""

    PA = "pA"
    PB = "pB"
    SA = "sA"
    SB = "sB"

    @property
    def dim(self) -> int:
        return _LABEL_DIMS[self]


_LABEL_DIMS = {
    SubsystemLabel.PA: 2,
    SubsystemLabel.PB: 2,
    SubsystemLabel.SA: 3,
    SubsystemLabel.SB: 3,
}


class SpinFamily(Enum):
    S1 = "s1"
    S2 = "s2"


class SpinParams(namedtuple("SpinParams", "family theta phi")):
    __slots__ = ()

    def __new__(cls, family: SpinFamily, theta: float, phi: float) -> SpinParams:
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"theta and phi must be finite, got {theta} and {phi}")
        return super().__new__(cls, family, theta, phi)


# basis positions of the three amplitudes of each family within the 9-dim spin space
FAMILY_INDICES = {
    SpinFamily.S1: (0, 4, 8),  # |1 1>, |0 0>, |-1 -1>
    SpinFamily.S2: (2, 6, 4),  # |1 -1>, |-1 1>, |0 0>
}

def momentum_state(alpha: float) -> list[float]:
    """cos(alpha) |p+ p-> + sin(alpha) |p- p+> as a 4-dim vector, indexed 2*pA + pB."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return [0.0, math.cos(alpha), math.sin(alpha), 0.0]


def _theta_factors(theta: float) -> tuple[float, float, float]:
    """Theta factors (sin t, sin t, cos t) of the three family amplitudes."""
    sin_theta = math.sin(theta)
    return sin_theta, sin_theta, math.cos(theta)


def _phi_factors(phi: float) -> tuple[float, float, float]:
    """Phi factors (cos p, sin p, 1) of the three family amplitudes.

    Amplitude i of the member at (theta, phi) is _theta_factors(theta)[i] *
    _phi_factors(phi)[i], which gives (sin t cos p, sin t sin p, cos t).
    """
    return math.cos(phi), math.sin(phi), 1.0


def spin_state(params: SpinParams) -> list[float]:
    """Spin vector of one family member, 9 real amplitudes.

    Family S1 puts its three amplitudes on |1 1>, |0 0>, |-1 -1>; family S2
    uses |1 -1>, |-1 1>, |0 0> instead.
    """
    vec = [0.0] * 9
    amplitudes = zip(_theta_factors(params.theta), _phi_factors(params.phi))
    for index, (theta_factor, phi_factor) in zip(FAMILY_INDICES[params.family], amplitudes):
        vec[index] = theta_factor * phi_factor
    return vec


_THETA_INV = math.atan(math.sqrt(2.0))

NAMED_STATES: dict[str, SpinParams] = {
    # |0 0>
    "s00": SpinParams(SpinFamily.S1, math.pi / 2, math.pi / 2),
    # (|1 1> + |-1 -1>)/sqrt2
    "phi-plus": SpinParams(SpinFamily.S1, math.pi / 4, 0.0),
    # (|1 1> - |-1 -1>)/sqrt2
    "phi-minus": SpinParams(SpinFamily.S1, 3 * math.pi / 4, 0.0),
    # (|1 -1> + |-1 1>)/sqrt2
    "bell-plus": SpinParams(SpinFamily.S2, math.pi / 2, math.pi / 4),
    # (|1 -1> - |-1 1>)/sqrt2
    "bell-minus": SpinParams(SpinFamily.S2, math.pi / 2, 7 * math.pi / 4),
    # (|1 -1> + |-1 1> - |0 0>)/sqrt3
    "singlet": SpinParams(SpinFamily.S2, math.pi - _THETA_INV, math.pi / 4),
    # (|1 1> - |0 0> + |-1 -1>)/sqrt3, boost invariant: with M = diag(1, -1, 1),
    # d1(w) M d1(w) = M, so the state is fixed by the paired rotation
    # d1(w) x d1(-w) for every angle w; the other sign choices on the middle
    # and last term do not share the property
    "inv3": SpinParams(SpinFamily.S1, _THETA_INV, 7 * math.pi / 4),
}


def get_named_state(name: str) -> SpinParams:
    try:
        return NAMED_STATES[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_STATES))
        raise ValueError(f"unknown state name {name!r}; known names: {known}") from None
