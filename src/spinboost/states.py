"""Parametrized state families and named special states.

Momentum states live on the two-particle momentum pair (dim 4, order
[pA, pB]), spin states on the two-particle spin pair (dim 9, order
[sA, sB]). Their Kronecker product, momentum first, is a state in the
canonical [pA, pB, sA, sB] order.

Basis conventions: momentum |p+> is index 0 and |p-> index 1 within each
particle; spin indices run |1> = 0, |0> = 1, |-1> = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class SpinFamily(Enum):
    S1 = "s1"
    S2 = "s2"


@dataclass(frozen=True)
class SpinParams:
    family: SpinFamily
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"theta and phi must be finite, got {self.theta} and {self.phi}")


# basis positions of the three amplitudes of each family within the 9-dim spin space
FAMILY_INDICES = {
    SpinFamily.S1: (0, 4, 8),  # |1 1>, |0 0>, |-1 -1>
    SpinFamily.S2: (2, 6, 4),  # |1 -1>, |-1 1>, |0 0>
}

# momentum basis positions 2*pA + pB of the two branches |p+ p-> and |p- p+>;
# branch b holds pA = b and pB = 1 - b
MOMENTUM_BRANCHES = (1, 2)


def momentum_state(alpha: float) -> np.ndarray:
    """cos(alpha) |p+ p-> + sin(alpha) |p- p+> as a 4-dim vector."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    vec = np.zeros(4, dtype=complex)
    vec[list(MOMENTUM_BRANCHES)] = math.cos(alpha), math.sin(alpha)
    return vec


def spin_states(family: SpinFamily, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Three-term spin superpositions of one family, a real (9, cells) array of columns.

    Family S1 puts (sin t cos p, sin t sin p, cos t) on |1 1>, |0 0>, |-1 -1>;
    family S2 uses |1 -1>, |-1 1>, |0 0> instead. Column k takes its angles
    from thetas[k] and phis[k].
    """
    i0, i1, i2 = FAMILY_INDICES[family]
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    cols = np.zeros((9, thetas.size))
    sin_thetas = np.sin(thetas)
    cols[i0] = sin_thetas * np.cos(phis)
    cols[i1] = sin_thetas * np.sin(phis)
    cols[i2] = np.cos(thetas)
    return cols


def spin_state(params: SpinParams) -> np.ndarray:
    """Spin vector of one family member, 9-dim: spin_states as a batch of one."""
    return spin_states(params.family, [params.theta], [params.phi])[:, 0]


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
