"""Parametrized state families and named special states.

Momentum states live on the two-particle momentum pair (dim 4, order
[pA, pB]), spin states on the two-particle spin pair (dim 9, order
[sA, sB]). Assembly produces the canonical [pA, pB, sA, sB] product state.

Basis conventions: momentum |p+> is index 0 and |p-> index 1 within each
particle; spin indices run |1> = 0, |0> = 1, |-1> = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import NORM_TOL, PureState


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


def spin_states(
    family: SpinFamily, thetas: np.ndarray, phis: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Three-term spin superpositions of one family, a real (9, cells) array of columns.

    Family S1 puts (sin t cos p, sin t sin p, cos t) on |1 1>, |0 0>, |-1 -1>;
    family S2 uses |1 -1>, |-1 1>, |0 0> instead. Column k takes its angles
    from thetas[k] and phis[k]. The columns are written into `out`, a
    (9, cells) float array, when it is given, and into a new array if not.
    """
    i0, i1, i2 = FAMILY_INDICES[family]
    thetas = np.asarray(thetas, dtype=float)
    cols = np.empty((9, thetas.size)) if out is None else out
    cols.fill(0.0)
    np.cos(phis, out=cols[i0])
    np.sin(phis, out=cols[i1])
    # sin(theta) waits in the cos(theta) row until both products are taken
    np.sin(thetas, out=cols[i2])
    cols[i0] *= cols[i2]
    cols[i1] *= cols[i2]
    np.cos(thetas, out=cols[i2])
    return cols


def spin_state(params: SpinParams) -> np.ndarray:
    """Spin vector of one family member, 9-dim: spin_states as a batch of one."""
    return spin_states(params.family, [params.theta], [params.phi])[:, 0]


def assemble(spin: np.ndarray, momentum: np.ndarray) -> PureState:
    """Product state |momentum> x |spin> in the canonical factor order."""
    spin = np.asarray(spin, dtype=complex)
    momentum = np.asarray(momentum, dtype=complex)
    if abs(np.linalg.norm(spin) - 1.0) > NORM_TOL:
        raise ValueError("spin vector is not normalized")
    if abs(np.linalg.norm(momentum) - 1.0) > NORM_TOL:
        raise ValueError("momentum vector is not normalized")
    return PureState(np.kron(momentum, spin))


def invariant_spin_state() -> np.ndarray:
    """(|1 1> - |0 0> + |-1 -1>) / sqrt(3).

    This sign pattern satisfies d1(w) M d1(w) = M with M = diag(1, -1, 1),
    which makes the state invariant under the paired rotation
    d1(w) x d1(-w) for every angle w. The other sign choices on the middle
    and last term do not share the property.
    """
    vec = np.zeros(9, dtype=complex)
    vec[[0, 4, 8]] = 1.0, -1.0, 1.0
    return vec / math.sqrt(3.0)


@dataclass(frozen=True)
class NamedState:
    """A catalog entry: a spin state with its family parameters."""

    name: str
    family: SpinFamily
    theta: float
    phi: float
    description: str

    @property
    def params(self) -> SpinParams:
        return SpinParams(self.family, self.theta, self.phi)


_THETA_INV = math.atan(math.sqrt(2.0))

NAMED_STATES: dict[str, NamedState] = {
    state.name: state
    for state in (
        NamedState("s00", SpinFamily.S1, math.pi / 2, math.pi / 2, "|0 0>"),
        NamedState("phi-plus", SpinFamily.S1, math.pi / 4, 0.0, "(|1 1> + |-1 -1>)/sqrt2"),
        NamedState("phi-minus", SpinFamily.S1, 3 * math.pi / 4, 0.0, "(|1 1> - |-1 -1>)/sqrt2"),
        NamedState("bell-plus", SpinFamily.S2, math.pi / 2, math.pi / 4, "(|1 -1> + |-1 1>)/sqrt2"),
        NamedState("bell-minus", SpinFamily.S2, math.pi / 2, 7 * math.pi / 4, "(|1 -1> - |-1 1>)/sqrt2"),
        NamedState("singlet", SpinFamily.S2, math.pi - _THETA_INV, math.pi / 4,
                   "(|1 -1> + |-1 1> - |0 0>)/sqrt3"),
        NamedState("inv3", SpinFamily.S1, _THETA_INV, 7 * math.pi / 4,
                   "(|1 1> - |0 0> + |-1 -1>)/sqrt3, boost invariant"),
    )
}


def get_named_state(name: str) -> NamedState:
    try:
        return NAMED_STATES[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_STATES))
        raise ValueError(f"unknown state name {name!r}; known names: {known}") from None
