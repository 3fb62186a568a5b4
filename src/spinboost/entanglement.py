"""Partition catalog, linear-entropy measure, and boost-induced change.

The entanglement measure is the unnormalized linear entropy summed over
the parts of a partition,

    E = sum over parts i of (1 - Tr(rho_i^2)).

For a bipartition both sides of a pure-state cut contribute equal purity,
so the sum double counts relative to single-sided conventions. This
rescales surfaces without moving their extrema and is kept because the
measure is defined as the literal sum over listed parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lorentz import boost_operator
from .states import (
    FAMILY_INDICES,
    MOMENTUM_BRANCHES,
    SpinFamily,
    SpinParams,
    amplitude_factors,
    momentum_state,
)
from .tensor import SubsystemLabel

_PA, _PB, _SA, _SB = (
    SubsystemLabel.PA,
    SubsystemLabel.PB,
    SubsystemLabel.SA,
    SubsystemLabel.SB,
)


@dataclass(frozen=True)
class Partition:
    """Named list of disjoint subsystem-label subsets."""

    name: str
    parts: tuple[frozenset[SubsystemLabel], ...]

    def __post_init__(self) -> None:
        seen: set[SubsystemLabel] = set()
        for part in self.parts:
            if not part:
                raise ValueError("partition parts must be nonempty")
            if seen & part:
                raise ValueError("partition parts must be pairwise disjoint")
            seen |= part

    def max_entropy(self) -> float:
        """Upper bound sum over parts of (1 - 1/dim)."""
        total = 0.0
        for part in self.parts:
            dim = 1
            for label in part:
                dim *= label.dim
            total += 1.0 - 1.0 / dim
        return total


PARTITIONS: dict[str, Partition] = {
    "AvsB": Partition("AvsB", (frozenset({_PA, _SA}), frozenset({_PB, _SB}))),
    "mixed": Partition("mixed", (frozenset({_PA, _SB}), frozenset({_SA, _PB}))),
    "SvsP": Partition("SvsP", (frozenset({_SA, _SB}), frozenset({_PA, _PB}))),
    "1vs3": Partition(
        "1vs3",
        (frozenset({_PA}), frozenset({_PB}), frozenset({_SA}), frozenset({_SB})),
    ),
}

# short aliases accepted on the command line
PARTITION_ALIASES = {"avb": "AvsB", "mixed": "mixed", "svp": "SvsP", "1v3": "1vs3"}


def parse_partition(text: str) -> Partition:
    name = PARTITION_ALIASES.get(text, text)
    try:
        return PARTITIONS[name]
    except KeyError:
        known = ", ".join(list(PARTITION_ALIASES) + list(PARTITIONS))
        raise ValueError(f"unknown partition {text!r}; known: {known}") from None


# axes of the spins in the (branch, sA, sB, amplitude) branch columns
_SPIN_AXES = {_SA: 1, _SB: 2}

# exponents (a, b, c) of the quartic monomials x0^a x1^b x2^c in the amplitudes
_QUARTICS = tuple((a, b, 4 - a - b) for a in range(5) for b in range(5 - a))
# the monomial x_i x_j x_m x_n as a position in _QUARTICS, flat over (i, j, m, n)
_MONOMIALS = np.array([
    _QUARTICS.index(tuple(np.bincount(ijmn, minlength=3)))
    for ijmn in np.ndindex(3, 3, 3, 3)
])


def _gram_forms(branches: np.ndarray, part: frozenset[SubsystemLabel]) -> np.ndarray:
    """The part's Gram entries as quadratic forms in x, (batch, kept, kept, 3, 3).

    `branches` holds the two branch columns as (branch, sA, sB, amplitude),
    so entry (k, l) is sum_ij x_i x_j Q[..., k, l, i, j]. A part that holds
    both momenta keeps the branch coherence, so the branch joins its kept
    side. A part that holds neither traces the branch out with the other
    spins. A part that holds exactly one momentum sees the branches as a
    direct sum, so the branch is a batch axis; with no spins its kept side
    is empty, and the 1x1 Gram matrix is each branch's squared norm.
    """
    spins = sorted(_SPIN_AXES[label] for label in part if label in _SPIN_AXES)
    momenta = len(part) - len(spins)
    kept = 3 ** len(spins)
    # the kept spins first, then the branch, the other spins and the amplitude
    m = np.moveaxis(branches, spins, range(len(spins))).reshape(kept, 2, 9 // kept, 3)
    if momenta == 1:
        m = m.transpose(1, 0, 2, 3)
    else:
        m = m.reshape((1, 2 * kept, -1, 3) if momenta == 2 else (1, kept, -1, 3))
    return np.einsum("bkri,blrj->bklij", m, m)


def _purity_quartics(
    family: SpinFamily, alpha: float, omegas: tuple[float, ...], partition: Partition
) -> np.ndarray:
    """Coefficients over _QUARTICS of the partition's total purity after each boost, (boosts, 15).

    The momentum state populates only |p+ p-> and |p- p+>, and the boost
    keeps each sector, so a family member is the two branches
    c_b sum_i x_i D_b[:, f_i], with D_b the branch's 9x9 diagonal block and
    f_i the amplitudes' positions. Each Gram entry of a part is therefore a
    quadratic form in x, read off the branch columns, and the sum of their
    squares is the part's purity: its 81 products of form coefficients fold
    onto the 15 quartic monomials. Each boost is its own pass.
    """
    mom = momentum_state(alpha)
    if np.delete(mom, MOMENTUM_BRANCHES).any():
        raise ValueError("momentum state populates |p+ p+> or |p- p->, outside the two branches")
    weights = mom[list(MOMENTUM_BRANCHES)].real
    quartics = np.zeros((len(omegas), len(_QUARTICS)))
    for quartic, omega in zip(quartics, omegas):
        u = boost_operator(omega).real.reshape(4, 9, 4, 9)
        branches = np.stack([
            c * u[s, :, s][:, FAMILY_INDICES[family]] for c, s in zip(weights, MOMENTUM_BRANCHES)
        ]).reshape(2, 3, 3, 3)
        for part in partition.parts:
            forms = _gram_forms(branches, part)
            products = np.einsum("bklij,bklmn->ijmn", forms, forms)
            quartic += np.bincount(_MONOMIALS, products.ravel(), len(_QUARTICS))
    return quartics


def _monomial_factors(factors: np.ndarray) -> np.ndarray:
    """One axis's factor of each quartic monomial, (15, points), from its amplitude factors."""
    powers = [np.ones_like(factors)]
    for _ in range(4):
        powers.append(powers[-1] * factors)
    return np.stack([powers[a][0] * powers[b][1] * powers[c][2] for a, b, c in _QUARTICS])


def family_entropies(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    thetas: np.ndarray,
    phis: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy before and after the boost over a (theta, phi) grid, theta outer.

    The partition's total purity is a quartic form in the amplitudes x, and
    each monomial splits into a theta factor times a phi factor, so a
    surface is the number of parts minus a sum of 15 outer products. Each
    is an elementwise multiply-add over the grid, so a 1x1 grid gives the
    same bits as that cell inside a grid of any size. Before is the boost
    by zero, so at omega = 0 both surfaces are the same bits.
    """
    theta_factors, phi_factors = amplitude_factors(thetas, phis)
    theta_monomials = _monomial_factors(theta_factors)
    phi_monomials = _monomial_factors(phi_factors)

    def entropy(quartic: np.ndarray) -> np.ndarray:
        purity = np.zeros((theta_monomials.shape[1], phi_monomials.shape[1]))
        for coefficient, theta_part, phi_part in zip(quartic, theta_monomials, phi_monomials):
            purity += (coefficient * theta_part)[:, None] * phi_part
        return len(partition.parts) - purity

    before, after = _purity_quartics(family, alpha, (0.0, omega), partition)
    return entropy(before), entropy(after)


@dataclass(frozen=True)
class DeltaEResult:
    """Entanglement before and after a boost, and their difference."""

    e_before: float
    e_after: float
    delta: float


def delta_e(spin: SpinParams, alpha: float, omega: float, partition: Partition) -> DeltaEResult:
    """Linear-entropy change produced by the boost of angle omega.

    `spin` holds the family parameters; `alpha` is the momentum parameter.
    The point is a 1x1 grid of family_entropies.
    """
    before, after = family_entropies(
        spin.family, alpha, omega, partition, [spin.theta], [spin.phi]
    )
    e_before, e_after = float(before[0, 0]), float(after[0, 0])
    return DeltaEResult(e_before=e_before, e_after=e_after, delta=e_after - e_before)
