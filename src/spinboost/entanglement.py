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
from .tensor import (
    FactorOrder,
    SubsystemLabel,
    batch_gram,
)

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


# on the two populated branches pA labels the branch and fixes pB
_BRANCH_ORDER = FactorOrder((_PA, _SA, _SB))
_SPIN_ORDER = FactorOrder((_SA, _SB))
_SPINS = frozenset({_SA, _SB})

# exponents (a, b, c) of the quartic monomials x0^a x1^b x2^c in the amplitudes
_QUARTICS = tuple((a, b, 4 - a - b) for a in range(5) for b in range(5 - a))
# the quadratic monomials x_i x_j with i <= j, squares first; a quadratic form
# takes its x_i^2 coefficient at e_i and adds its x_i x_j one at e_i + e_j
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_LEFT, _RIGHT = [i for i, _ in _PAIRS[3:]], [j for _, j in _PAIRS[3:]]
# the quartic monomial that the product of quadratic monomials m and n gives
_PRODUCT = np.array([
    [_QUARTICS.index(tuple(np.bincount(m + n, minlength=3))) for n in _PAIRS]
    for m in _PAIRS
])


def _gram_entries(cols: np.ndarray, partition: Partition) -> np.ndarray:
    """Gram entries whose squares sum to the partition's total purity, as (entries, 6) columns.

    `cols` holds the (2, 9, 6) two-branch columns at the six points of
    _PAIRS. A part that holds both momenta keeps the branch coherence, so
    it is pA and its spins over the (18, 6) columns. A part that holds
    neither traces the branch out: its spins over the same columns. A part
    that holds exactly one momentum sees the branches as a direct sum, so
    its purity is the sum of per-branch purities of its spins; with no
    spins that is each branch's squared norm, squared.
    """
    coherent = cols.reshape(18, cols.shape[2])
    entries = []
    for part in partition.parts:
        spins = part & _SPINS
        momenta = len(part - _SPINS)
        if momenta == 1:
            entries += [batch_gram(branch, spins or _SPINS, _SPIN_ORDER) for branch in cols]
        else:
            keep = spins | {_PA} if momenta == 2 else spins
            entries.append(batch_gram(coherent, keep, _BRANCH_ORDER))
    return np.concatenate(entries)


def _purity_quartics(
    family: SpinFamily, alpha: float, omegas: tuple[float, ...], partition: Partition
) -> np.ndarray:
    """Coefficients over _QUARTICS of the partition's total purity after each boost, (boosts, 15).

    The momentum state populates only |p+ p-> and |p- p+>, and the boost
    keeps each sector, so a family member is the two branches
    c_b sum_i x_i D_b[:, f_i], with D_b the branch's 9x9 diagonal block and
    f_i the amplitudes' positions. Each Gram entry of a part is therefore a
    quadratic form in x: batch_gram evaluates it at e_i and e_i + e_j, and
    differences of those values give its six coefficients, with no fit.
    The squares of the forms expand into the 15 quartic coefficients.
    batch_gram treats each point alone, so one pass over every boost's six
    points gives each boost the bits of a pass of its own.
    """
    mom = momentum_state(alpha)
    if np.delete(mom, MOMENTUM_BRANCHES).any():
        raise ValueError("momentum state populates |p+ p+> or |p- p->, outside the two branches")
    weights = mom[list(MOMENTUM_BRANCHES)].real
    points = []
    for omega in omegas:
        u = boost_operator(omega).real.reshape(4, 9, 4, 9)
        cols = np.stack([
            c * u[s, :, s][:, FAMILY_INDICES[family]] for c, s in zip(weights, MOMENTUM_BRANCHES)
        ])
        points += [cols, cols[..., _LEFT] + cols[..., _RIGHT]]
    entries = _gram_entries(np.concatenate(points, axis=2), partition)
    quartics = np.zeros((len(omegas), len(_QUARTICS)))
    for quartic, at in zip(quartics, np.split(entries, len(omegas), axis=1)):
        forms = np.concatenate([at[:, :3], at[:, 3:] - at[:, _LEFT] - at[:, _RIGHT]], axis=1)
        np.add.at(quartic, _PRODUCT, (forms[:, :, None] * forms[:, None, :]).sum(axis=0))
    return quartics


def _monomial_factors(factors: np.ndarray) -> np.ndarray:
    """One axis's factor of each quartic monomial, (15, points), from its amplitude factors."""
    out = np.ones((len(_QUARTICS), factors.shape[1]))
    for row, powers in zip(out, _QUARTICS):
        for factor, power in zip(factors, powers):
            for _ in range(power):
                row *= factor
    return out


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
