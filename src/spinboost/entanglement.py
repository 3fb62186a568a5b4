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

import itertools
from collections import namedtuple
from operator import mul

from .kinematics import d1
from .states import (
    FAMILY_INDICES,
    SpinFamily,
    SpinParams,
    SubsystemLabel,
    _phi_factors,
    _theta_factors,
    momentum_state,
)

_PA, _PB, _SA, _SB = (
    SubsystemLabel.PA,
    SubsystemLabel.PB,
    SubsystemLabel.SA,
    SubsystemLabel.SB,
)


class Partition(namedtuple("Partition", "name parts")):
    """Named list of disjoint subsystem-label subsets."""

    __slots__ = ()

    def __new__(cls, name: str, parts: tuple[frozenset[SubsystemLabel], ...]) -> Partition:
        seen: set[SubsystemLabel] = set()
        for part in parts:
            if not part:
                raise ValueError("partition parts must be nonempty")
            if seen & part:
                raise ValueError("partition parts must be pairwise disjoint")
            seen |= part
        return super().__new__(cls, name, parts)

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


# canonical axis of each subsystem in a (pA, pB, sA, sB) row index
_AXES = {label: axis for axis, label in enumerate(SubsystemLabel)}

# exponents (a, b, c) of the quartic monomials x0^a x1^b x2^c in the amplitudes
_QUARTICS = tuple((a, b, 4 - a - b) for a in range(5) for b in range(5 - a))
# the monomial x_i x_j x_m x_n as a position in _QUARTICS, flat over (i, j, m, n)
_MONOMIALS = tuple(
    _QUARTICS.index(tuple(ijmn.count(k) for k in range(3)))
    for ijmn in itertools.product(range(3), repeat=4)
)


def _dot(u, v) -> float:
    """The sum of the products of u and v, added front to back: from Python 3.12 on, sum()
    compensates its rounding, which would change the last bits of every surface."""
    total = 0.0
    for product in map(mul, u, v):
        total += product
    return total


def _gram_forms(
    rows: dict[tuple[int, int, int, int], list[float]], part: frozenset[SubsystemLabel]
) -> list[list[float]]:
    """The part's Gram entries as quadratic forms in x, each 9 coefficients flat over (i, j).

    `rows` maps each canonical index (pA, pB, sA, sB) of the state to its
    coefficients of the three amplitudes. With k and l indices of the
    part's kept axes and r of the traced ones, entry (k, l) is
    sum_ij x_i x_j q[3 i + j], with q[3 i + j] the sum over r of
    row (k, r)[i] * row (l, r)[j]: the partial trace.
    """
    # the dict, unlike the frozenset, has one iteration order whatever the hash seed
    axes = [axis for label, axis in _AXES.items() if label in part]
    kept: dict[tuple[int, ...], list[list[float]]] = {}
    # every kept index lists its traced rows in the order of `rows`
    for index, coefficients in rows.items():
        kept.setdefault(tuple(index[axis] for axis in axes), []).append(coefficients)
    # each kept index's traced rows as three amplitude columns
    sides = [list(zip(*traced)) for traced in kept.values()]
    return [
        [_dot(u, v) for u in left for v in right] for left in sides for right in sides
    ]


def _purity_quartics(
    family: SpinFamily, alpha: float, omegas: tuple[float, ...], partition: Partition
) -> list[list[float]]:
    """Coefficients over _QUARTICS of the partition's total purity after each boost, (boosts, 15).

    The boost keeps each momentum sector and rotates spin A by d1 of +omega
    or -omega as momentum A is p+ or p-, spin B likewise. So the boosted
    family member's amplitude at (pA, pB, sA, sB) is
    mom[2 pA + pB] sum_i x_i d_A[sA][f_i // 3] d_B[sB][f_i % 3], with f_i
    the amplitudes' positions: a row of three coefficients of x. Each Gram
    entry of a part is therefore a quadratic form in x, and the sum of
    their squares is the part's purity: its 81 products of form
    coefficients fold onto the 15 quartic monomials. Each boost is its own
    pass, in plain floats.
    """
    mom = momentum_state(alpha)
    quartics = []
    for omega in omegas:
        rotations = (d1(omega), d1(-omega))  # under momentum p+ and p-
        rows = {}
        # pB runs p- first: each part meets |p+ p-> before |p- p+>, the order its bits were fixed in
        for p_a, p_b, s_a, s_b in itertools.product((0, 1), (1, 0), range(3), range(3)):
            d_a, d_b = rotations[p_a], rotations[p_b]
            rows[p_a, p_b, s_a, s_b] = [
                mom[2 * p_a + p_b] * (d_a[s_a][f // 3] * d_b[s_b][f % 3])
                for f in FAMILY_INDICES[family]
            ]
        quartic = [0.0] * len(_QUARTICS)
        for part in partition.parts:
            columns = list(zip(*_gram_forms(rows, part)))
            products = (_dot(u, v) for u in columns for v in columns)
            for monomial, product in zip(_MONOMIALS, products):
                quartic[monomial] += product
        quartics.append(quartic)
    return quartics


def _monomial_factors(factors):
    """One axis's factor of each quartic monomial, in _QUARTICS order, from its amplitude factors.

    `factors` holds the three amplitudes' factors along the axis: floats for
    a point, or equal-shape arrays for the points of a grid axis. Either way
    each factor's powers 0-4 come by repeated multiplication and each
    monomial is the product of its three powers, so a point and a grid
    get the same bits.
    """
    powers = [(1.0, 1.0, 1.0)]
    for _ in range(4):
        powers.append(tuple(power * factor for power, factor in zip(powers[-1], factors)))
    return [powers[a][0] * powers[b][1] * powers[c][2] for a, b, c in _QUARTICS]


def _entropies(partition, quartics, theta_factors, phi_factors):
    """Entropy before and after a boost, from the partition's two purity quartics (of
    `_purity_quartics` for the boosts by zero and by omega) and each axis's amplitude factors.

    The partition's total purity is a quartic form in the amplitudes x, and each monomial
    splits into a theta factor times a phi factor, so an entropy is the number of parts minus
    a multiply-add for each nonzero coefficient, front to back in _QUARTICS order from 0.0;
    a zero coefficient's term (nine of 15 before a boost) could flip only the sign of a zero sum,
    which `parts - sum` erases. The factors are floats for a point, or arrays for a grid,
    theta's shaped (n, 1) and phi's (m,), which broadcast each term to the (n, m) surface;
    either way a cell gets the bits of its point, and `sweep._float_rows` runs the same sums
    on floats. Before is the boost by zero, so at omega = 0 both entropies are the same bits.
    """
    theta_monomials = _monomial_factors(theta_factors)
    phi_monomials = _monomial_factors(phi_factors)

    def entropy(quartic: list[float]):
        purity = 0.0
        for coefficient, theta_part, phi_part in zip(quartic, theta_monomials, phi_monomials):
            if coefficient:
                purity += coefficient * theta_part * phi_part
        return len(partition.parts) - purity

    before, after = quartics
    return entropy(before), entropy(after)


class DeltaEResult(namedtuple("DeltaEResult", "e_before e_after delta")):
    """Entanglement before and after a boost, and their difference."""

    __slots__ = ()


def delta_e(spin: SpinParams, alpha: float, omega: float, partition: Partition) -> DeltaEResult:
    """Linear-entropy change produced by the boost of angle omega.

    `spin` holds the family parameters; `alpha` is the momentum parameter.
    The entropies come from the sum that `sweep` runs on a grid's blocks,
    so a point's change has the bits of its grid cell, and at omega = 0 it
    is +0.0.
    """
    quartics = _purity_quartics(spin.family, alpha, (0.0, omega), partition)
    e_before, e_after = _entropies(
        partition, quartics, _theta_factors(spin.theta), _phi_factors(spin.phi)
    )
    return DeltaEResult(e_before=e_before, e_after=e_after, delta=e_after - e_before)
