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
    momentum_state,
    spin_states,
)
from .tensor import (
    FactorOrder,
    SubsystemLabel,
    batch_purity,
)

# cells that family_entropies evaluates at once: its intermediates stay a
# few MB whatever the number of cells
CHUNK_CELLS = 4096

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


def linear_entropy(rows: np.ndarray, partition: Partition) -> np.ndarray:
    """Sum over partition parts of (1 - purity of the reduced state), one value per row.

    `rows` is a (cells, 36) array of amplitude vectors in the canonical
    factor order.
    """
    cols = np.asarray(rows).T
    return sum(1.0 - batch_purity(cols, part) for part in partition.parts)


# on the two populated branches pA labels the branch and fixes pB
_BRANCH_ORDER = FactorOrder((_PA, _SA, _SB))
_SPIN_ORDER = FactorOrder((_SA, _SB))
_SPINS = frozenset({_SA, _SB})


def _branch_entropy(cols: np.ndarray, partition: Partition) -> np.ndarray:
    """Linear entropy of (2, 9, cells) two-branch columns, one value per cell.

    A part that holds both momenta keeps the branch coherence, so it is
    pA and its spins over the (18, cells) columns. A part that holds
    neither traces the branch out: its spins over the same columns. A part
    that holds exactly one momentum sees the branches as a direct sum, so
    its purity is the sum of per-branch purities of its spins; with no
    spins that is each branch's squared norm, squared. A part that reduces
    like the part before it, as the single momenta of 1vs3 do, reuses its
    value.
    """
    coherent = cols.reshape(18, cols.shape[2])
    total = np.zeros(cols.shape[2])
    previous = None
    for part in partition.parts:
        spins = part & _SPINS
        momenta = len(part - _SPINS)
        if (momenta, spins) != previous:
            if momenta == 1:
                keep = spins or _SPINS
                purity = sum(batch_purity(branch, keep, _SPIN_ORDER) for branch in cols)
            else:
                keep = spins | {_PA} if momenta == 2 else spins
                purity = batch_purity(coherent, keep, _BRANCH_ORDER)
            term = 1.0 - purity
            previous = momenta, spins
        total += term
    return total


def family_entropies(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    thetas: np.ndarray,
    phis: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy before and after the boost of one family member per cell.

    Cell k takes its angles from thetas[k] and phis[k]. The momentum state
    populates only |p+ p-> and |p- p+>, and the boost keeps each sector,
    so each cell is a real (2, 9) column of those two branches by spin
    amplitudes. Each branch is boosted by its own 9x9 diagonal block: a
    front-to-back sum over the three block columns of the amplitudes the
    family populates. The cells are evaluated CHUNK_CELLS at a time with
    elementwise operations only, so one cell alone gives the same bits as
    inside a grid of any size or chunking. Before and after go through the
    same branch reduction.
    """
    mom = momentum_state(alpha)
    if np.delete(mom, MOMENTUM_BRANCHES).any():
        raise ValueError("momentum state populates |p+ p+> or |p- p->, outside the two branches")
    c0, c1 = mom[list(MOMENTUM_BRANCHES)].real
    u = boost_operator(omega).real.reshape(4, 9, 4, 9)
    blocks = np.stack([u[s, :, s] for s in MOMENTUM_BRANCHES])
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    before, after = np.empty(thetas.size), np.empty(thetas.size)
    for start in range(0, thetas.size, CHUNK_CELLS):
        chunk = slice(start, start + CHUNK_CELLS)
        spins = spin_states(family, thetas[chunk], phis[chunk])
        psi = np.stack([c0 * spins, c1 * spins])
        boosted = np.zeros_like(psi)
        for j in FAMILY_INDICES[family]:
            boosted += blocks[:, :, j, None] * psi[:, None, j]
        before[chunk] = _branch_entropy(psi, partition)
        after[chunk] = _branch_entropy(boosted, partition)
    return before, after


@dataclass(frozen=True)
class DeltaEResult:
    """Entanglement before and after a boost, and their difference."""

    e_before: float
    e_after: float
    delta: float


def delta_e(spin: SpinParams, alpha: float, omega: float, partition: Partition) -> DeltaEResult:
    """Linear-entropy change produced by the boost of angle omega.

    `spin` holds the family parameters; `alpha` is the momentum parameter.
    The point is a one-cell batch of family_entropies.
    """
    before, after = family_entropies(
        spin.family, alpha, omega, partition, [spin.theta], [spin.phi]
    )
    e_before, e_after = float(before[0]), float(after[0])
    return DeltaEResult(e_before=e_before, e_after=e_after, delta=e_after - e_before)
