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

import math
from dataclasses import dataclass

import numpy as np

from .lorentz import boost_operator
from .states import (
    FAMILY_INDICES,
    MOMENTUM_BRANCHES,
    SpinFamily,
    SpinParams,
    get_named_state,
    momentum_state,
    spin_states,
)
from .tensor import (
    CANONICAL_ORDER,
    FactorOrder,
    PureState,
    SubsystemLabel,
    batch_purity,
    ordered_sum,
)

CONSERVATION_TOL = 1e-10

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


def linear_entropy(psi: PureState | np.ndarray, partition: Partition) -> float | np.ndarray:
    """Sum over partition parts of (1 - purity of the reduced state).

    Accepts a PureState, a raw canonical-order amplitude vector, or a
    (cells, 36) array of canonical-order rows; a batch gives one entropy
    per row, a single state a float.
    """
    if isinstance(psi, PureState):
        rows, order = psi.amplitudes, psi.order
    else:
        rows, order = np.asarray(psi), CANONICAL_ORDER
    cols = np.atleast_2d(rows).T
    total = sum(1.0 - batch_purity(cols, part, order) for part in partition.parts)
    return total if rows.ndim == 2 else float(total[0])


# on the two populated branches pA labels the branch and fixes pB
_BRANCH_ORDER = FactorOrder((_PA, _SA, _SB))
_SPIN_ORDER = FactorOrder((_SA, _SB))
_SPINS = frozenset({_SA, _SB})


def _branch_entropy(cols: np.ndarray, partition: Partition, total: np.ndarray,
                    work: np.ndarray) -> None:
    """Linear entropy of (2, 9, cells) two-branch columns into `total`, one value per cell.

    A part that holds both momenta keeps the branch coherence, so it is
    pA and its spins over the (18, cells) columns. A part that holds
    neither traces the branch out: its spins over the same columns. A part
    that holds exactly one momentum sees the branches as a direct sum, so
    its purity is the sum of per-branch purities of its spins; with no
    spins that is each branch's squared norm, squared. A part that reduces
    like the part before it, as the single momenta of 1vs3 do, reuses its
    value. `work` is flat scratch of at least _ENTROPY_WORK floats per cell.
    """
    cells = cols.shape[2]
    coherent = cols.reshape(18, cells)
    term, other, purity_work = work[:cells], work[cells : 2 * cells], work[2 * cells :]
    total.fill(0.0)
    previous = None
    for part in partition.parts:
        spins = part & _SPINS
        momenta = len(part - _SPINS)
        if (momenta, spins) != previous:
            if momenta == 1:
                keep = spins or _SPINS
                batch_purity(cols[0], keep, _SPIN_ORDER, term, purity_work)
                term += batch_purity(cols[1], keep, _SPIN_ORDER, other, purity_work)
            else:
                keep = spins | {_PA} if momenta == 2 else spins
                batch_purity(coherent, keep, _BRANCH_ORDER, term, purity_work)
            np.subtract(1.0, term, out=term)
            previous = momenta, spins
        total += term


# floats per cell of the scratch that _branch_entropy needs: two purity
# results, and batch_purity's work for a Gram matrix of at most 3x3
_ENTROPY_WORK = 2 + 3 * 9
# floats per cell of family_entropies' workspace: the (2, 9) columns before
# the boost, the two boost lanes and their scratch, and the entropy scratch
_WORK = 4 * 18 + _ENTROPY_WORK


def _carve(buffer: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive contiguous views of a flat buffer, one per shape, and the rest of it."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[start : start + size].reshape(shape))
        start += size
    return views + [buffer[start:]]


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
    amplitudes. Each branch is boosted by its own 9x9 diagonal block: an
    `ordered_sum` over the block's columns that skips the six amplitudes
    the family leaves at zero, so three multiply-adds. The cells are
    evaluated CHUNK_CELLS at a time with elementwise operations only, so
    one cell alone gives the same bits as inside a grid of any size or
    chunking. Before and after go through the same branch reduction.

    Every chunk works in one workspace, allocated once per call for the
    first chunk; a shorter last chunk uses views of its front part. The
    loop writes only into the workspace and the two results.
    """
    mom = momentum_state(alpha)
    if np.delete(mom, MOMENTUM_BRANCHES).any():
        raise ValueError("momentum state populates |p+ p+> or |p- p->, outside the two branches")
    c0, c1 = mom[list(MOMENTUM_BRANCHES)].real
    u = boost_operator(omega).real.reshape(4, 9, 4, 9)
    blocks = np.stack([u[s, :, s] for s in MOMENTUM_BRANCHES])
    absent = set(range(9)) - set(FAMILY_INDICES[family])
    thetas, phis = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
    before, after = np.empty(thetas.size), np.empty(thetas.size)
    work = np.empty(_WORK * min(CHUNK_CELLS, thetas.size))
    for start in range(0, thetas.size, CHUNK_CELLS):
        chunk = slice(start, start + CHUNK_CELLS)
        cells = before[chunk].size
        psi, lanes, scratch, entropy_work = _carve(
            work, (2, 9, cells), (2, 2, 9, cells), (2, 9, cells)
        )
        # the spin columns land in branch 1, which is scaled after branch 0 reads them
        spin_states(family, thetas[chunk], phis[chunk], out=psi[1])
        np.multiply(c0, psi[1], out=psi[0])
        psi[1] *= c1
        boosted = ordered_sum(
            9,
            lambda j, dest: np.multiply(blocks[:, :, j, None], psi[:, None, j], out=dest),
            lanes,
            scratch,
            skip=absent,
        )
        _branch_entropy(psi, partition, before[chunk], entropy_work)
        _branch_entropy(boosted, partition, after[chunk], entropy_work)
    return before, after


@dataclass(frozen=True)
class DeltaEResult:
    """Entanglement before and after a boost, and their difference."""

    e_before: float
    e_after: float
    delta: float
    omega: float


def delta_e(spin: SpinParams | str, alpha: float, omega: float, partition: Partition) -> DeltaEResult:
    """Linear-entropy change produced by the boost of angle omega.

    `spin` is family parameters or a named-state identifier; `alpha` is the
    momentum parameter. The point is a one-cell batch of family_entropies.
    """
    params = get_named_state(spin).params if isinstance(spin, str) else spin
    before, after = family_entropies(
        params.family, alpha, omega, partition, [params.theta], [params.phi]
    )
    e_before, e_after = float(before[0]), float(after[0])
    return DeltaEResult(e_before=e_before, e_after=e_after, delta=e_after - e_before, omega=omega)
