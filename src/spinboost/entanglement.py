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
from .states import MomentumParams, SpinParams, get_named_state, momentum_state, spin_state, assemble
from .tensor import CANONICAL_ORDER, PureState, SubsystemLabel, batch_purity

CONSERVATION_TOL = 1e-10

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
    # one row-major copy serves every part; strided rows would make each part's
    # transpose a cache-missing gather
    batch = np.ascontiguousarray(np.atleast_2d(rows))
    total = sum(1.0 - batch_purity(batch, part, order) for part in partition.parts)
    return total if rows.ndim == 2 else float(total[0])


@dataclass(frozen=True)
class DeltaEResult:
    """Entanglement before and after a boost, and their difference."""

    e_before: float
    e_after: float
    delta: float
    partition: Partition
    omega: float


def _resolve_spin(spin: SpinParams | str | np.ndarray) -> np.ndarray:
    if isinstance(spin, SpinParams):
        return spin_state(spin)
    if isinstance(spin, str):
        return get_named_state(spin).spin_vector()
    return np.asarray(spin, dtype=complex)


def delta_e(
    spin: SpinParams | str | np.ndarray,
    momentum: MomentumParams | float,
    omega: float,
    partition: Partition,
) -> DeltaEResult:
    """Linear-entropy change produced by the boost of angle omega.

    `spin` may be family parameters, a named-state identifier, or a raw
    9-dim spin vector; `momentum` is the alpha parameter.
    """
    psi = assemble(_resolve_spin(spin), momentum_state(momentum))
    boosted = PureState(boost_operator(omega) @ psi.amplitudes)
    e_before = linear_entropy(psi, partition)
    e_after = linear_entropy(boosted, partition)
    return DeltaEResult(
        e_before=e_before,
        e_after=e_after,
        delta=e_after - e_before,
        partition=partition,
        omega=omega,
    )


@dataclass(frozen=True)
class ConservationReport:
    """Per-partition entanglement change with conservation violations flagged.

    AvsB and the mixed partition must conserve entanglement for every state
    because the boost factors into single-particle unitaries; a violation
    there indicates a broken transformation, not physics.
    """

    deltas: dict[str, float]
    violations: tuple[str, ...]

    @property
    def conserved(self) -> bool:
        return not self.violations


def conservation_report(psi: PureState, omega: float) -> ConservationReport:
    """Evaluate the boost's entanglement change in all four partitions."""
    boosted = PureState(boost_operator(omega) @ psi.amplitudes)
    deltas = {
        name: linear_entropy(boosted, part) - linear_entropy(psi, part)
        for name, part in PARTITIONS.items()
    }
    violations = tuple(
        name for name in ("AvsB", "mixed") if abs(deltas[name]) > CONSERVATION_TOL
    )
    return ConservationReport(deltas=deltas, violations=violations)
