"""Dense linear algebra on a small composite Hilbert space.

The composite space describes two distinguishable spin-1 particles, each
carrying a two-level momentum label and a three-level spin. Composite
indices are row-major over the factor order with the first factor varying
slowest. The canonical factor order is [pA, pB, sA, sB], so the total
dimension is 2*2*3*3 = 36.

All operations are pure functions on immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

NORM_TOL = 1e-12
TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10


class SubsystemLabel(Enum):
    """The four physical subsystems: momenta and spins of particles A and B."""

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


@dataclass(frozen=True)
class FactorOrder:
    """Ordered subsystem labels fixing the composite index convention."""

    labels: tuple[SubsystemLabel, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("factor labels must be unique")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(label.dim for label in self.labels)

    @property
    def total_dim(self) -> int:
        out = 1
        for dim in self.dims:
            out *= dim
        return out

    def axis(self, label: SubsystemLabel) -> int:
        """Tensor axis of a label within this order."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label.value} not present in factor order") from None


CANONICAL_ORDER = FactorOrder(
    (SubsystemLabel.PA, SubsystemLabel.PB, SubsystemLabel.SA, SubsystemLabel.SB)
)


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over a factor order."""

    amplitudes: np.ndarray
    order: FactorOrder = CANONICAL_ORDER

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.order.total_dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected {self.order.total_dim}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("state vector is not normalized")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix over a factor order."""

    entries: np.ndarray
    order: FactorOrder

    def __post_init__(self) -> None:
        rho = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", rho)
        n = self.order.total_dim
        if rho.shape != (n, n):
            raise ValueError(f"density matrix has shape {rho.shape}, expected ({n}, {n})")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
            raise ValueError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(rho)) < -EIGENVALUE_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")


def kron_all(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of several matrices, left to right."""
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def outer(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi| as a DensityMatrix."""
    v = psi.amplitudes
    return DensityMatrix(np.outer(v, v.conj()), psi.order)


def partial_trace(rho: DensityMatrix, keep: Iterable[SubsystemLabel]) -> DensityMatrix:
    """Reduced density matrix over `keep`, traced over everything else.

    The retained factors are emitted in canonical label order regardless of
    the order in which `keep` lists them.
    """
    keep = set(keep)
    if not keep:
        raise ValueError("keep must be a nonempty set of labels")
    order = rho.order
    for label in keep:
        if label not in order.labels:
            raise ValueError(f"label {label.value} not present in the density matrix")

    kept = [label for label in CANONICAL_ORDER.labels if label in keep]
    kept_axes = [order.axis(label) for label in kept]
    n = len(order.labels)
    dims = order.dims

    # einsum label mechanics: traced axes share a letter between bra and ket
    letters = "abcdefghijklmnopqrstuvwx"
    bra = list(letters[:n])
    ket = list(letters[:n])
    out = []
    for pos, ax in enumerate(kept_axes):
        ket[ax] = letters[n + pos]
        out.append(bra[ax])
    out += [ket[ax] for ax in kept_axes]
    spec = "".join(bra) + "".join(ket) + "->" + "".join(out)

    tens = rho.entries.reshape(dims + dims)
    dk = 1
    for label in kept:
        dk *= label.dim
    reduced = np.einsum(spec, tens).reshape(dk, dk)
    return DensityMatrix(reduced, FactorOrder(tuple(kept)))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), real by hermiticity."""
    r = rho.entries
    return float(np.trace(r @ r).real)


@functools.cache
def _cut(order: FactorOrder, keep: frozenset[SubsystemLabel]) -> tuple[tuple[int, ...], int, tuple]:
    """The smaller side of the cut between `keep` and the rest, as batch_purity reduces it.

    Returns the axis permutation of the (dims..., cells) tensor that puts
    the smaller side's axes first, then the other axes, then the cells;
    the smaller side's dimension; and, for each index of the other side in
    row-major order, the tensor index that selects it.
    """
    if not keep:
        raise ValueError("keep must be a nonempty set of labels")
    kept_axes = sorted(order.axis(label) for label in keep)
    rest_axes = [ax for ax in range(len(order.labels)) if ax not in kept_axes]
    dims = order.dims
    dk = 1
    for ax in kept_axes:
        dk *= dims[ax]
    if dk * dk > order.total_dim:
        kept_axes, rest_axes = rest_axes, kept_axes
        dk = order.total_dim // dk
    kept = (slice(None),) * len(kept_axes)
    rest = tuple(kept + index for index in np.ndindex(*(dims[ax] for ax in rest_axes)))
    return tuple(kept_axes + rest_axes + [len(dims)]), dk, rest


def batch_purity(
    cols: np.ndarray,
    keep: Iterable[SubsystemLabel],
    order: FactorOrder = CANONICAL_ORDER,
) -> np.ndarray:
    """Purity of the reduced state over `keep` for each column of a (total_dim, cells) array.

    Each column is a pure state over `order`, reduced through its Gram
    matrix without forming the full projector. A pure state has the same
    purity on both sides of a cut, so the Gram matrix is taken on the
    smaller side. Its terms are summed over the other side's indices, and
    then its squared entries are summed, both front to back in row-major
    order, each step an elementwise operation over the cells. No sum runs
    along the cell axis, so a column gives the same bits alone as inside
    any batch. Real columns stay real and complex columns complex. Columns
    are taken as they are, without normalization checks.
    """
    perm, dk, rest = _cut(order, frozenset(keep))
    cols = np.asarray(cols)
    if not np.iscomplexobj(cols):
        cols = cols.astype(float, copy=False)
    cells = cols.shape[1]
    tens = np.transpose(cols.reshape(order.dims + (cells,)), perm)
    gram = np.zeros((dk, dk, cells), cols.dtype)
    for index in rest:
        # a view whenever the smaller side's axes merge, as a single axis does
        a = tens[index].reshape(dk, cells)
        # conj() of a real array is the array itself, so real columns stay real
        gram += a[:, None] * a[None, :].conj()
    purity = np.zeros(cells)
    for entry in gram.reshape(dk * dk, cells):
        purity += (entry * entry.conj()).real
    return purity


def permute_factors(psi: PureState, new_order: FactorOrder) -> PureState:
    """Reindex a state vector into a different factor order."""
    if set(new_order.labels) != set(psi.order.labels):
        raise ValueError("new order must be a permutation of the state's factor order")
    perm = [psi.order.axis(label) for label in new_order.labels]
    amps = np.transpose(psi.amplitudes.reshape(psi.order.dims), perm).ravel()
    return PureState(amps, new_order)


def permute_operator(matrix: np.ndarray, order: FactorOrder, new_order: FactorOrder) -> np.ndarray:
    """Reindex an operator's rows and columns into a different factor order."""
    if set(new_order.labels) != set(order.labels):
        raise ValueError("new order must be a permutation of the operator's factor order")
    n = len(order.labels)
    perm = [order.axis(label) for label in new_order.labels]
    dims = order.dims
    tens = np.asarray(matrix).reshape(dims + dims)
    tens = np.transpose(tens, perm + [n + ax for ax in perm])
    total = order.total_dim
    return tens.reshape(total, total)
