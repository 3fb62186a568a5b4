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

from collections import namedtuple
from typing import Iterable

import numpy as np

from .states import SubsystemLabel

NORM_TOL = 1e-12
TRACE_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10


class FactorOrder(namedtuple("FactorOrder", "labels")):
    """Ordered subsystem labels fixing the composite index convention."""

    __slots__ = ()

    def __new__(cls, labels: tuple[SubsystemLabel, ...]) -> FactorOrder:
        if len(set(labels)) != len(labels):
            raise ValueError("factor labels must be unique")
        return super().__new__(cls, labels)

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


CANONICAL_ORDER = FactorOrder(tuple(SubsystemLabel))


class PureState(namedtuple("PureState", "amplitudes order")):
    """Unit-norm complex amplitude vector over a factor order."""

    __slots__ = ()

    def __new__(cls, amplitudes: np.ndarray, order: FactorOrder = CANONICAL_ORDER) -> PureState:
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (order.total_dim,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected {order.total_dim}"
            )
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
            raise ValueError("state vector is not normalized")
        return super().__new__(cls, amps, order)


class DensityMatrix(namedtuple("DensityMatrix", "entries order")):
    """Hermitian, positive semidefinite, unit-trace matrix over a factor order."""

    __slots__ = ()

    def __new__(cls, entries: np.ndarray, order: FactorOrder) -> DensityMatrix:
        rho = np.asarray(entries, dtype=complex)
        n = order.total_dim
        if rho.shape != (n, n):
            raise ValueError(f"density matrix has shape {rho.shape}, expected ({n}, {n})")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
            raise ValueError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(rho)) < -EIGENVALUE_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        return super().__new__(cls, rho, order)


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

