"""Builders that only the tests use: product states, factor reordering, one-state entropy,
and whole surfaces: swept, read back from a file, and reported on; and a worker forced on."""

import os
from collections import namedtuple

import numpy as np
import pytest

from spinboost.entanglement import Partition
from spinboost.extrema import DEFAULT_MERGE_RADIUS, HitCollector
from spinboost.sweep import surface_rows
from spinboost.tensor import NORM_TOL, FactorOrder, PureState, outer, partial_trace, purity


def assemble(spin: np.ndarray, momentum: np.ndarray) -> PureState:
    """Product state |momentum> x |spin> in the canonical factor order."""
    spin = np.asarray(spin, dtype=complex)
    momentum = np.asarray(momentum, dtype=complex)
    if abs(np.linalg.norm(spin) - 1.0) > NORM_TOL:
        raise ValueError("spin vector is not normalized")
    if abs(np.linalg.norm(momentum) - 1.0) > NORM_TOL:
        raise ValueError("momentum vector is not normalized")
    return PureState(np.kron(momentum, spin))


def permute_factors(psi: PureState, new_order: FactorOrder) -> PureState:
    """Reindex a state vector into a different factor order."""
    if set(new_order.labels) != set(psi.order.labels):
        raise ValueError("new order must be a permutation of the state's factor order")
    perm = [psi.order.axis(label) for label in new_order.labels]
    amps = np.transpose(psi.amplitudes.reshape(psi.order.dims), perm).ravel()
    return PureState(amps, new_order)


def entropy(vec: np.ndarray, partition: Partition) -> float:
    """Linear entropy of one canonical-order amplitude vector, through the dense oracle."""
    rho = outer(PureState(vec))
    return sum(1.0 - purity(partial_trace(rho, part)) for part in partition.parts)


# a dense surface: `thetas` (n,), `phis` (m,) and `values` (n, m), theta outer
Surface = namedtuple("Surface", "thetas phis values")


def run_sweep(family, alpha, omega, partition, theta_grid, phi_grid) -> Surface:
    """A sweep's surface whole: the rows that `spinboost sweep` streams, stacked."""
    thetas, phis = theta_grid.points, phi_grid.points
    rows = list(surface_rows(family, alpha, omega, partition, thetas, phis))
    return Surface(np.array(thetas), np.array(phis), np.array(rows))


def find_extrema(surface: Surface, merge_radius: float = DEFAULT_MERGE_RADIUS):
    """The extrema report of a whole surface, through the collector that `spinboost extrema`
    and `sweep --summary` feed one row at a time."""
    hits = HitCollector()
    for row in surface.values.tolist():
        hits.add(row)
    return hits.report(surface.thetas.tolist(), surface.phis.tolist(), merge_radius)


def read_surface(reader, stream) -> Surface:
    """A stored surface read back whole: the rows a reader hands over, stacked under its axes."""
    rows = []
    thetas, phis = reader(stream, rows.append)
    values = np.array(rows, dtype=float).reshape(len(thetas), len(phis))
    return Surface(np.array(thetas), np.array(phis), values)


def force_worker(monkeypatch) -> None:
    """Give a worker every share of one cell or more, however busy the machine, so that the
    two-process paths run where the platform forks."""
    from spinboost import worker

    if not hasattr(os, "fork"):
        pytest.skip("a worker needs os.fork")
    monkeypatch.setattr(worker, "MIN_CELLS", 1)
    monkeypatch.setattr(worker, "_free_cpu", lambda: True)
