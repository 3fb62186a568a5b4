"""Builders that only the tests use: product states, factor reordering, one-state entropy,
and whole surfaces: swept, written to and read back from a stream, and reported on; and a
worker forced on."""

import io
import os
from collections import namedtuple

import numpy as np
import pytest

from spinboost.entanglement import Partition
from spinboost.extrema import DEFAULT_MERGE_RADIUS, HitCollector, _csv_texts, _read_csv, _read_json
from spinboost.sweep import _csv_form, _json_form, writer
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
    rows = []
    writer(family, alpha, omega, partition, theta_grid, phi_grid, False, rows.append)(io.StringIO())
    return Surface(np.array(theta_grid.points), np.array(phi_grid.points), np.array(rows))


def _write(form, rows, stream) -> None:
    head, text, tail = form
    stream.write(head)
    for k, row in enumerate(rows):
        stream.write(text(k, row))
    stream.write(tail)


def write_csv(thetas, phis, rows, stream) -> None:
    """Any theta rows over any axes as CSV, in the form a sweep writes its surface in."""
    _write(_csv_form(thetas, phis), rows, stream)


def write_json(family, alpha, omega, partition, theta_grid, phi_grid, rows, stream) -> None:
    """Any theta rows as a JSON envelope of the given config, in the form a sweep writes its
    surface in."""
    _write(_json_form(family, alpha, omega, partition, theta_grid, phi_grid), rows, stream)


def find_extrema(surface: Surface, merge_radius: float = DEFAULT_MERGE_RADIUS):
    """The extrema report of a whole surface, through the collector that `spinboost extrema`
    and `sweep --summary` feed one row at a time."""
    hits = HitCollector()
    for row in surface.values.tolist():
        hits.add(row)
    return hits.report(surface.thetas.tolist(), surface.phis.tolist(), merge_radius)


def read_csv(stream, add_row):
    """A CSV surface read from a text stream in one process, as `spinboost extrema` reads a
    CSV file: the header line, then the rest in chunks; returns its axes."""
    return _read_csv(stream.readline(), _csv_texts(stream), add_row)


def read_json(stream, add_row):
    """A JSON surface read from a text stream, as `spinboost extrema` reads a JSON file: the
    whole text at once; returns its axes."""
    return _read_json(stream.read(), add_row)


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
