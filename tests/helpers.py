"""Builders that only the tests use: product states, factor reordering, one-state entropy,
and whole surfaces: swept, written to and read back from a stream, and reported on, also
on a reference route; and a worker forced on."""

import io
import json
import os
from collections import namedtuple

import numpy as np
import pytest

from spinboost.entanglement import Partition
from spinboost.extrema import DEFAULT_MERGE_RADIUS, HitCollector
from spinboost.grid import GridSpec
from spinboost.surface import _csv_texts, _read_csv, _read_json, csv_form, json_form
from spinboost.sweep import writer
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
    _write(csv_form(thetas, phis), rows, stream)


def write_json(family, alpha, omega, partition, theta_grid, phi_grid, rows, stream) -> None:
    """Any theta rows as a JSON envelope of the given config, in the form a sweep writes its
    surface in."""
    _write(json_form(family, alpha, omega, partition, theta_grid, phi_grid), rows, stream)


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


def _reference_surface(text: str) -> Surface | None:
    if text.lstrip().startswith("{"):
        envelope = json.loads(text)
        grids = [GridSpec(**envelope["config"][axis]) for axis in ("theta_grid", "phi_grid")]
        values = envelope["values"]
        if type(values) is not list or any(type(v) not in (int, float) for v in values):
            return None
        if list(envelope["shape"]) != [g.count for g in grids] or len(values) != (
                grids[0].count * grids[1].count):
            return None
        thetas, phis = (np.array(g.points) for g in grids)
        return Surface(thetas, phis, np.array(values, dtype=float).reshape(len(thetas), -1))
    header, _, body = text.partition("\n")
    if header.strip() != "theta,phi,delta_e":
        return None
    cells = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    if cells.shape[1:] != (3,) or len(cells) == 0:
        return None
    # a row starts where theta changes; every row is as long as the first
    theta = cells[:, 0]
    starts = np.flatnonzero(np.r_[True, theta[1:] != theta[:-1]])
    n_phi = starts[1] if len(starts) > 1 else len(cells)
    if len(cells) % n_phi:
        return None
    grid = cells.reshape(-1, n_phi, 3)
    thetas, phis = grid[:, 0, 0], grid[0, :, 1]
    on_grid = (grid[:, :, 0] == thetas[:, None]).all() and (grid[:, :, 1] == phis).all()
    if not (on_grid and np.isfinite(thetas).all() and np.isfinite(phis).all()
            and len(set(thetas.tolist())) == len(thetas) >= 2
            and len(set(phis.tolist())) == len(phis) >= 2):
        return None
    return Surface(thetas, phis, grid[:, :, 2])


def reference_report(data: bytes):
    """The extrema report of a stored file's bytes read on a route of their own: UTF-8 with
    universal newlines, JSON if the first non-blank character is `{`, then `json.loads` and
    the envelope's checks, else the CSV header and `np.loadtxt` and the theta x phi grid's
    checks. None where the file is no surface."""
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        surface = _reference_surface(text)
        return None if surface is None else find_extrema(surface)
    except (ValueError, KeyError, TypeError, OverflowError):
        return None


def force_worker(monkeypatch) -> None:
    """Give a worker every share of one cell or more, however busy the machine, so that the
    two-process paths run where the platform forks."""
    from spinboost import worker

    if not hasattr(os, "fork"):
        pytest.skip("a worker needs os.fork")
    monkeypatch.setattr(worker, "MIN_CELLS", 1)
    monkeypatch.setattr(worker, "_free_cpu", lambda: True)
