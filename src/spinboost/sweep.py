"""Grid sweeps of the entanglement change over (theta, phi), and their CSV and JSON files.

The sweep ranges over one spin family at fixed momentum parameter alpha and
boost angle omega, evaluating the entanglement change for every grid cell.
Cells are independent pure evaluations with no cross-cell reductions, so
the emitted grid is deterministic and identical however the cells are
batched. A surface is evaluated in blocks of whole theta rows and handed on
row by row, so a sweep's memory does not grow with its grid.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Iterator

import numpy as np

from .entanglement import Partition, _entropies, _purity_quartics
# COLLECT_TOL stays importable here for the callers that read a report beside its band
from .grid import COLLECT_TOL, GridSpec  # noqa: F401
from .states import SpinFamily, _phi_factors, _theta_factors

DEFAULT_THETA_GRID = GridSpec(0.0, math.pi, 121)
DEFAULT_PHI_GRID = GridSpec(0.0, 2 * math.pi, 241)

# cells of one evaluated block, whole theta rows (at least one); the default grid is one block
_BLOCK_CELLS = 1 << 15


def _table(factors, points: list[float]) -> np.ndarray:
    """The amplitude factors of an axis's points, (3, len(points)), from `math` as a point's are."""
    return np.array([factors(point) for point in points]).reshape(-1, 3).T


def _blocks(family, alpha, omega, partition, thetas: list[float], phis: list[float]):
    """The surface in blocks of whole theta rows, each a (rows, len(phis)) array of at most
    _BLOCK_CELLS cells. The coefficient pass runs once, in this call; each block is then
    evaluated as it is asked for.

    A block runs the sum of `entanglement.delta_e` on the axes' amplitude
    factors as arrays, theta's shaped (rows, 1) and phi's (m,), so every cell
    has the bits of its point.
    """
    quartics = _purity_quartics(family, alpha, (0.0, omega), partition)
    phi_table = _table(_phi_factors, phis)
    step = max(1, _BLOCK_CELLS // len(phis))

    def block(start: int) -> np.ndarray:
        theta_table = _table(_theta_factors, thetas[start : start + step])[:, :, None]
        before, after = _entropies(partition, quartics, theta_table, phi_table)
        after -= before
        return after

    return map(block, range(0, len(thetas), step))


def delta_e_grid(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    thetas: np.ndarray,
    phis: np.ndarray,
) -> np.ndarray:
    """Entanglement-change surface over a (theta, phi) grid, theta outer: the blocks whose
    rows `surface_rows` hands on, stacked."""
    axes = (np.asarray(axis, dtype=float).tolist() for axis in (thetas, phis))
    return np.concatenate(list(_blocks(family, alpha, omega, partition, *axes)))


def surface_rows(
    family: SpinFamily, alpha: float, omega: float, partition: Partition,
    thetas: list[float], phis: list[float],
) -> Iterator[list[float]]:
    """The surface's theta rows as lists of floats, a block evaluated as its first row is
    asked for. A bad alpha raises in this call, before any row is written."""
    return (row.tolist() for block in _blocks(family, alpha, omega, partition, thetas, phis)
            for row in block)


def write_csv(
    thetas: list[float], phis: list[float], rows: Iterable[list[float]], stream: IO[str]
) -> None:
    """Emit the grid as CSV with header theta,phi,delta_e, theta outer: one line a cell,
    one theta row of `rows` for each of `thetas`."""
    stream.write("theta,phi,delta_e\n")
    # each coordinate is formatted once; each theta row is one %-template,
    # the theta string joining the pre-formatted phi cells, and one write
    phi_cells = ["", *(f",{phi:.17g},%.17g\n" for phi in phis)]
    for theta, row in zip(thetas, rows):
        stream.write(f"{theta:.17g}".join(phi_cells) % tuple(row))


def write_json(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    theta_grid: GridSpec,
    phi_grid: GridSpec,
    rows: Iterable[list[float]],
    stream: IO[str],
) -> None:
    """Emit the grid as a JSON envelope: the sweep's config, shape, and the theta rows of
    `rows` as one flat list of values."""
    import json

    envelope = {
        "config": {
            "family": family.value,
            "alpha": alpha,
            "omega": omega,
            "partition": partition.name,
            "theta_grid": theta_grid._asdict(),
            "phi_grid": phi_grid._asdict(),
        },
        "shape": [theta_grid.count, phi_grid.count],
        "values": [],
    }
    # the bytes of json.dump(envelope, indent=2) with the values filled in:
    # the head is the envelope up to its empty list, and each theta row of
    # values is one call of the C encoder with the separator indent=2 puts
    # between the items of a list at that depth
    head = json.dumps(envelope, indent=2)
    stream.write(head[: -len("]\n}")] + "\n    ")
    separator = ",\n    "
    for k, row in enumerate(rows):
        if k:
            stream.write(separator)
        stream.write(json.dumps(row, separators=(separator, ": "))[1:-1])
    stream.write("\n  ]\n}\n")
