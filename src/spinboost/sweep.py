"""Grid sweeps of the entanglement change over (theta, phi), and the writer of their files.

The sweep ranges over one spin family at fixed momentum parameter alpha and
boost angle omega, evaluating the entanglement change for every grid cell.
Cells are independent pure evaluations with no cross-cell reductions, so
the emitted grid is deterministic and identical however the cells are
batched. A surface is evaluated in blocks of whole theta rows and handed on
row by row, so a sweep's memory does not grow with its grid. The command's
`writer` has a forked worker evaluate and format every odd block where
`worker.usable` holds for their cells.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import IO, Callable

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
    """The surface's blocks of whole theta rows: the first row of each, and a function that
    evaluates the block from a first row as a (rows, len(phis)) array of at most
    _BLOCK_CELLS cells. The coefficient pass runs once, in this call.

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

    return range(0, len(thetas), step), block


def delta_e_grid(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    thetas: np.ndarray,
    phis: np.ndarray,
) -> np.ndarray:
    """Entanglement-change surface over a (theta, phi) grid, theta outer: the blocks that
    a sweep's `writer` evaluates, stacked."""
    axes = (np.asarray(axis, dtype=float).tolist() for axis in (thetas, phis))
    starts, block = _blocks(family, alpha, omega, partition, *axes)
    return np.concatenate([block(start) for start in starts])


def writer(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    theta_grid: GridSpec,
    phi_grid: GridSpec,
    as_json: bool,
    add_row: Callable[[list[float]], None] | None = None,
) -> Callable[[IO[str]], None]:
    """The sweep's file writer: write(stream) writes the surface over the grids' points in
    `surface`'s JSON form (as_json) or CSV form, and hands each theta row to add_row, if one
    is given, in order.

    The grid points and the coefficient pass are made in this call, so a bad alpha or grid
    raises before any stream is opened. write evaluates a block of theta rows at a time.
    Where `worker.usable` holds for the cells of the odd blocks, a forked worker evaluates
    and formats those meanwhile; so write forks the calling process, and is for a caller
    that knows its process's threads, as the CLI.
    """
    from . import surface

    thetas, phis = theta_grid.points, phi_grid.points
    starts, block = _blocks(family, alpha, omega, partition, thetas, phis)
    head, text, tail = (surface.json_form(family, alpha, omega, partition, theta_grid, phi_grid)
                        if as_json else surface.csv_form(thetas, phis))
    odd = starts[1::2]
    odd_cells = sum(min(starts.step, len(thetas) - start) for start in odd) * len(phis)

    def job(send: Callable[[bytes], None]) -> None:
        for start in odd:
            rows = enumerate(block(start), start)
            send("".join(text(k, row.tolist()) for k, row in rows).encode())

    def write(stream: IO[str]) -> None:
        from .worker import forked, usable

        stream.write(head)
        # this process holds a block of rows and one piece of the worker's text; the
        # worker holds one block's text
        with forked(job) if usable(odd_cells) else nullcontext() as receive:
            for n, start in enumerate(starts):
                local = receive is None or n % 2 == 0
                # the rows go to add_row in order, so this process evaluates a worker's
                # block too where there is one
                if local or add_row is not None:
                    for k, row in enumerate(block(start), start):
                        row = row.tolist()
                        if add_row is not None:
                            add_row(row)
                        if local:
                            stream.write(text(k, row))
                if not local:
                    for piece in receive():
                        stream.write(piece.decode("ascii"))
        stream.write(tail)

    return write
