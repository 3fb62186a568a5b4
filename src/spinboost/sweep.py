"""Grid sweeps of the entanglement change over (theta, phi), and their CSV and JSON files.

The sweep ranges over one spin family at fixed momentum parameter alpha and
boost angle omega, evaluating the entanglement change for every grid cell.
Cells are independent pure evaluations with no cross-cell reductions, so
the emitted grid is deterministic and identical however the cells are
batched. A surface is evaluated in blocks of whole theta rows and handed on
row by row, so a sweep's memory does not grow with its grid. The command's
`write_sweep` has a forked worker evaluate and format every odd block where
`worker.usable` holds for their cells.
"""

from __future__ import annotations

import math
from typing import IO, Callable, Iterable, Iterator

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
    """Entanglement-change surface over a (theta, phi) grid, theta outer: the blocks whose
    rows `surface_rows` hands on, stacked."""
    axes = (np.asarray(axis, dtype=float).tolist() for axis in (thetas, phis))
    starts, block = _blocks(family, alpha, omega, partition, *axes)
    return np.concatenate([block(start) for start in starts])


class _Rows:
    """A surface's theta rows over its axes, evaluated a block at a time as they are asked for."""

    def __init__(self, thetas: list[float], phis: list[float], starts: range, block,
                 add_row: Callable[[list[float]], None] | None):
        self.thetas, self.phis, self.starts, self.block = thetas, phis, starts, block
        self.add_row = add_row

    def values(self, start: int) -> Iterator[list[float]]:
        """The rows of the block from theta row `start`, each handed to add_row if one is given."""
        for row in self.block(start):
            row = row.tolist()
            if self.add_row is not None:
                self.add_row(row)
            yield row

    def __iter__(self) -> Iterator[list[float]]:
        return (row for start in self.starts for row in self.values(start))


def surface_rows(
    family: SpinFamily, alpha: float, omega: float, partition: Partition,
    thetas: list[float], phis: list[float],
    add_row: Callable[[list[float]], None] | None = None,
) -> _Rows:
    """The surface's theta rows as lists of floats, a block evaluated as its first row is
    asked for, and each handed to add_row, if one is given, in order. A bad alpha raises in
    this call, before any row is written."""
    return _Rows(thetas, phis, *_blocks(family, alpha, omega, partition, thetas, phis), add_row)


# a file's text in three parts: its head, the text of theta row k, and its tail
_Form = tuple[str, Callable[[int, list[float]], str], str]


def _write(stream: IO[str], form: _Form, rows: Iterable[list[float]]) -> None:
    head, text, tail = form
    stream.write(head)
    for k, row in enumerate(rows):
        stream.write(text(k, row))
    stream.write(tail)


def _write_alternate(stream: IO[str], form: _Form, rows: _Rows) -> None:
    """Write the text of a surface's even blocks, and copy in turn that of its odd blocks,
    which a forked worker evaluates and formats meanwhile. This process holds a block of
    rows and one piece of the worker's text; the worker holds one block's text."""
    from .worker import forked

    head, text, tail = form

    def job(send: Callable[[bytes], None]) -> None:
        for start in rows.starts[1::2]:
            block = enumerate(rows.block(start), start)
            send("".join(text(k, row.tolist()) for k, row in block).encode())

    stream.write(head)
    with forked(job) as receive:
        for n, start in enumerate(rows.starts):
            if n % 2 == 0:
                for k, row in enumerate(rows.values(start), start):
                    stream.write(text(k, row))
                continue
            if rows.add_row is not None:
                # the rows go to add_row in order, so this process evaluates the block too
                for row in rows.block(start):
                    rows.add_row(row.tolist())
            for piece in receive():
                stream.write(piece.decode("ascii"))
    stream.write(tail)


def _csv_form(thetas: list[float], phis: list[float]) -> _Form:
    # each coordinate is formatted once; each theta row is one %-template,
    # the theta string joining the pre-formatted phi cells
    phi_cells = ["", *(f",{phi:.17g},%.17g\n" for phi in phis)]

    def text(k: int, row: list[float]) -> str:
        return f"{thetas[k]:.17g}".join(phi_cells) % tuple(row)

    return "theta,phi,delta_e\n", text, ""


def _json_form(family: SpinFamily, alpha: float, omega: float, partition: Partition,
               theta_grid: GridSpec, phi_grid: GridSpec) -> _Form:
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
    separator = ",\n    "
    encode = json.JSONEncoder(separators=(separator, ": ")).encode

    def text(k: int, row: list[float]) -> str:
        return (separator if k else "") + encode(row)[1:-1]

    return head[: -len("]\n}")] + "\n    ", text, "\n  ]\n}\n"


def write_csv(
    thetas: list[float], phis: list[float], rows: Iterable[list[float]], stream: IO[str]
) -> None:
    """Emit the grid as CSV with header theta,phi,delta_e, theta outer: one line a cell,
    one theta row of `rows` for each of `thetas`."""
    _write(stream, _csv_form(thetas, phis), rows)


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
    _write(stream, _json_form(family, alpha, omega, partition, theta_grid, phi_grid), rows)


def write_sweep(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    theta_grid: GridSpec,
    phi_grid: GridSpec,
    rows: _Rows,
    stream: IO[str],
    as_json: bool,
) -> None:
    """Write `rows`, the surface_rows of the grids' points, as write_json (as_json) or
    write_csv writes them. Where `worker.usable` holds for the cells of the odd blocks, a
    forked worker evaluates and formats those meanwhile; so this forks the calling process,
    and is for a caller that knows its process's threads, as the CLI."""
    from .worker import usable

    starts = rows.starts
    odd_rows = sum(min(starts.step, starts.stop - start) for start in starts[1::2])
    if usable(odd_rows * len(rows.phis)):
        if as_json:
            form = _json_form(family, alpha, omega, partition, theta_grid, phi_grid)
        else:
            form = _csv_form(rows.thetas, rows.phis)
        _write_alternate(stream, form, rows)
    elif as_json:
        write_json(family, alpha, omega, partition, theta_grid, phi_grid, rows, stream)
    else:
        write_csv(rows.thetas, rows.phis, rows, stream)
