"""Grid sweeps of the entanglement change over (theta, phi), and the writer of their files.

The sweep ranges over one spin family at fixed momentum parameter alpha and
boost angle omega, evaluating the entanglement change for every grid cell.
Cells are independent pure evaluations with no cross-cell reductions, so
the emitted grid is deterministic and identical however the cells are
batched. A surface is evaluated in blocks of whole theta rows and handed on
row by row, so a sweep's memory does not grow with its grid. Every block is
evaluated in plain floats, so a sweep never loads numpy; only `delta_e_grid`,
which returns an array, imports it. The command's `writer` has a forked
worker evaluate and format every odd block where `worker.usable` holds for
their cells.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from operator import mul
from typing import IO, Callable

from .entanglement import Partition, _monomial_factors, _purity_quartics
# COLLECT_TOL stays importable here for the callers that read a report beside its band
from .grid import COLLECT_TOL, GridSpec  # noqa: F401
from .states import SpinFamily, _phi_factors, _theta_factors

DEFAULT_THETA_GRID = GridSpec(0.0, math.pi, 121)
DEFAULT_PHI_GRID = GridSpec(0.0, 2 * math.pi, 241)

# cells of one evaluated block, whole theta rows (at least one); the default grid is one block
_BLOCK_CELLS = 1 << 15


def _float_rows(partition: Partition, quartics: list[list[float]], phis: list[float]):
    """The function that evaluates theta rows, given their thetas, as lists of floats, one
    row at a time, in plain Python floats.

    Each cell runs the sum of `entanglement._entropies` in its order: a coefficient times
    its theta monomial, once a row, then times the phi monomial, added front to back from
    the first term, whose phi factor is 1.0. Unboosted, the amplitudes sit on three
    distinct spin basis states, so a purity is even in each, and the before sum keeps only
    the six monomials of even powers: the other nine coefficients are 0.0. So every cell
    has the bits of its point. The sums are spelled out term by term: a loop over the
    terms takes more than twice as long.
    """
    parts = float(len(partition.parts))
    before, after = quartics
    phi_monomials = [_monomial_factors(_phi_factors(phi))[1:] for phi in phis]

    def row(theta: float) -> list[float]:
        theta_monomials = _monomial_factors(_theta_factors(theta))
        b0, b2, b4, b9, b11, b14 = (before[k] * theta_monomials[k] for k in (0, 2, 4, 9, 11, 14))
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14 = map(
            mul, after, theta_monomials)
        return [
            (parts - (a0 + a1 * q1 + a2 * q2 + a3 * q3 + a4 * q4 + a5 * q5 + a6 * q6 + a7 * q7
                      + a8 * q8 + a9 * q9 + a10 * q10 + a11 * q11 + a12 * q12 + a13 * q13
                      + a14 * q14))
            - (parts - (b0 + b2 * q2 + b4 * q4 + b9 * q9 + b11 * q11 + b14 * q14))
            for q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12, q13, q14 in phi_monomials
        ]

    return lambda thetas: map(row, thetas)


def _blocks(family, alpha, omega, partition, thetas: list[float], phis: list[float]):
    """The surface's blocks of whole theta rows: the first row of each, and a function that
    evaluates the block from a first row as its rows, lists of len(phis) floats, at most
    _BLOCK_CELLS cells in all. The coefficient pass runs once, in this call, and every block
    is evaluated in plain floats (`_float_rows`), so every cell has the bits of its point.
    """
    quartics = _purity_quartics(family, alpha, (0.0, omega), partition)
    step = max(1, _BLOCK_CELLS // len(phis))
    rows = _float_rows(partition, quartics, phis)
    return range(0, len(thetas), step), lambda start: rows(thetas[start : start + step])


def delta_e_grid(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    thetas,
    phis,
):
    """Entanglement-change surface over a (theta, phi) grid, theta outer, as an (n, m)
    float64 array: the rows that a sweep's `writer` evaluates. Each axis is a nonempty
    1-D sequence of floats; any other raises ValueError."""
    import numpy as np

    axes = []
    for name, axis in (("thetas", thetas), ("phis", phis)):
        axis = np.asarray(axis, dtype=float)
        if axis.ndim != 1 or axis.size == 0:
            raise ValueError(f"{name} must be a nonempty 1-D axis, got shape {axis.shape}")
        axes.append(axis.tolist())
    starts, block = _blocks(family, alpha, omega, partition, *axes)
    surface = np.empty((len(axes[0]), len(axes[1])))
    for start in starts:
        for k, row in enumerate(block(start), start):
            surface[k] = row
    return surface


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
            send("".join(text(k, row) for k, row in enumerate(block(start), start)).encode())

    def write(stream: IO[str]) -> None:
        stream.write(head)
        receiving = nullcontext()
        # a surface of one block has no odd block, so it neither asks nor loads `worker`
        if odd:
            from .worker import forked, usable

            if usable(odd_cells):
                receiving = forked(job)
        # this process holds a block of rows and one piece of the worker's text; the
        # worker holds one block's text
        with receiving as receive:
            for n, start in enumerate(starts):
                local = receive is None or n % 2 == 0
                # the rows go to add_row in order, so this process evaluates a worker's
                # block too where there is one
                if local or add_row is not None:
                    for k, row in enumerate(block(start), start):
                        if add_row is not None:
                            add_row(row)
                        if local:
                            stream.write(text(k, row))
                if not local:
                    for piece in receive():
                        stream.write(piece.decode("ascii"))
        stream.write(tail)

    return write
