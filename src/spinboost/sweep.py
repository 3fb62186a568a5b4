"""Grid sweeps of the entanglement change over (theta, phi) and extrema reports.

The sweep ranges over one spin family at fixed momentum parameter alpha and
boost angle omega, evaluating the entanglement change for every grid cell.
Cells are independent pure evaluations with no cross-cell reductions, so
the emitted grid is deterministic and identical however the cells are
batched.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import IO, TYPE_CHECKING

import numpy as np

from .entanglement import Partition, _entropies
# COLLECT_TOL stays importable here for the callers that read a report beside its band
from .grid import COLLECT_TOL, DEFAULT_MERGE_RADIUS, GridSpec  # noqa: F401
from .states import SpinFamily, _phi_factors, _theta_factors

if TYPE_CHECKING:
    from .extrema import ExtremaReport

DEFAULT_THETA_GRID = GridSpec(0.0, math.pi, 121)
DEFAULT_PHI_GRID = GridSpec(0.0, 2 * math.pi, 241)


class SweepResult(
    namedtuple(
        "SweepResult",
        "thetas phis values family alpha omega partition_name theta_grid phi_grid",
        defaults=(None,) * 6,
    )
):
    """Dense grid of entanglement changes, row-major with theta outer.

    `thetas` (n,), `phis` (m,) and `values` (n, m) are arrays; the config
    fields (family, alpha, omega, partition name and the two GridSpecs) are
    None unless the surface came from `run_sweep`.
    """

    __slots__ = ()


def delta_e_grid(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    thetas: np.ndarray,
    phis: np.ndarray,
) -> np.ndarray:
    """Entanglement-change surface over a (theta, phi) grid, theta outer.

    The grid runs the sum of `entanglement.delta_e` on the axes' amplitude
    factors as arrays, theta's shaped (n, 1) and phi's (m,), so every cell
    has the bits of its point. The factors come from `math`, as a point's
    do, not from numpy's own sine and cosine.
    """
    def table(factors, points) -> np.ndarray:
        rows = [factors(point) for point in np.asarray(points, dtype=float).tolist()]
        return np.array(rows).reshape(-1, 3).T

    theta_table = table(_theta_factors, thetas)[:, :, None]
    before, after = _entropies(
        family, alpha, omega, partition, theta_table, table(_phi_factors, phis)
    )
    after -= before
    return after


def run_sweep(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    theta_grid: GridSpec,
    phi_grid: GridSpec,
) -> SweepResult:
    thetas = np.asarray(theta_grid.points)
    phis = np.asarray(phi_grid.points)
    values = delta_e_grid(family, alpha, omega, partition, thetas, phis)
    return SweepResult(
        thetas=thetas,
        phis=phis,
        values=values,
        family=family,
        alpha=alpha,
        omega=omega,
        partition_name=partition.name,
        theta_grid=theta_grid,
        phi_grid=phi_grid,
    )


def find_extrema(result: SweepResult, merge_radius: float = DEFAULT_MERGE_RADIUS) -> ExtremaReport:
    """The extrema report of an in-memory surface, through the collector that
    `spinboost extrema` streams a file's rows into."""
    from .extrema import HitCollector

    hits = HitCollector()
    for row in result.values.tolist():
        hits.add(row)
    return hits.report(result.thetas.tolist(), result.phis.tolist(), merge_radius)


def write_csv(result: SweepResult, stream: IO[str]) -> None:
    """Emit the grid as CSV with header theta,phi,delta_e, theta outer."""
    stream.write("theta,phi,delta_e\n")
    # each coordinate is formatted once; each theta row is one %-template,
    # the theta string joining the pre-formatted phi cells, and one write
    phi_cells = ["", *(f",{phi:.17g},%.17g\n" for phi in result.phis.tolist())]
    for theta, row in zip(result.thetas.tolist(), result.values):
        stream.write(f"{theta:.17g}".join(phi_cells) % tuple(row.tolist()))


def write_json(result: SweepResult, stream: IO[str]) -> None:
    """Emit the grid as a JSON envelope: config metadata, shape, flat values."""
    import json

    def grid_dict(grid: GridSpec | None, points: np.ndarray) -> dict:
        if grid is not None:
            return {"start": grid.start, "stop": grid.stop, "count": grid.count}
        return {"start": float(points[0]), "stop": float(points[-1]), "count": int(points.size)}

    envelope = {
        "config": {
            "family": result.family.value if result.family else None,
            "alpha": result.alpha,
            "omega": result.omega,
            "partition": result.partition_name,
            "theta_grid": grid_dict(result.theta_grid, result.thetas),
            "phi_grid": grid_dict(result.phi_grid, result.phis),
        },
        "shape": [int(result.values.shape[0]), int(result.values.shape[1])],
        "values": [],
    }
    # the bytes of json.dump(envelope, indent=2) with the values filled in:
    # the head is the envelope up to its empty list, and each theta row of
    # values is one call of the C encoder with the separator indent=2 puts
    # between the items of a list at that depth
    head = json.dumps(envelope, indent=2)
    stream.write(head[: -len("]\n}")] + "\n    ")
    separator = ",\n    "
    for k, row in enumerate(result.values):
        if k:
            stream.write(separator)
        stream.write(json.dumps(row.tolist(), separators=(separator, ": "))[1:-1])
    stream.write("\n  ]\n}\n")
