"""Grid sweeps of the entanglement change over (theta, phi) and extrema reports.

The sweep ranges over one spin family at fixed momentum parameter alpha and
boost angle omega, evaluating the entanglement change for every grid cell.
Cells are independent pure evaluations with no cross-cell reductions, so
the emitted grid is deterministic and identical however the cells are
batched.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .entanglement import Partition, family_entropies
from .states import SpinFamily

COLLECT_TOL = 1e-9
DEFAULT_MERGE_RADIUS = 3.0


@dataclass(frozen=True)
class GridSpec:
    """Inclusive linspace specification for one sweep axis."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("grid endpoints must be finite")
        if not math.isfinite(self.stop - self.start):
            raise ValueError("grid span stop - start must be finite")
        if self.start == self.stop:
            raise ValueError("grid endpoints must differ")
        if self.count < 2:
            raise ValueError("grid count must be at least 2")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


DEFAULT_THETA_GRID = GridSpec(0.0, math.pi, 121)
DEFAULT_PHI_GRID = GridSpec(0.0, 2 * math.pi, 241)


@dataclass(frozen=True)
class SweepResult:
    """Dense grid of entanglement changes, row-major with theta outer."""

    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray
    family: SpinFamily | None = None
    alpha: float | None = None
    omega: float | None = None
    partition_name: str | None = None
    theta_grid: GridSpec | None = None
    phi_grid: GridSpec | None = None


def delta_e_grid(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    thetas: np.ndarray,
    phis: np.ndarray,
) -> np.ndarray:
    """Entanglement-change surface over a (theta, phi) grid, theta outer."""
    before, after = family_entropies(
        family, alpha, omega, partition, np.repeat(thetas, phis.size), np.tile(phis, thetas.size)
    )
    after -= before
    return after.reshape(thetas.size, phis.size)


def run_sweep(
    family: SpinFamily,
    alpha: float,
    omega: float,
    partition: Partition,
    theta_grid: GridSpec,
    phi_grid: GridSpec,
) -> SweepResult:
    thetas = theta_grid.points
    phis = phi_grid.points
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


@dataclass(frozen=True)
class ExtremaReport:
    """Clustered global extrema of a sweep surface.

    Grid points within COLLECT_TOL of the global extreme value are clustered
    by index distance; each cluster is reported through one representative
    point. A surface whose full range is below the collection tolerance is
    flagged flat and carries no extrema entries (every point would qualify
    as both).
    """

    maxima: tuple[tuple[float, float, float], ...]
    minima: tuple[tuple[float, float, float], ...]
    merge_radius: float
    flat: bool = False


def _cluster(hits: np.ndarray, radius: float) -> np.ndarray:
    """Single-linkage labels of row-sorted (n, 2) grid indices, linked within radius steps.

    Each cluster grows from its first unlabelled hit by frontier steps that
    claim every unlabelled hit within the radius of the last claimed ones,
    so chains of close hits share a label however long they are. A step
    only looks at the hits in rows within the radius of the frontier.
    """
    labels = np.full(len(hits), -1)
    rows = hits[:, 0]
    r2 = radius * radius
    for seed in range(len(hits)):
        if labels[seed] >= 0:
            continue
        labels[seed] = seed
        frontier = hits[seed : seed + 1]
        while frontier.size:
            lo = np.searchsorted(rows, frontier[:, 0].min() - radius, side="left")
            hi = np.searchsorted(rows, frontier[:, 0].max() + radius, side="right")
            free = lo + np.flatnonzero(labels[lo:hi] < 0)
            d2 = ((hits[free, None, :] - frontier[None, :, :]) ** 2).sum(axis=2)
            linked = free[(d2 <= r2).any(axis=1)]
            labels[linked] = seed
            frontier = hits[linked]
    return labels


def find_extrema(result: SweepResult, merge_radius: float = DEFAULT_MERGE_RADIUS) -> ExtremaReport:
    """Collect and cluster the global maxima and minima of a sweep surface.

    merge_radius is measured in grid steps, nonnegative and possibly
    infinite (one cluster per extreme). Representatives are the
    best-valued point of each cluster, ties broken toward smaller
    (theta, phi); output is ordered by (theta, phi) ascending.
    """
    if not merge_radius >= 0.0:
        raise ValueError(f"merge radius must be nonnegative, got {merge_radius}")
    values = result.values
    if values.size == 0:
        raise ValueError("empty sweep grid")
    if not np.isfinite(values).all():
        raise ValueError("sweep surface contains non-finite values")
    vmax = float(values.max())
    vmin = float(values.min())
    if vmax - vmin < COLLECT_TOL:
        return ExtremaReport(maxima=(), minima=(), merge_radius=merge_radius, flat=True)

    def collect(target: float, sign: float) -> tuple[tuple[float, float, float], ...]:
        hits = np.argwhere(sign * (target - values) < COLLECT_TOL)
        labels = _cluster(hits, merge_radius)
        reps = []
        for label in np.unique(labels):
            best = min(
                map(tuple, hits[labels == label]),
                key=lambda ij: (-sign * values[ij], result.thetas[ij[0]], result.phis[ij[1]]),
            )
            reps.append(
                (float(result.thetas[best[0]]), float(result.phis[best[1]]), float(values[best]))
            )
        return tuple(sorted(reps, key=lambda rec: (rec[0], rec[1])))

    return ExtremaReport(
        maxima=collect(vmax, 1.0),
        minima=collect(vmin, -1.0),
        merge_radius=merge_radius,
        flat=False,
    )


def write_csv(result: SweepResult, stream: IO[str]) -> None:
    """Emit the grid as CSV with header theta,phi,delta_e, theta outer."""
    stream.write("theta,phi,delta_e\n")
    # each coordinate is formatted once; each theta row is one %-template,
    # the theta string joining the pre-formatted phi cells, and one write
    phi_cells = ["", *(f",{phi:.17g},%.17g\n" for phi in result.phis.tolist())]
    for theta, row in zip(result.thetas.tolist(), result.values):
        stream.write(f"{theta:.17g}".join(phi_cells) % tuple(row.tolist()))


def read_csv(stream: IO[str]) -> SweepResult:
    """Rebuild a SweepResult from CSV; grid values round-trip exactly.

    Every data row must hold three numbers; empty lines are skipped. Any
    other text, a `#` included, is a ValueError.
    """
    header = stream.readline().strip()
    if header != "theta,phi,delta_e":
        raise ValueError(f"unexpected CSV header {header!r}")
    with warnings.catch_warnings():
        # header-only input is rejected below instead of warned about
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
    if data.size == 0:
        raise ValueError("CSV contains no data rows")
    if data.shape[1] != 3:
        raise ValueError(f"CSV rows have {data.shape[1]} columns, expected 3")
    # views of the parsed table; only the values and the two grids are copied out
    thetas, phis, values = data.T
    # the first theta change ends the first row; argmax is 0 if theta never changes
    n_phi = int(np.argmax(thetas != thetas[0])) or thetas.size
    n_theta, rem = divmod(values.size, n_phi)
    if rem != 0:
        raise ValueError("CSV rows do not form a rectangular grid")
    theta_cells = thetas.reshape(n_theta, n_phi)
    phi_cells = phis.reshape(n_theta, n_phi)
    grid_thetas, grid_phis = theta_cells[:, 0], phi_cells[0]
    if (
        n_theta < 2
        or n_phi < 2
        or not (theta_cells == grid_thetas[:, None]).all()
        or not (phi_cells == grid_phis).all()
        or np.unique(grid_thetas).size != n_theta
        or np.unique(grid_phis).size != n_phi
    ):
        raise ValueError("CSV rows do not form a theta x phi grid with theta outer")
    return SweepResult(
        thetas=grid_thetas.copy(),
        phis=grid_phis.copy(),
        values=values.reshape(n_theta, n_phi).copy(),
    )


def write_json(result: SweepResult, stream: IO[str]) -> None:
    """Emit the grid as a JSON envelope: config metadata, shape, flat values."""
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


def read_json(stream: IO[str]) -> SweepResult:
    """Rebuild a SweepResult from a JSON envelope, checking its keys and shape."""
    envelope = json.load(stream)
    try:
        config = envelope["config"]
        tg = GridSpec(**config["theta_grid"])
        pg = GridSpec(**config["phi_grid"])
        shape = tuple(envelope["shape"])
        values = np.array(envelope["values"], dtype=float)
        # the counts must match the stored values before any grid is built,
        # so a count the file does not back allocates nothing
        if shape != (tg.count, pg.count) or values.shape != (tg.count * pg.count,):
            raise ValueError(
                f"JSON sweep shape {list(shape)} with {values.size} values does not match "
                f"the {tg.count} x {pg.count} grid"
            )
        thetas, phis = tg.points, pg.points
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed JSON sweep envelope ({type(exc).__name__}: {exc})") from None
    values = values.reshape(shape)
    family = SpinFamily(config["family"]) if config.get("family") else None
    return SweepResult(
        thetas=thetas,
        phis=phis,
        values=values,
        family=family,
        alpha=config.get("alpha"),
        omega=config.get("omega"),
        partition_name=config.get("partition"),
        theta_grid=tg,
        phi_grid=pg,
    )
