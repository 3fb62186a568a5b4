"""Grid sweeps of the entanglement change over (theta, phi) and extrema reports.

The sweep ranges over one spin family at fixed momentum parameter alpha and
boost angle omega, evaluating the entanglement change for every grid cell.
Cells are independent pure evaluations with no cross-cell reductions, so
the emitted grid is deterministic and identical however the cells are
batched.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import IO

import numpy as np

from .entanglement import Partition, _entropies
from .states import SpinFamily, _phi_factors, _theta_factors

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
        thetas, phis = result.thetas[hits[:, 0]], result.phis[hits[:, 1]]
        cells = values[hits[:, 0], hits[:, 1]]
        # one stable sort groups the labels, best value then smaller (theta, phi)
        # first, so each group's first row is its representative
        order = np.lexsort((phis, thetas, -sign * cells, labels))
        grouped = labels[order]
        reps = order[np.concatenate([[True], grouped[1:] != grouped[:-1]])]
        reps = reps[np.lexsort((phis[reps], thetas[reps]))]
        return tuple(zip(thetas[reps].tolist(), phis[reps].tolist(), cells[reps].tolist()))

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


# lines per np.loadtxt call in read_csv; a block's lines and records are the
# reader's only per-line memory, so the block stays a small constant
_CSV_BLOCK_ROWS = 8192
# bytes kept of each coordinate text; a text that fills them may have been cut
_TEXT_WIDTH = 32
_CSV_ROW = np.dtype([("theta", f"S{_TEXT_WIDTH}"), ("phi", f"S{_TEXT_WIDTH}"), ("value", "f8")])


def _loadtxt(lines: list, dtype: np.dtype | type = float) -> np.ndarray:
    """CSV lines as np.loadtxt reads them: a float table, or one record per row of _CSV_ROW."""
    with warnings.catch_warnings():
        # lines that are all blank read as empty; read_csv rejects a file without rows
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            lines, dtype=dtype, delimiter=",", comments=None, ndmin=2 if dtype is float else 1
        )


class _CsvBlock:
    """One block of CSV rows: the values, the coordinate texts, and their numbers on demand.

    A block holding a text that fills _TEXT_WIDTH compares no text: its
    numbers come from the float table of its full lines.
    """

    def __init__(self, lines: list[str]) -> None:
        try:
            self.rows = _loadtxt(lines, _CSV_ROW)
        except ValueError:
            # the float table raises what the text cannot be read as; rows
            # that it does read have the wrong number of columns
            width = _loadtxt(lines).shape[1]
            raise ValueError(f"CSV rows have {width} columns, expected 3") from None
        self.table = None
        if any((np.char.str_len(self.rows[name]) == _TEXT_WIDTH).any() for name in ("theta", "phi")):
            self.table = _loadtxt(lines)

    def numbers(self, name: str, cells: np.ndarray) -> np.ndarray:
        """The coordinate `name` of the given cells, each distinct text parsed once."""
        if self.table is not None:
            return self.table[cells, ("theta", "phi").index(name)]
        if cells.size == 0:
            return np.empty(0)
        texts, inverse = np.unique(self.rows[name][cells], return_inverse=True)
        numbers = _loadtxt(texts.tolist())
        if numbers.shape != (texts.size, 1):
            raise ValueError("CSV coordinates must be numbers")
        return numbers[inverse.ravel(), 0]

    def off(self, name: str, cells: np.ndarray, texts: np.ndarray, numbers: np.ndarray) -> bool:
        """Whether any of the cells differs from its reference text's number."""
        if self.table is None:
            differ = self.rows[name][cells] != texts
            cells, numbers = cells[differ], numbers[differ]
        return bool((self.numbers(name, cells) != numbers).any())


def read_csv(stream: IO[str]) -> SweepResult:
    """Rebuild a SweepResult from CSV; grid values round-trip exactly.

    Every data row must hold three numbers; empty lines are skipped. Any
    other text, a `#` included, is a ValueError. The rows are parsed in
    blocks of _CSV_BLOCK_ROWS, and each cell keeps only its value. Its
    theta text is checked against the cell before it and its phi text
    against the first row's; only a text that differs, and the first
    row's phis, are parsed as numbers.
    """
    header = stream.readline().strip()
    if header != "theta,phi,delta_e":
        raise ValueError(f"unexpected CSV header {header!r}")
    values, thetas, phi_texts, phis = [], [], [], []
    cells, n_phi, on_grid = 0, None, True
    while lines := list(itertools.islice(stream, _CSV_BLOCK_ROWS)):
        block = _CsvBlock(lines)
        size = block.rows.size
        if size == 0:
            continue
        values.append(block.rows["value"].copy())
        local = np.arange(size)
        theta_texts = block.rows["theta"]
        if cells == 0:
            last_text, last_number = theta_texts[:1], block.numbers("theta", local[:1])
            thetas.append(last_number[0])
        # a row starts where theta changes from the cell before; a cell whose
        # text repeats the one before has its number, the last changed cell's
        changed = theta_texts != np.concatenate([last_text, theta_texts[:-1]])
        if block.table is not None:
            # compare by number alone; the file's first cell begins the first row
            changed[int(cells == 0) :] = True
        moved = local[changed]
        now = block.numbers("theta", moved)
        starts = np.concatenate([last_number, now[:-1]]) != now
        thetas += now[starts].tolist()
        starts = cells + moved[starts]
        if starts.size:
            # the first theta change ends the first row
            n_phi = n_phi or int(starts[0])
            on_grid &= not (starts % n_phi).any()
        last_text, last_number = theta_texts[-1:], now[-1:] if now.size else last_number
        # the first row's phis are the references of every later row
        first = local[: size if n_phi is None else max(n_phi - cells, 0)]
        phi_texts.append(block.rows["phi"][first])
        phis.append(block.numbers("phi", first))
        rest = local[first.size :]
        if rest.size:
            column = (cells + rest) % n_phi
            refs = np.concatenate(phi_texts)[column], np.concatenate(phis)[column]
            on_grid &= not block.off("phi", rest, *refs)
        cells += size
    if cells == 0:
        raise ValueError("CSV contains no data rows")
    # theta never changes: one row
    n_phi = n_phi or cells
    n_theta, rem = divmod(cells, n_phi)
    if rem != 0:
        raise ValueError("CSV rows do not form a rectangular grid")
    grid_thetas, grid_phis = np.array(thetas), np.concatenate(phis)
    if not (np.isfinite(grid_thetas).all() and np.isfinite(grid_phis).all()):
        raise ValueError("CSV grid coordinates must be finite")
    if (
        n_theta < 2
        or n_phi < 2
        or not on_grid
        # a row whose theta repeats the row before starts with no change
        or grid_thetas.size != n_theta
        or np.unique(grid_thetas).size != n_theta
        or np.unique(grid_phis).size != n_phi
    ):
        raise ValueError("CSV rows do not form a theta x phi grid with theta outer")
    return SweepResult(
        thetas=grid_thetas,
        phis=grid_phis,
        values=np.concatenate(values).reshape(n_theta, n_phi),
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
        raw = envelope["values"]
        # a string or an object would be iterated as characters or keys
        if type(raw) is not list:
            kinds = {str: "a string", dict: "an object", bool: "a boolean", type(None): "null"}
            raise ValueError(
                f"JSON sweep values must be an array, got {kinds.get(type(raw), 'a number')}"
            )
        # numpy would convert "0.5", true and null to floats; a cell must be a JSON number
        if not set(map(type, raw)) <= {float, int}:
            bad = [json.dumps(value)[:20] for value in raw if type(value) not in (float, int)]
            raise ValueError(
                f"JSON sweep values must be numbers, got {len(bad)} that are not: "
                + ", ".join(bad[:3])
            )
        values = np.array(raw, dtype=float)
        # the counts must match the stored values before any grid is built,
        # so a count the file does not back allocates nothing
        if shape != (tg.count, pg.count) or values.shape != (tg.count * pg.count,):
            raise ValueError(
                f"JSON sweep shape {list(shape)} with {values.size} values does not match "
                f"the {tg.count} x {pg.count} grid"
            )
        thetas, phis = tg.points, pg.points
    except (KeyError, TypeError, OverflowError) as exc:
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
