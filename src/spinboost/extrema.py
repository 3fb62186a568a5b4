"""Extrema reports of a stored sweep surface, in one pass and with the standard library only.

A reader checks a CSV or JSON surface's structure and hands its values to a
sink one theta row at a time; `HitCollector` keeps the running max and min
and only the cells within COLLECT_TOL of them, so `spinboost extrema` never
holds the dense surface and never loads numpy.
"""

from __future__ import annotations

import itertools
import marshal
import math
import os
import re
import stat
from collections import namedtuple
from typing import IO, Callable, Iterator

# DEFAULT_MERGE_RADIUS is read here by the CLI when `extrema` runs
from .grid import COLLECT_TOL, DEFAULT_MERGE_RADIUS, GridSpec  # noqa: F401


class ExtremaReport(
    namedtuple("ExtremaReport", "maxima minima merge_radius flat", defaults=(False,))
):
    """Clustered global extrema of a sweep surface.

    Grid points within COLLECT_TOL of the global extreme value are clustered
    by index distance; each cluster is reported through one representative
    point. A surface whose full range is below the collection tolerance is
    flagged flat and carries no extrema entries (every point would qualify
    as both). `maxima` and `minima` are tuples of (theta, phi, value).
    """

    __slots__ = ()


def _cluster(cells: list[tuple[int, int]], radius: float) -> list[int]:
    """Single-linkage labels of (row, column) cells linked within `radius` steps: each
    cell's label is the index of the first cell of its cluster.

    The cells go into square buckets of side k + 1 with 2 k^2 <= radius^2, so the
    cells of one bucket are linked; union-find joins two buckets when any of their
    cells are, and compares only buckets near enough to hold a linked pair.
    """
    r2 = radius * radius
    if r2 == math.inf:
        return [0] * len(cells)
    side = math.isqrt(int(r2 / 2)) + 1
    # the most buckets apart that a linked pair can lie along an axis
    span = -(-math.isqrt(int(r2)) // side)
    # the neighbouring buckets first, so a farther pair is compared only if no chain joined it
    near = sorted(
        ((di, dj) for di in range(span + 1) for dj in range(-span, span + 1) if (di, dj) > (0, 0)),
        key=lambda offset: max(map(abs, offset)),
    )
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j in cells:
        buckets.setdefault((i // side, j // side), []).append((i, j))
    parent = {key: key for key in buckets}

    def root(key: tuple[int, int]) -> tuple[int, int]:
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    for di, dj in near:
        for (bi, bj), members in buckets.items():
            others = buckets.get((bi + di, bj + dj))
            if others is None:
                continue
            a, b = root((bi, bj)), root((bi + di, bj + dj))
            if a != b and any(
                (i - k) ** 2 + (j - l) ** 2 <= r2 for i, j in members for k, l in others
            ):
                parent[b] = a
    first: dict[tuple[int, int], int] = {}
    return [first.setdefault(root((i // side, j // side)), n) for n, (i, j) in enumerate(cells)]


class HitCollector:
    """The running max and min of a surface fed one theta row at a time, and the cells
    within COLLECT_TOL of each.

    A row's max() and min() run in C; only a row that reaches a band is scanned
    cell by cell, and a hit leaves its band when the extreme moves past it, so
    the memory is in the hits, not the cells.
    """

    def __init__(self) -> None:
        self.rows = self.cells = 0
        self.finite = True
        self.top, self.bottom = -math.inf, math.inf
        self.maxima: list[tuple[int, int, float]] = []
        self.minima: list[tuple[int, int, float]] = []

    def add(self, row: list[float]) -> None:
        i = self.rows
        self.rows += 1
        self.cells += len(row)
        # a sum of finite cells is finite unless it overflows
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            self.finite = False
            return
        hi, lo = max(row), min(row)
        if hi > self.top:
            self.top = hi
            self.maxima = [hit for hit in self.maxima if hi - hit[2] < COLLECT_TOL]
        if lo < self.bottom:
            self.bottom = lo
            self.minima = [hit for hit in self.minima if hit[2] - lo < COLLECT_TOL]
        top, bottom = self.top, self.bottom
        if top - hi < COLLECT_TOL:
            self.maxima += [(i, j, v) for j, v in enumerate(row) if top - v < COLLECT_TOL]
        if lo - bottom < COLLECT_TOL:
            self.minima += [(i, j, v) for j, v in enumerate(row) if v - bottom < COLLECT_TOL]

    def merge(self, other: HitCollector) -> None:
        """Take in `other`, a collector fed the rows that follow this one's: this one then
        holds what one collector fed every row of both, in order, would hold."""
        top, bottom = max(self.top, other.top), min(self.bottom, other.bottom)
        # a hit stays while it is within COLLECT_TOL of the extreme of every row so far
        self.maxima = [hit for hit in self.maxima if top - hit[2] < COLLECT_TOL] + [
            (i + self.rows, j, v) for i, j, v in other.maxima if top - v < COLLECT_TOL
        ]
        self.minima = [hit for hit in self.minima if hit[2] - bottom < COLLECT_TOL] + [
            (i + self.rows, j, v) for i, j, v in other.minima if v - bottom < COLLECT_TOL
        ]
        self.top, self.bottom = top, bottom
        self.rows += other.rows
        self.cells += other.cells
        self.finite = self.finite and other.finite

    def report(self, thetas: list[float], phis: list[float], merge_radius: float) -> ExtremaReport:
        """Cluster the hits within merge_radius grid steps, nonnegative and possibly infinite
        (one cluster per extreme). Representatives are the best-valued point of each
        cluster, ties broken toward smaller (theta, phi); output is ordered by
        (theta, phi) ascending.
        """
        if not merge_radius >= 0.0:
            raise ValueError(f"merge radius must be nonnegative, got {merge_radius}")
        if self.cells == 0:
            raise ValueError("empty sweep grid")
        if not self.finite:
            raise ValueError("sweep surface contains non-finite values")
        if self.top - self.bottom < COLLECT_TOL:
            return ExtremaReport(maxima=(), minima=(), merge_radius=merge_radius, flat=True)

        def representatives(hits: list[tuple[int, int, float]], sign: float):
            best: dict[int, tuple[float, float, float]] = {}
            for label, (i, j, value) in zip(_cluster([hit[:2] for hit in hits], merge_radius), hits):
                key = (-sign * value, thetas[i], phis[j])
                best[label] = min(best.get(label, key), key)
            # clusters in the order of their first hits, then one stable sort
            cells = ((theta, phi, -sign * key) for key, theta, phi in best.values())
            return tuple(sorted(cells, key=lambda cell: cell[:2]))

        maxima, minima = representatives(self.maxima, 1.0), representatives(self.minima, -1.0)
        return ExtremaReport(maxima=maxima, minima=minima, merge_radius=merge_radius, flat=False)


# characters of text read per chunk from a CSV file; a chunk's fields and the cells of a
# row not yet handed over are the reader's only memory besides the axes and the hits
_CSV_CHUNK = 1 << 18
# bytes from the middle of a CSV file on that are searched for the start of a theta row
_SEAM_WINDOW = 1 << 20
# the first bytes of that window, read first to estimate the cells of the file's later half
_SEAM_PROBE = 1 << 16
# np.loadtxt ends a line at '\r' and strips \x1c-\x1f around a number, float() neither
_CSV_SPACE = str.maketrans("\r\x1c\x1d\x1e\x1f", "\n    ")


def read(path) -> tuple[list[float], list[float], HitCollector]:
    """A stored surface's axes and a collector fed its every theta row: JSON if the file's
    first non-blank character is `{`, else CSV.

    The file is opened once and read front to back, so `path` may name a FIFO
    or a pipe such as /dev/stdin. Where a regular CSV file's read in two
    processes (_read_in_halves) fails, the read in one goes on from the same
    handle. It may fork, so it is for a caller that knows its threads, as the CLI.
    """
    hits = HitCollector()
    with open(path, encoding="utf-8") as handle:
        # the blank lines, then the first that is not; "" is the end of the file
        lines = [handle.readline()]
        while lines[-1].isspace():
            lines.append(handle.readline())
        if lines[-1].lstrip().startswith("{"):
            thetas, phis = _read_json("".join(lines) + handle.read(), hits.add)
        elif (halves := _read_in_halves(path, handle, lines[0])) is not None:
            return halves
        else:
            thetas, phis = _read_csv(lines[0], _csv_texts(handle), hits.add)
    return thetas, phis, hits


def _numbers(texts: list[str]) -> list[float]:
    try:
        return list(map(float, texts))
    except ValueError:
        for text in texts:
            try:
                float(text)
            except ValueError:
                raise ValueError(f"CSV cell {text.strip()!r} is not a number") from None


def _csv_texts(stream: IO[str], size: float = math.inf) -> Iterator[str]:
    """The rest of the stream, or its next `size` characters, in chunks of whole lines."""
    tail = ""
    while chunk := stream.read(min(_CSV_CHUNK, size)):
        size -= len(chunk)
        tail += chunk
        if "\n" in chunk:
            text, _, tail = tail.rpartition("\n")
            yield text
    yield tail


def _read_csv(header: str, chunks: Iterator[str], add_row) -> tuple[list[float], list[float]]:
    """Hand a CSV surface's values to add_row one theta row at a time; return its axes.

    `header` is the file's first line and `chunks` the rest in chunks of whole
    lines. Every data row must hold three numbers as np.loadtxt reads them;
    empty lines are skipped. Any other text, a `#`, a `_` or a non-ASCII
    character included, is a ValueError. A cell's theta text is checked
    against the cell before it and its phi text against the first row's;
    only a text that differs, and the first row's phis, are parsed as
    numbers. The checks that need the whole grid (rectangular, finite
    coordinates, theta outer, distinct axis points) raise after the last row
    is handed over, so a caller reports nothing until this returns.
    """
    header = header.strip()
    if header != "theta,phi,delta_e":
        raise ValueError(f"unexpected CSV header {header!r}")
    cells, n_phi, on_grid = 0, None, True
    # the theta of each row start, and the last cell's theta text and number
    thetas, last_text, last_theta = [], None, math.nan
    # the first row's phis, the references of every later row's
    phi_texts, phis = None, []
    # the cells not yet handed over in a full row
    pending_phis, pending_values = [], []
    for text in chunks:
        # float() reads '_' between digits and non-ASCII digits, np.loadtxt neither
        if "_" in text or not text.isascii():
            bad = next(cell for cell in re.split("[,\n]", text) if "_" in cell or not cell.isascii())
            raise ValueError(f"CSV cell {bad.strip()!r} is not a number")
        if any(char in text for char in "\r\x1c\x1d\x1e\x1f"):
            text = text.translate(_CSV_SPACE)
        if "\n\n" in text or text.startswith("\n") or text.endswith("\n"):
            # empty lines are skipped
            text = "\n".join(filter(None, text.split("\n")))
        if not text:
            continue
        lines = text.count("\n") + 1
        # each newline ends a value field, so every line has three fields when the
        # fields number three a line and the value fields hold every newline
        fields = text.replace("\n", "\n,").split(",")
        if len(fields) != 3 * lines or "".join(fields[2::3]).count("\n") != lines - 1:
            width = next(n for n in (line.count(",") + 1 for line in text.split("\n")) if n != 3)
            raise ValueError(f"CSV rows have {width} columns, expected 3")
        pending_values += _numbers(fields[2::3])
        pending_phis += fields[1::3]
        # a row starts where theta changes in number from the cell before
        for theta_text, run in itertools.groupby(fields[0::3]):
            if theta_text != last_text:
                number = _numbers([theta_text])[0]
                if cells == 0 or number != last_theta:
                    if cells:
                        # the first theta change ends the first row
                        n_phi = n_phi or cells
                        on_grid &= cells % n_phi == 0
                    thetas.append(number)
                last_text, last_theta = theta_text, number
            cells += len(list(run))
        if n_phi is None:
            continue
        if phi_texts is None:
            phi_texts, phis = pending_phis[:n_phi], _numbers(pending_phis[:n_phi])
        done = len(pending_values) // n_phi * n_phi
        for k in range(0, done, n_phi):
            texts = pending_phis[k : k + n_phi]
            # a phi whose text differs from its reference is compared by number
            on_grid &= texts == phi_texts or _numbers(texts) == phis
            add_row(pending_values[k : k + n_phi])
        del pending_phis[:done], pending_values[:done]
    if cells == 0:
        raise ValueError("CSV contains no data rows")
    if n_phi is None:
        # theta never changes: one row
        n_phi, phis = cells, _numbers(pending_phis)
    n_theta, rem = divmod(cells, n_phi)
    if rem != 0:
        raise ValueError("CSV rows do not form a rectangular grid")
    if not all(map(math.isfinite, thetas + phis)):
        raise ValueError("CSV grid coordinates must be finite")
    if (
        n_theta < 2
        or n_phi < 2
        or not on_grid
        # a row whose theta repeats the row before starts with no change
        or len(thetas) != n_theta
        or len(set(thetas)) != n_theta
        or len(set(phis)) != n_phi
    ):
        raise ValueError("CSV rows do not form a theta x phi grid with theta outer")
    return thetas, phis


def _seam(window: bytes) -> int | None:
    """The offset in `window`, bytes from within a CSV file's body, of the first line after
    the one the window starts in whose theta differs in number from the line's before it;
    None where no such line ends in the window, or a theta before it is not a number."""
    # the rest of the line that the window starts in
    offset = window.find(b"\n") + 1
    last = None
    while (end := window.find(b"\n", offset)) >= 0:
        line = window[offset:end]
        # empty lines are skipped
        if line.strip(b"\r"):
            try:
                theta = float(line.split(b",", 1)[0])
            except ValueError:
                return None
            if last is not None and theta != last:
                return offset
            last = theta
        offset = end + 1
    return None


def _read_in_halves(path, handle: IO[str], header: str):
    """The axes and a collector fed every row of the CSV file of `handle`, past its first
    line `header`, read in two halves at once, each through a handle of its own: this
    process reads the rows before a theta row near the middle, a forked worker the rest.

    None, with `handle` unmoved, where the file is not a regular one,
    `worker.usable` does not hold for the cells of the worker's half, either
    half fails, or the halves do not join into one grid (a different phi
    axis, or a theta in both).
    """
    from .worker import forked, usable

    fd, info = handle.fileno(), os.fstat(handle.fileno())
    # a FIFO, a pipe or a device has no middle to read from
    if not (hasattr(os, "pread") and stat.S_ISREG(info.st_mode)):
        return None
    size = info.st_size
    middle = max(size // 2, len(header))
    window = os.pread(fd, _SEAM_PROBE, middle)
    # the worker's half has about as many cells, one a line, as lines of the probe's length
    if not usable((size - middle) * window.count(b"\n") // max(len(window), 1)):
        return None
    if (offset := _seam(os.pread(fd, _SEAM_WINDOW, middle))) is None:
        return None
    seam = middle + offset

    def job(send) -> None:
        later = HitCollector()
        with open(path, encoding="utf-8") as rest:
            rest.buffer.seek(seam)
            axes = _read_csv(header, _csv_texts(rest), later.add)
        send(marshal.dumps((axes, vars(later))))

    hits = HitCollector()
    try:
        # newline="" leaves each "\r" in the text, so this half's characters are its bytes
        # up to the seam, or one is not ASCII and the half fails
        with forked(job) as receive, open(path, encoding="utf-8", newline="") as first:
            left = seam - len(first.readline())
            thetas, phis = _read_csv(header, _csv_texts(first, left), hits.add)
            (later_thetas, later_phis), state = marshal.loads(b"".join(receive()))
    except (OSError, ValueError, MemoryError):
        return None
    if later_phis != phis or not set(thetas).isdisjoint(later_thetas):
        return None
    later = HitCollector()
    vars(later).update(state)
    hits.merge(later)
    return thetas + later_thetas, phis, hits


def _read_json(text: str, add_row: Callable[[list[float]], None]) -> tuple[list[float], list[float]]:
    """Hand the values of a JSON envelope, the text of a whole file, to add_row one theta row
    at a time, after checking its keys, value types and shape; return its axes."""
    import json

    envelope = json.loads(text)
    del text  # freed before the rows and their hits come, as json.load freed it
    try:
        config = envelope["config"]
        tg = GridSpec(**config["theta_grid"])
        pg = GridSpec(**config["phi_grid"])
        shape = tuple(envelope["shape"])
        values = envelope["values"]
        # a string or an object would be iterated as characters or keys
        if type(values) is not list:
            kinds = {str: "a string", dict: "an object", bool: "a boolean", type(None): "null"}
            raise ValueError(
                f"JSON sweep values must be an array, got {kinds.get(type(values), 'a number')}"
            )
        # a cell must be a JSON number, not "0.5", true or null
        types = set(map(type, values))
        if not types <= {float, int}:
            bad = [json.dumps(value)[:20] for value in values if type(value) not in (float, int)]
            raise ValueError(
                f"JSON sweep values must be numbers, got {len(bad)} that are not: "
                + ", ".join(bad[:3])
            )
        if int in types:
            # integer cells read as floats; one too large for a float is malformed
            values = list(map(float, values))
        # the counts must match the stored values before any grid is built,
        # so a count the file does not back allocates nothing
        if shape != (tg.count, pg.count) or len(values) != tg.count * pg.count:
            raise ValueError(
                f"JSON sweep shape {list(shape)} with {len(values)} values does not match "
                f"the {tg.count} x {pg.count} grid"
            )
        thetas, phis = tg.points, pg.points
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed JSON sweep envelope ({type(exc).__name__}: {exc})") from None
    for k in range(0, len(values), pg.count):
        add_row(values[k : k + pg.count])
    return thetas, phis
