"""Extrema reports of a surface fed one theta row at a time, with the standard library only:
`HitCollector` keeps the running max and min and only the cells within COLLECT_TOL of them,
so neither `spinboost extrema` (through `surface.read`) nor `sweep --summary` holds the surface."""

from __future__ import annotations

import math
from collections import namedtuple

# DEFAULT_MERGE_RADIUS is read here by the CLI when `extrema` runs
from .grid import COLLECT_TOL, DEFAULT_MERGE_RADIUS  # noqa: F401


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
