"""Sweep axes and the extrema constants that a sweep and an extrema report share.

Standard library only, so that `sweep` and the CLI's grid flags can read
them without loading the extrema reader and its collector.
"""

from __future__ import annotations

import math
from collections import namedtuple

COLLECT_TOL = 1e-9
DEFAULT_MERGE_RADIUS = 3.0


class GridSpec(namedtuple("GridSpec", "start stop count")):
    """Inclusive linspace specification for one sweep axis."""

    __slots__ = ()

    def __new__(cls, start: float, stop: float, count: int) -> GridSpec:
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("grid endpoints must be finite")
        if not math.isfinite(stop - start):
            raise ValueError("grid span stop - start must be finite")
        if start == stop:
            raise ValueError("grid endpoints must differ")
        if count < 2:
            raise ValueError("grid count must be at least 2")
        return super().__new__(cls, start, stop, count)

    @property
    def points(self) -> list[float]:
        """The points of np.linspace(start, stop, count), bit for bit.

        The list is allocated whole before any point is computed, so a count
        too large to hold, past sys.maxsize included, is a MemoryError up front.
        """
        start, stop = float(self.start), float(self.stop)
        div, span = self.count - 1, stop - start
        step = span / div
        try:
            points = [stop] * self.count
        except (MemoryError, OverflowError):
            raise MemoryError(f"a grid of {self.count} points does not fit in memory") from None
        for k in range(div):
            # numpy scales the index by the span where the step underflows to zero
            points[k] = (k * step if step else k / div * span) + start
        return points
