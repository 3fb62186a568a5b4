"""A stored sweep surface, CSV or JSON: its text forms, the rule that picks one, and `read`.
Standard library only; the CSV header and JSON envelope keys are spelled here alone."""

from __future__ import annotations

import io
import itertools
import marshal
import math
import os
import re
import stat
from typing import IO, Callable, Iterator

from .grid import GridSpec

_CSV_HEADER = "theta,phi,delta_e"
_Form = tuple[str, Callable[[int, list[float]], str], str]  # head, text of theta row k, tail


def writes_json(fmt: str | None, out) -> bool:
    """Whether a sweep writes JSON: as `fmt` names, else where the path `out` ends in .json."""
    return fmt == "json" if fmt is not None else out is not None and out.suffix == ".json"


def csv_form(thetas: list[float], phis: list[float]) -> _Form:
    """Theta rows over any axes as CSV: the header, then one line a cell, theta outer. Each
    coordinate is formatted once; a theta row is one %-template, the theta string joining
    the pre-formatted phi cells."""
    phi_cells = ["", *(f",{phi:.17g},%.17g\n" for phi in phis)]

    def text(k: int, row: list[float]) -> str:
        return f"{thetas[k]:.17g}".join(phi_cells) % tuple(row)

    return _CSV_HEADER + "\n", text, ""


def json_form(family, alpha: float, omega: float, partition, theta_grid: GridSpec,
              phi_grid: GridSpec) -> _Form:
    """Theta rows as a JSON envelope of a sweep's config, its shape and its values, flat."""
    import json

    config = {"family": family.value, "alpha": alpha, "omega": omega, "partition": partition.name,
              "theta_grid": theta_grid._asdict(), "phi_grid": phi_grid._asdict()}
    envelope = {"config": config, "shape": [theta_grid.count, phi_grid.count], "values": []}
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


# characters of text read per chunk from a CSV file; a chunk's fields and the cells of a
# row not yet handed over are the reader's only memory besides the axes and the hits
_CSV_CHUNK = 1 << 18
# bytes from the middle of a CSV file on that are searched for the start of a theta row
_SEAM_WINDOW = 1 << 20
# the first bytes of that window, read first to estimate the cells of the file's later half
_SEAM_PROBE = 1 << 16
# np.loadtxt ends a line at '\r' and strips \x1c-\x1f around a number, float() neither
_CSV_SPACE = str.maketrans("\r\x1c\x1d\x1e\x1f", "\n    ")


class _Counted(io.FileIO):
    """A file that counts the bytes read from it, which the text layer over it reads unbuffered."""

    taken = 0

    def read(self, size: int = -1) -> bytes:
        data = super().read(size)
        self.taken += len(data)
        return data


def read(path) -> tuple[list[float], list[float], "HitCollector"]:
    """A stored surface's axes and a collector fed its every theta row: JSON if the file's
    first non-blank character is `{`, else CSV.

    The file is opened once and read front to back, so `path` may name a FIFO
    or a pipe such as /dev/stdin. Where a regular CSV file's read in two
    processes (_read_in_halves) fails, the read in one goes on from the same
    handle. A byte that is not UTF-8 is a ValueError that names its offset in
    the file. It may fork, so it is for a caller that knows its threads, as the CLI.
    """
    from .extrema import HitCollector

    hits = HitCollector()
    counted = _Counted(os.fspath(path))
    with io.TextIOWrapper(counted, encoding="utf-8") as handle:
        try:
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
        except UnicodeDecodeError as exc:
            # the error counts from the start of the bytes being decoded, which end at the
            # last byte taken
            start = counted.taken - len(exc.object) + exc.start
            what = (f"byte 0x{exc.object[exc.start]:02x} in position {start}"
                    if exc.end - exc.start == 1 else
                    f"bytes in position {start}-{start + exc.end - exc.start - 1}")
            raise ValueError(f"'{exc.encoding}' codec can't decode {what}: {exc.reason}") from None
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
    if header != _CSV_HEADER:
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
    from .extrema import HitCollector
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
        tg, pg = (GridSpec(**envelope["config"][axis]) for axis in ("theta_grid", "phi_grid"))
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
