"""Stored-surface reader tests: a seeded differential over mutated CSV and JSON files, the
file offset that a byte which is not UTF-8 is reported at, and the name an unreadable path
is reported by."""

import errno
import io
import itertools
import json
import math
import os
import random
import threading

import pytest

from spinboost import worker
from spinboost.cli import _print_extrema, main
from spinboost.entanglement import PARTITIONS
from spinboost.states import SpinFamily
from spinboost.sweep import GridSpec

from helpers import force_worker, reference_report, run_sweep, write_csv, write_json

# the mutator's seed; a failure names the mutant's index, which a rerun reproduces
SEED = 20111031
# mutants of each CSV and each JSON base surface (5x7 and 9x13), 1,500 in all; a CSV
# mutant's read with a worker forks, about 3 ms, so the JSON bases get more
MUTANTS = {".csv": 200, ".json": 550}
# texts that a CSV field or a JSON cell is replaced by: what np.loadtxt reads and what
# float() alone would also read, out-of-range and non-finite numbers, and plain junk
_TOKENS = ("nan", "-nan", "inf", "-Infinity", "1e999", "-1e999", "1e-400", "1_0", "1_0.5",
           "\uff11", "\u0663.5", "0x1", "1" + "0" * 400, "", " ", " 1.5", "1.5 ", "#0.5",
           "+.5", "5.", "1d5", "high", "0.5\x00", "-0", "1e5", "0.5,")
# characters np.loadtxt reads as a line end or as whitespace around a number
_CONTROLS = "\r\x1c\x1d\x1e\x1f"
# bytes that are not UTF-8: a byte never used, a lone continuation, a cut two-byte sequence
_NOT_UTF8 = (b"\xff", b"\x80", b"\xc3")


def _bases() -> dict[str, bytes]:
    """Files of two small sweeps, as `spinboost sweep` writes them."""
    bases = {}
    for n_theta, n_phi in ((5, 7), (9, 13)):
        config = dict(family=SpinFamily.S1, alpha=0.7, omega=math.pi / 8,
                      partition=PARTITIONS["1vs3"], theta_grid=GridSpec(0.0, math.pi, n_theta),
                      phi_grid=GridSpec(0.0, 2 * math.pi, n_phi))
        surface = run_sweep(**config)
        csv, envelope = io.StringIO(), io.StringIO()
        write_csv(surface.thetas.tolist(), surface.phis.tolist(), surface.values.tolist(), csv)
        write_json(**config, rows=surface.values.tolist(), stream=envelope)
        bases[f"{n_theta}x{n_phi}.csv"] = csv.getvalue().encode()
        bases[f"{n_theta}x{n_phi}.json"] = envelope.getvalue().encode()
    return bases


def _edit_csv(rng: random.Random, text: str) -> str:
    """One line edit, field edit or stray control character in a CSV text."""
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    edit = rng.choice(("delete", "duplicate", "swap", "rows", "cut", "blank", "crlf",
                       "crlf-one", "drop-comma", "add-comma", "field", "field", "field",
                       "control", "control", "header"))
    if edit == "delete":
        del lines[k]
    elif edit == "duplicate":
        lines.insert(k, lines[k])
    elif edit == "swap":
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    elif edit == "rows":
        # a whole theta row repeated elsewhere, or two rows swapped
        rows = [list(row) for _, row in itertools.groupby(
            lines[1:], lambda line: line.split(",")[0])]
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if rng.random() < 0.5:
            rows.insert(j, rows[i])
        else:
            rows[i], rows[j] = rows[j], rows[i]
        lines = lines[:1] + [line for row in rows for line in row]
    elif edit == "cut":
        # the file ends in the middle of a line
        cut = rng.randrange(len(text) + 1)
        return text[:cut]
    elif edit == "blank":
        lines.insert(k, rng.choice(("", " ", "\t", "  \x1c")))
    elif edit == "crlf":
        return text.replace("\n", "\r\n")
    elif edit == "crlf-one":
        lines[k] += "\r"
    elif edit == "drop-comma" and "," in lines[k]:
        at = [n for n, char in enumerate(lines[k]) if char == ","]
        n = rng.choice(at)
        lines[k] = lines[k][:n] + lines[k][n + 1 :]
    elif edit == "add-comma":
        n = rng.randrange(len(lines[k]) + 1)
        lines[k] = lines[k][:n] + "," + lines[k][n:]
    elif edit == "field":
        fields = lines[k].split(",")
        fields[rng.randrange(len(fields))] = rng.choice(_TOKENS)
        lines[k] = ",".join(fields)
    elif edit == "control":
        # inside a number, around it or between fields
        n = rng.randrange(len(lines[k]) + 1)
        lines[k] = lines[k][:n] + rng.choice(_CONTROLS) + lines[k][n:]
    elif edit == "header":
        lines[0] = rng.choice(("theta,phi,delta_e ", " theta,phi,delta_e", "theta,phi",
                               "THETA,PHI,DELTA_E", "theta;phi;delta_e", "#theta,phi,delta_e"))
    return "\n".join(lines)


def _edit_json_text(rng: random.Random, text: str) -> str:
    """A truncation, a stray character, or text before or after the envelope."""
    edit = rng.choice(("cut", "control", "blank", "trailing"))
    n = rng.randrange(len(text) + 1)
    if edit == "cut":
        return text[:n]
    if edit == "control":
        return text[:n] + rng.choice(_CONTROLS + "\x00x,") + text[n:]
    if edit == "blank":
        return rng.choice(("\n", "  \n\n", "\r\n", "\t")) + text
    return text + rng.choice(("x", "{}", "\n\n", ",", "\x1c"))


def _edit_json(rng: random.Random, text: str) -> str:
    """One edit of a JSON envelope: key order, a duplicate key, a value's type, the shape,
    the grids, or one of _edit_json_text's, which is also what a text that no longer
    parses, or whose envelope has lost what an edit needs, gets."""
    edit = rng.choice(("order", "config-order", "duplicate", "cell", "cell", "values", "shape",
                       "count", "grid", "drop", "text", "text", "text"))
    try:
        members = list(json.loads(text).items())
        envelope = dict(members)
        if edit == "order":
            rng.shuffle(members)
        elif edit == "config-order":
            config = list(envelope["config"].items())
            rng.shuffle(config)
            envelope["config"] = dict(config)
        elif edit == "duplicate":
            # the last of two equal keys wins
            key, value = rng.choice(members)
            other = rng.choice(([1, 2], "x", None, value, {"count": 3}))
            members.insert(rng.randrange(len(members) + 1), (key, other))
        elif edit == "cell":
            values = list(envelope["values"])
            values[rng.randrange(len(values))] = rng.choice(
                (1, 0, -3, 10**400, "0.5", True, False, None, [0.5], {"a": 1}, math.inf,
                 math.nan))
            envelope["values"] = values
        elif edit == "values":
            envelope["values"] = rng.choice(("0.5", {"a": 1}, 0.5, True, None, [], [[0.5]]))
        elif edit == "shape":
            n, m = envelope["shape"]
            envelope["shape"] = rng.choice(([n + 1, m], [m, n], [n], "5x7", None, [n, m, 1],
                                            [n * m]))
        elif edit == "count":
            values = list(envelope["values"])
            if rng.random() < 0.5:
                values.pop(rng.randrange(len(values)))
            else:
                values.append(0.25)
            envelope["values"] = values
        elif edit == "grid":
            config = dict(envelope["config"])
            name = rng.choice(("theta_grid", "phi_grid"))
            grid = dict(config[name])
            grid[rng.choice(("start", "stop", "count"))] = rng.choice(
                (1, 1.0, "2", None, grid["stop"], 5.0, math.nan, 10**400))
            if rng.random() < 0.2:
                grid["extra"] = 1
            config[name] = grid
            envelope["config"] = config
        elif edit == "drop":
            del members[rng.randrange(len(members))]
        else:
            return _edit_json_text(rng, text)
    except (ValueError, TypeError, KeyError, AttributeError, IndexError):
        return _edit_json_text(rng, text)
    # each member takes its edited value; a duplicate keeps its own
    last = {key: n for n, (key, _) in enumerate(members)}
    members = [(key, envelope.get(key, value) if last[key] == n else value)
               for n, (key, value) in enumerate(members)]
    indent = rng.choice((None, 2, "\t"))
    body = [f"{json.dumps(key)}: {json.dumps(value, indent=indent)}" for key, value in members]
    return "{" + ", ".join(body) + "}\n"


def _mutants() -> list[tuple[str, bytes]]:
    rng = random.Random(SEED)
    mutants = []
    for name, base in _bases().items():
        suffix = os.path.splitext(name)[1]
        edit = _edit_json if suffix == ".json" else _edit_csv
        for _ in range(MUTANTS[suffix]):
            text = base.decode()
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                text = edit(rng, text)
            data = text.encode()
            if rng.random() < 0.03:
                # a byte that is not UTF-8
                n = rng.randrange(len(data) + 1)
                data = data[:n] + rng.choice(_NOT_UTF8) + data[n:]
            mutants.append((name, data))
    return mutants


# Where the three reads of a mutant may differ from each other (leg b), or the read in one
# process from helpers.reference_report (leg a), and why; each entry is a mutant's index.
# None is known: a byte that is not UTF-8 is named at its offset in the file on every path,
# and np.loadtxt and the CSV reader agree on every number spelling, control character and
# line end that the mutator makes.
KNOWN_DIVERGENCES: dict[int, str] = {}


@pytest.mark.skipif(not os.path.exists("/dev/fd"), reason="reads a pipe through /dev/fd")
def test_mutated_surfaces_read_alike_on_every_path_and_by_reference(
        tmp_path, capsysbinary, monkeypatch):
    """For each of 1,500 seeded mutants of four small surfaces, `spinboost extrema` prints the
    same stdout and stderr bytes and exits with the same code whether it reads the file in
    one process, in two halves with a worker forced on, or from a pipe (leg b); and it
    accepts the file, printing the report, where helpers.reference_report reads a surface
    off it, else exits 2 (leg a). The mutants edit lines, fields, line ends and control
    characters of the CSV files, and the key order, duplicate keys, value types, shape,
    grids and length of the JSON files."""
    path = tmp_path / "surface"

    def extrema(source: str) -> tuple:
        code = main(["extrema", "--in", source])
        return (code, *capsysbinary.readouterr())

    outcomes = {"accepted": 0, "rejected": 0}
    diverged = []
    for index, (name, data) in enumerate(_mutants()):
        path.write_bytes(data)
        with monkeypatch.context() as patch:
            patch.setattr(worker, "_free_cpu", lambda: False)
            one = extrema(str(path))
        with monkeypatch.context() as patch:
            force_worker(patch)
            halves = extrema(str(path))
        read_end, write_end = os.pipe()
        try:
            # a mutant of these sizes fits in a pipe's buffer
            os.write(write_end, data)
            os.close(write_end)
            piped = extrema(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        report = reference_report(data)
        if report is None:
            expected = one[0] == 2 and one[1] == b""
        else:
            printed = io.StringIO()
            _print_extrema(report, printed)
            expected = one == (0, printed.getvalue().encode(), b"")
        outcomes["accepted" if one[0] == 0 else "rejected"] += 1
        if not (one == halves == piped and expected) and index not in KNOWN_DIVERGENCES:
            diverged.append((index, name, data[:80], report, one, halves, piped))
    assert not diverged, diverged[:3]
    # the mutants reach both outcomes, each often
    assert min(outcomes.values()) > 200, outcomes


@pytest.fixture(scope="module")
def default_surfaces(tmp_path_factory) -> dict[str, bytes]:
    """The CSV and JSON files of a sweep on the default 121x241 grid."""
    files = {}
    for fmt in ("csv", "json"):
        path = tmp_path_factory.mktemp("surface") / f"s.{fmt}"
        assert main(["sweep", "--family", "s1", "--alpha", "0.7", "--omega", "0.3",
                     "--partition", "1v3", "--out", str(path)]) == 0
        files[fmt] = path.read_bytes()
    return files


@pytest.mark.parametrize("fmt,route,third", [
    ("csv", "one-process", 2), ("csv", "two-halves", 1), ("csv", "two-halves", 2),
    ("csv", "pipe", 2), ("json", "one-process", 2), ("json", "pipe", 2)])
def test_a_byte_that_is_not_utf8_is_named_at_its_offset_in_the_file(
        fmt, route, third, default_surfaces, tmp_path, capsys, monkeypatch):
    """A 0xff far past the text layer's first chunk and the CSV reader's first, in this
    process's half of a CSV file read in two or in the worker's, or in a file read from a
    pipe, is reported at its byte offset in the file, with exit 2."""
    data = default_surfaces[fmt]
    offset = len(data) * third // 3
    data = data[:offset] + b"\xff" + data[offset:]
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(data)
    forks = []
    if route == "two-halves":
        force_worker(monkeypatch)
        forked = worker.forked
        monkeypatch.setattr(worker, "forked", lambda job: forks.append(1) or forked(job))
    else:
        monkeypatch.setattr(worker, "_free_cpu", lambda: False)
    if route == "pipe":
        read_end, write_end = os.pipe()

        def feed() -> None:
            try:
                os.write(write_end, data)
            except BrokenPipeError:
                pass  # the reader stops at the bad byte
            finally:
                os.close(write_end)

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            code = main(["extrema", "--in", f"/dev/fd/{read_end}"])
        finally:
            os.close(read_end)
            feeder.join()
    else:
        code = main(["extrema", "--in", str(path)])
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: 'utf-8' codec can't decode byte 0xff in position {offset}: "
               "invalid start byte\n")
    assert forks == ([1] if route == "two-halves" else [])


def test_an_unreadable_path_is_named_as_given(tmp_path, capsys):
    """A missing file and a directory exit 2 with the system's error, which names the path
    as it was given."""
    for path, number in ((tmp_path / "absent.csv", errno.ENOENT), (tmp_path, errno.EISDIR)):
        assert main(["extrema", "--in", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno {number}] {os.strerror(number)}: {str(path)!r}\n")
