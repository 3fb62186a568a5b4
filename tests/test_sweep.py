"""Sweep-engine tests: grid kernel, extrema clustering, CSV/JSON round-trips."""

import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    Surface,
    broadcast_surface,
    find_extrema,
    force_worker,
    read_csv,
    read_json,
    read_surface,
    run_sweep,
    write_csv,
    write_json,
)

from spinboost import extrema, surface, sweep
from spinboost.entanglement import PARTITIONS, delta_e
from spinboost.extrema import HitCollector, _cluster
from spinboost.states import SpinFamily, SpinParams
from spinboost.sweep import GridSpec, delta_e_grid, writer


def small_config(omega=math.pi / 8, partition="1vs3", nt=13, np_=25, family=SpinFamily.S1):
    return dict(
        family=family,
        alpha=math.pi / 4,
        omega=omega,
        partition=PARTITIONS[partition],
        theta_grid=GridSpec(0.0, math.pi, nt),
        phi_grid=GridSpec(0.0, 2 * math.pi, np_),
    )


def csv_text(surface: Surface) -> str:
    """The CSV file of a whole surface."""
    buf = io.StringIO()
    write_csv(surface.thetas.tolist(), surface.phis.tolist(), surface.values.tolist(), buf)
    return buf.getvalue()


def streamed_files(config: dict) -> tuple[str, str]:
    """The CSV and JSON files of a sweep, as `spinboost sweep` writes them."""
    csv, envelope = io.StringIO(), io.StringIO()
    writer(**config, as_json=False)(csv)
    writer(**config, as_json=True)(envelope)
    return csv.getvalue(), envelope.getvalue()


def test_grid_points_match_np_linspace_bit_for_bit():
    """GridSpec.points is np.linspace in pure Python: random spans of every scale, and spans
    so small that the step underflows to zero, where numpy scales the index by the span."""
    rng = np.random.default_rng(7)
    specs = [GridSpec(0.0, 5e-324, 3), GridSpec(-5e-324, 1e-323, 9), GridSpec(1e-322, 0.0, 100)]
    for _ in range(4000):
        scale = 10.0 ** rng.integers(-320, 300)
        start, stop = (float(x) for x in rng.uniform(-1.0, 1.0, 2) * scale)
        if start != stop:
            specs.append(GridSpec(start, stop, int(rng.integers(2, 400))))
    assert sum((spec.stop - spec.start) / (spec.count - 1) == 0.0 for spec in specs) >= 3
    for spec in specs:
        expected = np.linspace(spec.start, spec.stop, spec.count)
        assert np.array(spec.points).tobytes() == expected.tobytes(), spec


def test_grid_spec_validation_and_points():
    spec = GridSpec(0.0, 1.0, 5)
    assert np.array_equal(spec.points, np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)
    bad = ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (1.0, 1.0), (-1e308, 1e308))
    for start, stop in bad:
        with pytest.raises(ValueError):
            GridSpec(start, stop, 5)


def _bits(value: float) -> tuple[float, float]:
    """A float and the sign of its zero, so that +0.0 and -0.0 compare unequal."""
    return value, math.copysign(1.0, value)


def test_grid_kernel_matches_scalar_evaluation():
    """A point and its grid cell run the one sum of the quartics' terms, on Python floats for
    the point and in the row kernel of a one-block grid; both give the change the same bits,
    the edge cells theta in {0, pi} and phi in {0, 2 pi} and the boost by zero included. A
    grid of more blocks, and the same sum by numpy broadcasting, give every cell the same
    bits (`test_float_rows_and_numpy_blocks_give_every_cell_the_same_bits`)."""
    thetas = np.linspace(0.0, math.pi, 5)
    phis = np.linspace(0.0, 2 * math.pi, 7)
    for family, partition, omega in itertools.product(
        SpinFamily, PARTITIONS.values(), (0.0, math.pi / 8, 1.2, math.pi / 2)
    ):
        grid = delta_e_grid(family, math.pi / 4, omega, partition, thetas, phis)
        for i, theta in enumerate(thetas.tolist()):
            for j, phi in enumerate(phis.tolist()):
                point = delta_e(SpinParams(family, theta, phi), math.pi / 4, omega, partition)
                assert _bits(grid[i, j]) == _bits(point.delta), (
                    family, partition.name, omega, theta, phi
                )


BOOSTS = (0.0, math.pi / 8, math.pi / 4, 1.2, math.pi / 2)
# at alpha 0.0 the momentum state is a product and the |p- p+> rows are zero; at 2.0 its
# |p+ p-> amplitude is negative
OTHER_ALPHAS = ((0.0, (math.pi / 8,)), (2.0, (math.pi / 8,)))


@pytest.mark.parametrize("shape,cases", [((121, 241), ((0.7, BOOSTS), *OTHER_ALPHAS)),
                                         ((135, 241), ((0.7, BOOSTS),)),
                                         ((136, 241), ((0.7, BOOSTS),))],
                         ids=["default", "one-full-block", "two-blocks"])
def test_float_rows_and_numpy_blocks_give_every_cell_the_same_bits(shape, cases):
    """The default grid, a 135x241 grid, the largest of one block, and a 136x241 grid of two
    blocks are evaluated by the row kernel, and every cell has the bits of the same surface
    by numpy broadcasting (compared as int64, so -0.0 differs from 0.0), for both families,
    all four partitions and five boosts at alpha 0.7; the default grid also at alpha 0.0
    and 2.0, at pi/8."""
    thetas = GridSpec(0.0, math.pi, shape[0]).points
    phis = GridSpec(0.0, 2 * math.pi, shape[1]).points
    assert (shape[0] * shape[1] <= sweep._BLOCK_CELLS) == (shape[0] <= 135)
    for alpha, omegas in cases:
        for family, partition, omega in itertools.product(
                SpinFamily, PARTITIONS.values(), omegas):
            config = (family, alpha, omega, partition, thetas, phis)
            assert np.array_equal(delta_e_grid(*config).view(np.int64),
                                  broadcast_surface(*config).view(np.int64)), config[:4]


@pytest.mark.parametrize("block_cells", [sweep._BLOCK_CELLS, 1],
                         ids=["one-block", "one-row-blocks"])
def test_delta_e_grid_rejects_an_empty_or_non_1d_axis(block_cells, monkeypatch):
    """An empty axis, or one of more or fewer than one dimension, is one ValueError that
    names the axis, whether the grid would be one block or a block a row."""
    monkeypatch.setattr(sweep, "_BLOCK_CELLS", block_cells)
    config = (SpinFamily.S1, 0.7, math.pi / 8, PARTITIONS["1vs3"])
    axis = [0.0, 1.0, 2.0]
    bad = (([], axis, "thetas"), (axis, [], "phis"), (np.empty(0), axis, "thetas"),
           ([axis], axis, "thetas"), (axis, np.zeros((2, 2)), "phis"), (1.0, axis, "thetas"),
           (axis, 2.0, "phis"))
    for thetas, phis, name in bad:
        with pytest.raises(ValueError, match=f"^{name} must be a nonempty 1-D axis, got shape"):
            delta_e_grid(*config, thetas, phis)
    assert delta_e_grid(*config, axis, axis[:1]).shape == (3, 1)


def test_grid_cells_independent_of_batching():
    """Chunked evaluation reproduces the full grid bit for bit."""
    thetas = np.linspace(0.0, math.pi, 13)
    phis = np.linspace(0.0, 2 * math.pi, 25)
    part = PARTITIONS["SvsP"]
    full = delta_e_grid(SpinFamily.S1, math.pi / 4, math.pi / 8, part, thetas, phis)
    row_chunks = np.vstack(
        [
            delta_e_grid(SpinFamily.S1, math.pi / 4, math.pi / 8, part, thetas[i : i + 4], phis)
            for i in range(0, thetas.size, 4)
        ]
    )
    assert np.array_equal(full, row_chunks)
    col_chunks = np.hstack(
        [
            delta_e_grid(SpinFamily.S1, math.pi / 4, math.pi / 8, part, thetas, phis[j : j + 6])
            for j in range(0, phis.size, 6)
        ]
    )
    assert np.array_equal(full, col_chunks)


@pytest.mark.parametrize("family", list(SpinFamily))
@pytest.mark.parametrize("partition", list(PARTITIONS))
def test_grid_cells_evaluated_alone_match_full_grid(family, partition):
    """A grid of one cell gives the same bits as that cell inside the full sweep, and so the
    same CSV bytes, which also tell -0.0 from 0.0."""
    config = dict(small_config(partition=partition, nt=9, np_=17, family=family), alpha=0.7)
    result = run_sweep(**config)
    args = (family, config["alpha"], config["omega"], config["partition"])
    alone = np.array([
        [delta_e_grid(*args, result.thetas[i : i + 1], result.phis[j : j + 1])[0, 0]
         for j in range(result.phis.size)]
        for i in range(result.thetas.size)
    ])
    assert np.array_equal(result.values, alone)
    assert csv_text(result) == csv_text(Surface(result.thetas, result.phis, alone))


@pytest.mark.parametrize("family", list(SpinFamily))
@pytest.mark.parametrize("partition", list(PARTITIONS))
def test_chunk_size_does_not_change_any_cell(family, partition, monkeypatch):
    """Tiling the grid into blocks of any size, ragged edges included, gives the sweep's
    surface and CSV bytes; so does the streamed sweep with a block of one theta row, whose
    CSV and JSON files are those of the grid as one block."""
    config = small_config(partition=partition, nt=9, np_=17, family=family)
    result = run_sweep(**config)
    args = (family, config["alpha"], config["omega"], config["partition"])
    for rows, cols in ((2, 3), (4, 5), (9, 7), (5, 17)):
        tiled = np.block([
            [delta_e_grid(*args, result.thetas[i : i + rows], result.phis[j : j + cols])
             for j in range(0, result.phis.size, cols)]
            for i in range(0, result.thetas.size, rows)
        ])
        assert np.array_equal(result.values, tiled), (rows, cols)
        assert csv_text(result) == csv_text(Surface(result.thetas, result.phis, tiled))
    one_block = streamed_files(config)
    assert one_block[0] == csv_text(result)
    monkeypatch.setattr(sweep, "_BLOCK_CELLS", 1)
    assert streamed_files(config) == one_block


def test_delta_e_grid_memory_is_bounded():
    """The evaluator holds a few floats per cell plus at most 4 MiB of per-axis work."""
    thetas = np.linspace(0.0, math.pi, 401)
    phis = np.linspace(0.0, 2 * math.pi, 801)
    cells = thetas.size * phis.size
    tracemalloc.start()
    try:
        delta_e_grid(SpinFamily.S1, math.pi / 4, math.pi / 8, PARTITIONS["1vs3"], thetas, phis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20 + 64 * cells, peak / cells


def test_delta_e_grid_is_real():
    thetas = np.linspace(0.0, math.pi, 3)
    phis = np.linspace(0.0, 2 * math.pi, 4)
    for partition in PARTITIONS.values():
        grid = delta_e_grid(SpinFamily.S2, 0.7, math.pi / 4, partition, thetas, phis)
        assert grid.dtype == np.float64
        assert grid.shape == (3, 4)


def test_run_sweep_metadata_and_shape():
    """A sweep streams one row per theta, each of one cell per phi, and its JSON file
    carries its config and shape."""
    config = small_config()
    rows = []
    writer(**config, as_json=False, add_row=rows.append)(io.StringIO())
    assert [len(row) for row in rows] == [25] * 13
    envelope = json.loads(streamed_files(config)[1])
    assert envelope["shape"] == [13, 25]
    assert envelope["config"] == {
        "family": "s1", "alpha": math.pi / 4, "omega": math.pi / 8, "partition": "1vs3",
        "theta_grid": {"start": 0.0, "stop": math.pi, "count": 13},
        "phi_grid": {"start": 0.0, "stop": 2 * math.pi, "count": 25},
    }


def test_run_sweep_deterministic_bytes():
    config = small_config(partition="SvsP")
    assert streamed_files(config) == streamed_files(config)


# prints the spins' frozenset order under this hash seed and a digest of eight surfaces
_SURFACES_UNDER_SEED = """
import hashlib, math
from spinboost.entanglement import PARTITIONS
from spinboost.states import SpinFamily
from spinboost.sweep import delta_e_grid
from spinboost.tensor import SubsystemLabel
thetas, phis = [math.pi * k / 8 for k in range(9)], [math.pi * k / 8 for k in range(17)]
digest = hashlib.sha256()
for family in SpinFamily:
    for partition in PARTITIONS.values():
        digest.update(delta_e_grid(family, 0.7, 1.2, partition, thetas, phis).tobytes())
print(",".join(label.value for label in frozenset({SubsystemLabel.SA, SubsystemLabel.SB})))
print(digest.hexdigest())
"""


def test_surfaces_do_not_depend_on_the_hash_seed():
    """A part is a frozenset of labels, iterated in an order that follows the string hash seed;
    two seeds that order the spins differently give the same surface bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(sweep.__file__).resolve().parents[1])}
    orders, digests = zip(*(
        subprocess.run([sys.executable, "-c", _SURFACES_UNDER_SEED], capture_output=True,
                       text=True, env={**env, "PYTHONHASHSEED": seed}, check=True).stdout.split()
        for seed in ("0", "1")
    ))
    assert orders[0] != orders[1]
    assert digests[0] == digests[1]


def test_csv_round_trip_exact():
    result = run_sweep(**small_config())
    text = csv_text(result)
    assert text.startswith("theta,phi,delta_e\n")
    assert len(text.strip().splitlines()) == 1 + 13 * 25
    back = read_surface(read_csv, io.StringIO(text))
    assert np.array_equal(back.values, result.values)
    assert np.array_equal(back.thetas, result.thetas)
    assert np.array_equal(back.phis, result.phis)


def _edge_result():
    """A 5x5 surface of edge values, on axes that are no linspace."""
    thetas = np.array([-0.0, 5e-324, 1.0, 1e300, 2.5])
    phis = np.array([0.0, -2.5, 1e-300, 3.141592653589793, 7.0])
    values = np.array(
        [
            [-0.0, 5e-324, -5e-324, 1e300, -1e300],
            [0.1, -0.2, 1.0 / 3.0, 0.0, 2.220446049250313e-16],
            [123456789.125, -1e-17, 1e16, -7.0, 0.5],
            [math.pi, -math.e, 1e-320, 4.5e15, -0.0],
            [math.nan, math.inf, -math.inf, 1.0, -1.0],
        ]
    )
    return Surface(thetas=thetas, phis=phis, values=values)


def test_write_csv_matches_per_cell_reference():
    result = _edge_result()
    thetas, phis, values = result.thetas, result.phis, result.values
    reference = "theta,phi,delta_e\n" + "".join(
        f"{theta:.17g},{phi:.17g},{values[i, j]:.17g}\n"
        for i, theta in enumerate(thetas)
        for j, phi in enumerate(phis)
    )
    assert csv_text(result) == reference


@pytest.mark.parametrize("case", ["edge-values", "2x2-sweep"])
def test_write_json_matches_json_dump_reference(case):
    """The row-by-row writer gives the bytes of one json.dump(envelope, indent=2)."""
    config = small_config(nt=5, np_=5) if case == "edge-values" else small_config(nt=2, np_=2)
    values = (_edge_result() if case == "edge-values" else run_sweep(**config)).values

    def grid_dict(grid):
        return {"start": grid.start, "stop": grid.stop, "count": grid.count}

    envelope = {
        "config": {
            "family": config["family"].value,
            "alpha": config["alpha"],
            "omega": config["omega"],
            "partition": config["partition"].name,
            "theta_grid": grid_dict(config["theta_grid"]),
            "phi_grid": grid_dict(config["phi_grid"]),
        },
        "shape": list(values.shape),
        "values": [float(v) for v in values.ravel()],
    }
    reference = io.StringIO()
    json.dump(envelope, reference, indent=2)
    reference.write("\n")
    buf = io.StringIO()
    write_json(**config, rows=values.tolist(), stream=buf)
    assert buf.getvalue() == reference.getvalue()


def test_csv_header_validation():
    with pytest.raises(ValueError):
        read_surface(read_csv, io.StringIO("a,b,c\n1,2,3\n"))
    with pytest.raises(ValueError):
        read_surface(read_csv, io.StringIO("theta,phi,delta_e\n"))


def test_csv_rows_must_form_theta_outer_product():
    header, *rows = csv_text(run_sweep(**small_config(nt=5, np_=9))).splitlines()
    phi_outer = [rows[i * 9 + j] for j in range(9) for i in range(5)]
    repeated_block = rows[:9] * 5
    ragged = rows[:8] + rows[9:] + rows[8:9]
    for bad in (phi_outer, repeated_block, ragged, rows[:9]):
        with pytest.raises(ValueError):
            read_surface(read_csv, io.StringIO("\n".join([header, *bad]) + "\n"))


def _small_csv_lines():
    return csv_text(run_sweep(**small_config(nt=5, np_=9))).splitlines()


@pytest.mark.parametrize("edit", ["non-numeric", "two-columns", "four-columns", "hash-in-cell",
                                  "all-two-columns", "all-four-columns", "theta-row-inf",
                                  "theta-row-1e400", "theta-row-nan", "phi-column-inf",
                                  "first-theta-row-long-nan"])
def test_csv_rejects_malformed_rows(edit):
    header, *rows = _small_csv_lines()
    if edit.startswith("all-"):
        # every row equally narrow or wide: nothing is ragged, yet it is no sweep
        width = 2 if edit == "all-two-columns" else 4
        rows = [",".join((row.split(",") * 2)[:width]) for row in rows]
    elif edit.startswith("theta-row-"):
        # the whole last theta row, so the grid stays a consistent outer product
        rows[-9:] = [f"{edit[len('theta-row-'):]},{row.split(',', 1)[1]}" for row in rows[-9:]]
    elif edit == "first-theta-row-long-nan":
        # longer than the reader's text width, so the numbers come from a float table
        rows[:9] = [f"nan{' ' * 40},{row.split(',', 1)[1]}" for row in rows[:9]]
    elif edit == "phi-column-inf":
        rows = [f"{t},inf,{v}" if k % 9 == 4 else f"{t},{p},{v}"
                for k, (t, p, v) in enumerate(row.split(",") for row in rows)]
    else:
        t, p, v = rows[7].split(",")
        rows[7] = {
            "non-numeric": f"{t},{p},high",
            "two-columns": f"{t},{p}",
            "four-columns": f"{t},{p},{v},{v}",
            "hash-in-cell": f"{t},{p},#{v}",
        }[edit]
    with pytest.raises(ValueError):
        read_surface(read_csv, io.StringIO("\n".join([header, *rows]) + "\n"))


def test_csv_reader_block_size_does_not_change_the_arrays(monkeypatch):
    """Chunks of 7 characters, shorter than a line and the last one short, give the default
    arrays, also with blank lines at the start, in the middle and at the end of the data.
    So do one chunk with a blank line inside it, and chunks that end on the second row's
    newline with a blank line starting the next."""
    header, *rows = _small_csv_lines()
    text = "\n".join([header, *rows]) + "\n"
    plain = read_surface(read_csv, io.StringIO(text))
    blank = "\n".join([header, "", "", *rows[:20], "", *rows[20:], "", ""]) + "\n"
    middle = "\n".join([header, *rows[:20], "", *rows[20:]]) + "\n"
    after_second = "\n".join([header, *rows[:2], "", *rows[2:]]) + "\n"
    two_rows = len(rows[0]) + len(rows[1]) + 2
    cases = ((7, text), (7, blank), (surface._CSV_CHUNK, middle), (two_rows, after_second))
    for chunk, source in cases:
        monkeypatch.setattr(surface, "_CSV_CHUNK", chunk)
        blocked = read_surface(read_csv, io.StringIO(source))
        for name in ("thetas", "phis", "values"):
            assert getattr(blocked, name).tobytes() == getattr(plain, name).tobytes()


# np.loadtxt reads the first seven and 1.5\x1c; float() alone reads the last three too,
# and not 1.5\x1c
_SPELLINGS = (" 1.5", "1.5 ", "infinity", "-nan", "1e400", ".5", "5.", "0x10", "1d5", "#0.5",
              "1.5\x1c", "1_0", "1_0.5", "\uff11")


@pytest.mark.parametrize("spelling", _SPELLINGS)
def test_csv_reads_numbers_as_np_loadtxt_does(spelling):
    """A cell reads as np.loadtxt reads it, with the same bits, or is a ValueError where
    np.loadtxt raises one: float() alone would also read '_' between digits and non-ASCII
    digits."""
    text = f"theta,phi,delta_e\n0,0,{spelling}\n0,1,0.5\n1,0,0.25\n1,1,0.125\n"
    try:
        expected = np.loadtxt([f"0,0,{spelling}\n"], delimiter=",", comments=None, ndmin=2)[0, 2]
    except ValueError:
        with pytest.raises(ValueError, match="is not a number"):
            read_surface(read_csv, io.StringIO(text))
        return
    back = read_surface(read_csv, io.StringIO(text))
    assert back.values[0, 0].tobytes() == expected.tobytes()


def _spelled_csv(spell):
    """A 3x4 grid CSV whose coordinate texts spell(theta or phi, cell index, column) gives."""
    thetas, phis = np.array([0.0, 1.5, math.pi]), np.array([0.0, 1.0, 2.0, math.pi])
    values = np.arange(12.0).reshape(3, 4) / 7
    rows = [
        f"{spell(t, k, 0)},{spell(p, k, 1)},{values[i, j]:.17g}"
        for k, (i, j) in enumerate(np.ndindex(3, 4))
        for t, p in [(float(thetas[i]), float(phis[j]))]
    ]
    return "theta,phi,delta_e\n" + "\n".join(rows) + "\n", Surface(thetas, phis, values)


@pytest.mark.parametrize("case", ["zero-spellings", "pi-spellings", "long-texts"])
def test_csv_coordinates_compare_by_value_whatever_their_text(case):
    """Texts that differ from their row's or column's reference are parsed, not compared as text."""
    long_zeros = "0" * 40

    def spell(x, k, column):
        if case == "zero-spellings" and x == 0.0:
            return ("0", "0.0", "-0", "0e0")[k % 4]
        if case == "pi-spellings" and x == math.pi:
            return ("3.1415926535897931", "3.141592653589793")[k % 2]
        if case == "long-texts":
            # longer than the reader's text width, and differing past it
            return f"{long_zeros}{x!r}{'0' * (k % 3)}" if x > 0 else f"{x!r}{long_zeros[:k]}"
        return repr(x)

    text, expected = _spelled_csv(spell)
    back = read_surface(read_csv, io.StringIO(text))
    for name in ("thetas", "phis", "values"):
        assert getattr(back, name).tobytes() == getattr(expected, name).tobytes()


def test_csv_long_texts_that_share_a_prefix_are_told_apart():
    """Two texts that agree past the reader's text width but differ after it are two numbers."""
    prefix = "0" * 40
    # phi 1 and 2 written with the same 40-character prefix: a distinct, accepted grid
    text, expected = _spelled_csv(lambda x, k, column: f"{prefix}{x!r}" if column else repr(x))
    back = read_surface(read_csv, io.StringIO(text))
    assert back.phis.tobytes() == expected.phis.tobytes()
    # a later row's phi that shares the first row's prefix but not its number is off the grid
    lines = text.splitlines()
    t, _, v = lines[6].split(",")
    lines[6] = f"{t},{prefix}3.0,{v}"
    with pytest.raises(ValueError, match="theta x phi grid"):
        read_surface(read_csv, io.StringIO("\n".join(lines) + "\n"))


def test_read_csv_memory_is_bounded(tmp_path):
    """A CSV extrema pass keeps a chunk of text, one row and the hits, not the surface: its
    peak is within one bound, 16 B per cell of the smaller grid plus 4 MiB, at both sizes."""
    bound = 16 * 201 * 401 + 4 * 2**20
    for shape in ((201, 401), (401, 801)):
        thetas = np.linspace(0.0, math.pi, shape[0])
        phis = np.linspace(0.0, 2 * math.pi, shape[1])
        values = np.random.default_rng(41).uniform(-1.0, 1.0, shape)
        path = tmp_path / "large.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_csv(thetas.tolist(), phis.tolist(), values.tolist(), handle)
        expected, mismatched = iter(values.tolist()), []
        hits = HitCollector()

        def add_row(row):
            hits.add(row)
            if row != next(expected):
                mismatched.append(row)

        with open(path, encoding="utf-8") as handle:
            tracemalloc.start()
            try:
                axes = read_csv(handle, add_row)
                report = hits.report(*axes, merge_radius=3.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert mismatched == [] and next(expected, None) is None
        assert report == find_extrema(Surface(thetas, phis, values), merge_radius=3.0)
        assert peak < bound, (shape, peak)


def test_merged_collectors_equal_one_collector_of_every_row():
    """Two collectors fed the rows before and after any split, merged, hold what one
    collector fed every row holds: the hits and their order, top, bottom, finiteness and
    counts. The values sit on steps of half the band, so many tie or lie at a band's edge,
    and every fourth surface has a non-finite cell."""
    rng = np.random.default_rng(28)
    for trial in range(60):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        offset = float(rng.choice([0.0, 1.0, -1.0]))
        values = (rng.integers(-6, 7, (n, m)) * extrema.COLLECT_TOL / 2 + offset).tolist()
        if trial % 4 == 0:
            values[rng.integers(n)][rng.integers(m)] = float(rng.choice([math.inf, math.nan]))
        whole = HitCollector()
        for row in values:
            whole.add(row)
        for split in range(n + 1):
            first, later = HitCollector(), HitCollector()
            for row in values[:split]:
                first.add(row)
            for row in values[split:]:
                later.add(row)
            first.merge(later)
            assert vars(first) == vars(whole), (trial, split)


@functools.lru_cache(maxsize=None)
def _surface_csv(shape: tuple[int, int]) -> str:
    config = small_config(nt=shape[0], np_=shape[1])
    return csv_text(run_sweep(**config))


def _edited(lines: list[str], k: int, edit: str, seam: int) -> list[str]:
    """The body lines of a CSV surface with `edit` made at line k; `seam` is the line
    that the second half starts with."""
    lines = list(lines)
    t, p, v = lines[k].split(",")
    if edit in ("non-number", "underscore", "non-ascii-digit", "non-finite"):
        cell = {"non-number": "high", "underscore": "1_0", "non-ascii-digit": "\uff11",
                "non-finite": "inf"}[edit]
        lines[k] = f"{t},{p},{cell}"
    elif edit == "two-columns":
        lines[k] = f"{t},{p}"
    elif edit == "four-columns":
        lines[k] = f"{t},{p},{v},{v}"
    elif edit == "theta-repeat":
        # the row of line k takes the theta of a row on the other side of the seam
        other = lines[-1 if k < seam else 0].split(",")[0]
        lines = [f"{other},{line.split(',', 1)[1]}" if line.split(",")[0] == t else line
                 for line in lines]
    elif edit == "phi-column":
        # the phi of line k's column moves in its row and every row after it
        row_length = next(j for j in range(1, len(lines)) if lines[j].split(",")[1] == "0")
        for j in range(k, len(lines), row_length):
            t, p, v = lines[j].split(",")
            lines[j] = f"{t},{float(p) + 1e-3!r},{v}"
    elif edit == "phi-zero-spelling":
        # the first phi of the row of line k, written 0 by the writer
        start = next(j for j in range(k, -1, -1) if lines[j].split(",")[1] == "0")
        t, _, v = lines[start].split(",")
        lines[start] = f"{t},0.0,{v}"
    elif edit == "blank-lines":
        lines[k:k] = ["", ""]
    elif edit == "short-last-row":
        del lines[-1]
    return lines


_SEAM_EDITS = ("non-number", "two-columns", "four-columns", "underscore", "non-ascii-digit",
               "theta-repeat", "phi-column", "phi-zero-spelling", "non-finite", "blank-lines")
# edits after which the file is still a surface that both reads accept
_VALID_EDITS = ("valid", "crlf", "phi-zero-spelling", "blank-lines", "non-finite")


def _read_or_error(path) -> tuple | str:
    """surface.read's axes and collector state, or its error message."""
    try:
        thetas, phis, hits = surface.read(path)
    except ValueError as exc:
        return str(exc)
    return thetas, phis, vars(hits)


@pytest.mark.parametrize("shape", [(3, 3), (121, 241), (401, 801)], ids=lambda s: "x".join(map(str, s)))
def test_csv_read_in_two_processes_is_the_read_in_one(shape, tmp_path, capsys, monkeypatch):
    """A CSV surface that surface.read reads in two halves at once gives what the read in one
    process gives: the axes and the collector when both accept it, else the one-process
    read's error, which it then makes itself. The files are valid surfaces, a copy with
    CRLF line ends, and surfaces with each edit at a line of the first half, at the first
    line of the second half and in the second half; a phi column moved from the seam on
    makes two valid halves that do not join. Past the smallest shape every file that both
    reads accept is read in two halves, the halves merged. `extrema` prints the same bytes
    and exits with the same code either way."""
    from spinboost import worker
    from spinboost.cli import main

    # the small surfaces are read in two processes too
    force_worker(monkeypatch)
    # HitCollector.merge runs only where the two halves were read and joined
    merges, merge = [], HitCollector.merge
    monkeypatch.setattr(HitCollector, "merge",
                        lambda self, other: merges.append(1) or merge(self, other))
    path = tmp_path / "s.csv"
    header, *lines = _surface_csv(shape).splitlines()
    data = _surface_csv(shape).encode()
    middle = max(len(data) // 2, len(header) + 1)
    seam_offset = middle + surface._seam(data[middle : middle + surface._SEAM_WINDOW])
    seam = _surface_csv(shape)[:seam_offset].count("\n") - 1
    positions = {"first-half": seam // 2, "seam-row": seam,
                 "second-half": (seam + len(lines)) // 2}
    cases = [("valid", 0), ("crlf", 0), ("short-last-row", 0)] + [
        (edit, k) for edit in _SEAM_EDITS for k in positions.values()]
    if shape == (401, 801):
        cases = [("valid", 0), ("theta-repeat", seam), ("phi-column", seam),
                 ("phi-zero-spelling", seam), ("non-number", positions["second-half"])]
    for edit, k in cases:
        end = "\r\n" if edit == "crlf" else "\n"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(end.join([header, *_edited(lines, k, edit, seam)]) + end)
        with monkeypatch.context() as patch:
            patch.setattr(worker, "usable", lambda cells: False)
            one = _read_or_error(path)
        assert not merges
        two = _read_or_error(path)
        assert two == one, (edit, k)
        if isinstance(one, str):
            assert not merges, (edit, k, one)
        elif shape != (3, 3):
            assert edit in _VALID_EDITS and merges == [1], (edit, k)
        merges.clear()
        outcomes = []
        for usable in (worker.usable, lambda cells: False):
            with monkeypatch.context() as patch:
                patch.setattr(worker, "usable", usable)
                outcomes.append((main(["extrema", "--in", str(path)]), *capsys.readouterr()))
        assert outcomes[0] == outcomes[1], (edit, k)
        merges.clear()


def test_csv_read_in_halves_turned_down_reads_only_a_probe(tmp_path, monkeypatch):
    """Where `worker.usable` turns the worker's share down, surface.read reads _SEAM_PROBE
    bytes at the file's middle, not the whole seam window, and then the file in one
    process; the share it asks about is the cells, one a line, of the file's later half,
    within 1%."""
    from spinboost import worker

    path = tmp_path / "s.csv"
    path.write_text(_surface_csv((401, 801)), encoding="utf-8")
    asked, reads = [], []
    pread = os.pread

    def counted(fd, size, offset):
        data = pread(fd, size, offset)
        reads.append(len(data))
        return data

    monkeypatch.setattr(worker, "usable", lambda cells: asked.append(cells) or False)
    monkeypatch.setattr(os, "pread", counted)
    thetas, phis, hits = surface.read(path)
    assert (len(thetas), len(phis), hits.cells) == (401, 801, 401 * 801)
    assert reads == [surface._SEAM_PROBE]
    later = path.read_bytes()[path.stat().st_size // 2 :].count(b"\n")
    assert abs(asked[0] - later) <= later // 100, (asked, later)


def test_csv_trailing_blank_lines_accepted():
    lines = _small_csv_lines()
    plain = read_surface(read_csv, io.StringIO("\n".join(lines) + "\n"))
    padded = read_surface(read_csv, io.StringIO("\n".join(lines) + "\n\n\n"))
    assert np.array_equal(padded.values, plain.values)
    assert np.array_equal(padded.thetas, plain.thetas)
    assert np.array_equal(padded.phis, plain.phis)


def test_json_round_trip_exact():
    config = small_config(partition="SvsP", family=SpinFamily.S2)
    result = run_sweep(**config)
    text = streamed_files(config)[1]
    back = read_surface(read_json, io.StringIO(text))
    assert np.array_equal(back.values, result.values)
    assert np.array_equal(back.thetas, result.thetas)
    # the reader hands over the surface alone; the config is the envelope's
    stored = json.loads(text)["config"]
    assert SpinFamily(stored["family"]) is SpinFamily.S2
    assert stored["partition"] == "SvsP"
    assert stored["omega"] == config["omega"]
    assert stored["alpha"] == config["alpha"]
    assert GridSpec(**stored["theta_grid"]) == config["theta_grid"]
    assert GridSpec(**stored["phi_grid"]) == config["phi_grid"]


def test_file_round_trip(tmp_path):
    config = small_config(nt=5, np_=7)
    result = run_sweep(**config)
    csv_path = tmp_path / "surface.csv"
    json_path = tmp_path / "surface.json"
    for path, text in zip((csv_path, json_path), streamed_files(config)):
        path.write_text(text, encoding="utf-8")
    with open(csv_path, encoding="utf-8") as handle:
        assert np.array_equal(read_surface(read_csv, handle).values, result.values)
    with open(json_path, encoding="utf-8") as handle:
        assert np.array_equal(read_surface(read_json, handle).values, result.values)


def test_find_extrema_flat_surface():
    result = run_sweep(**small_config(omega=0.0))
    report = find_extrema(result)
    assert report.flat
    assert report.maxima == ()
    assert report.minima == ()


def test_find_extrema_single_peak():
    thetas = np.linspace(0.0, 1.0, 11)
    phis = np.linspace(0.0, 1.0, 11)
    values = np.zeros((11, 11))
    values[4, 7] = 1.0
    values[0, 0] = -1.0
    result = Surface(thetas=thetas, phis=phis, values=values)
    report = find_extrema(result)
    assert not report.flat
    assert report.maxima == ((thetas[4], phis[7], 1.0),)
    assert report.minima == ((0.0, 0.0, -1.0),)


def test_find_extrema_clusters_nearby_points():
    thetas = np.linspace(0.0, 1.0, 21)
    phis = np.linspace(0.0, 1.0, 21)
    values = np.zeros((21, 21))
    # two plateaus of equal height: one pair of adjacent cells, one far cell
    values[3, 3] = values[3, 4] = 1.0
    values[15, 15] = 1.0
    result = Surface(thetas=thetas, phis=phis, values=values)
    report = find_extrema(result, merge_radius=3.0)
    assert len(report.maxima) == 2
    # representative of the adjacent pair is the lexicographically smaller cell
    assert report.maxima[0] == (thetas[3], phis[3], 1.0)
    assert report.maxima[1] == (thetas[15], phis[15], 1.0)
    # shrinking the radius below one step separates the pair
    report_fine = find_extrema(result, merge_radius=0.5)
    assert len(report_fine.maxima) == 3
    # single linkage is transitive: a chain of hits 2 steps apart is one
    # cluster once the radius spans a link, though its ends are 4 apart
    chain = np.zeros((21, 21))
    chain[10, 4] = chain[10, 6] = chain[10, 8] = 1.0
    chained = Surface(thetas=thetas, phis=phis, values=chain)
    assert find_extrema(chained, merge_radius=2.5).maxima == ((thetas[10], phis[4], 1.0),)
    assert len(find_extrema(chained, merge_radius=1.5).maxima) == 3


def test_find_extrema_collects_within_tolerance():
    thetas = np.linspace(0.0, 1.0, 5)
    phis = np.linspace(0.0, 1.0, 5)
    values = np.zeros((5, 5))
    values[1, 1] = 1.0
    values[3, 3] = 1.0 - 1e-10  # inside the collection tolerance
    result = Surface(thetas=thetas, phis=phis, values=values)
    report = find_extrema(result, merge_radius=1.0)
    assert len(report.maxima) == 2
    assert report.maxima[0][2] == 1.0


def test_find_extrema_known_sweep_maxima():
    """The pi/8 single-subsystem surface peaks at the two |0 0> cells."""
    result = run_sweep(**small_config(nt=25, np_=49))
    report = find_extrema(result)
    assert not report.flat
    tol = 1e-9
    assert len(report.maxima) == 2
    (t1, p1, v1), (t2, p2, v2) = report.maxima
    assert abs(t1 - math.pi / 2) < 1e-12 and abs(p1 - math.pi / 2) < 1e-12
    assert abs(t2 - math.pi / 2) < 1e-12 and abs(p2 - 3 * math.pi / 2) < 1e-12
    assert abs(v1 - 0.5) < tol and abs(v2 - 0.5) < tol


def test_find_extrema_merge_radius_validation():
    thetas = np.linspace(0.0, 1.0, 21)
    phis = np.linspace(0.0, 1.0, 21)
    values = np.zeros((21, 21))
    values[2, 2] = values[18, 18] = 1.0
    values[5, 5] = values[15, 3] = -1.0
    result = Surface(thetas=thetas, phis=phis, values=values)
    for bad in (-1.0, -math.inf, math.nan):
        with pytest.raises(ValueError):
            find_extrema(result, merge_radius=bad)
    # an infinite radius merges every hit into one cluster per extreme
    report = find_extrema(result, merge_radius=math.inf)
    assert report.maxima == ((thetas[2], phis[2], 1.0),)
    assert report.minima == ((thetas[5], phis[5], -1.0),)
    assert len(find_extrema(result, merge_radius=0.0).maxima) == 2


def test_find_extrema_empty_grid_rejected():
    result = Surface(thetas=np.array([]), phis=np.array([]), values=np.zeros((0, 0)))
    with pytest.raises(ValueError):
        find_extrema(result)


def _all_pairs_single_linkage(hits, radius):
    """Oracle: components of the within-radius graph, labelled by their first hit."""
    d2 = ((hits[:, None, :] - hits[None, :, :]) ** 2).sum(axis=2)
    linked = d2 <= radius * radius
    labels = np.full(len(hits), -1)
    for seed in range(len(hits)):
        if labels[seed] >= 0:
            continue
        stack = [seed]
        labels[seed] = seed
        while stack:
            for other in np.flatnonzero(linked[stack.pop()] & (labels < 0)):
                labels[other] = seed
                stack.append(other)
    return labels


# 200 steps is wider than the grid's diagonal
@pytest.mark.parametrize("radius", [0.0, 0.5, 1.0, 1.5, 3.0, 7.5, 10.0, 200.0, math.inf])
def test_cluster_matches_all_pairs_single_linkage(radius):
    rng = np.random.default_rng(23)
    # sparse hits over a wide grid, row-sorted as np.argwhere gives them
    hits = np.argwhere(rng.random((60, 90)) < 0.04)
    assert len(hits) > 150
    cells = [(i, j) for i, j in hits.tolist()]
    assert _cluster(cells, radius) == _all_pairs_single_linkage(hits, radius).tolist()


@pytest.mark.parametrize("radius", [0.0, 1.0, 3.0, math.inf])
def test_find_extrema_representatives_match_per_cluster_min(radius):
    """Each cluster is reported through its cell least by (-sign * value, theta, phi),
    so tied values go to the smaller theta, then phi, and the report is in (theta, phi)
    order."""
    rng = np.random.default_rng(41)
    thetas = np.sort(rng.uniform(0.0, math.pi, 40))
    phis = np.sort(rng.uniform(0.0, 2 * math.pi, 70))
    # three levels within the collection tolerance, so most hits tie with others
    levels = np.array([0.0, 2e-10, 5e-10])
    for _ in range(3):
        values = rng.uniform(-0.5, 0.5, (40, 70))
        top = rng.random(values.shape) < 0.06
        bottom = ~top & (rng.random(values.shape) < 0.06)
        values[top] = 1.0 - rng.choice(levels, top.sum())
        values[bottom] = -1.0 + rng.choice(levels, bottom.sum())
        report = find_extrema(Surface(thetas, phis, values), merge_radius=radius)
        for sign, mask, entries in ((1.0, top, report.maxima), (-1.0, bottom, report.minima)):
            hits = np.argwhere(mask)
            labels = _all_pairs_single_linkage(hits, radius).tolist()
            cells = [(float(thetas[i]), float(phis[j]), float(values[i, j])) for i, j in hits]
            expected = sorted(
                min(
                    (cell for cell, label in zip(cells, labels) if label == seed),
                    key=lambda cell: (-sign * cell[2], cell[0], cell[1]),
                )
                for seed in set(labels)
            )
            assert list(entries) == expected
