"""Sweep-engine tests: grid kernel, extrema clustering, CSV/JSON round-trips."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from spinboost import entanglement
from spinboost.entanglement import PARTITIONS, delta_e
from spinboost.states import SpinFamily, SpinParams
from spinboost.sweep import (
    GridSpec,
    SweepResult,
    _cluster,
    delta_e_grid,
    find_extrema,
    read_csv,
    read_json,
    run_sweep,
    write_csv,
    write_json,
)


def small_config(omega=math.pi / 8, partition="1vs3", nt=13, np_=25, family=SpinFamily.S1):
    return dict(
        family=family,
        alpha=math.pi / 4,
        omega=omega,
        partition=PARTITIONS[partition],
        theta_grid=GridSpec(0.0, math.pi, nt),
        phi_grid=GridSpec(0.0, 2 * math.pi, np_),
    )


def test_grid_spec_validation_and_points():
    spec = GridSpec(0.0, 1.0, 5)
    assert np.array_equal(spec.points, np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)
    bad = ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (1.0, 1.0), (-1e308, 1e308))
    for start, stop in bad:
        with pytest.raises(ValueError):
            GridSpec(start, stop, 5)


def test_grid_kernel_matches_scalar_evaluation():
    thetas = np.linspace(0.0, math.pi, 5)
    phis = np.linspace(0.0, 2 * math.pi, 7)
    for family in (SpinFamily.S1, SpinFamily.S2):
        for partition in ("1vs3", "SvsP", "AvsB"):
            grid = delta_e_grid(
                family, math.pi / 4, math.pi / 8, PARTITIONS[partition], thetas, phis
            )
            for i, theta in enumerate(thetas):
                for j, phi in enumerate(phis):
                    scalar = delta_e(
                        SpinParams(family, float(theta), float(phi)),
                        math.pi / 4,
                        math.pi / 8,
                        PARTITIONS[partition],
                    ).delta
                    assert grid[i, j] == scalar


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
    """A grid of one cell gives the same bits as that cell inside the full grid."""
    thetas = np.linspace(0.0, math.pi, 9)
    phis = np.linspace(0.0, 2 * math.pi, 17)
    part = PARTITIONS[partition]
    full = delta_e_grid(family, 0.7, math.pi / 8, part, thetas, phis)
    alone = np.array(
        [
            [delta_e_grid(family, 0.7, math.pi / 8, part, thetas[i : i + 1], phis[j : j + 1])[0, 0]
             for j in range(phis.size)]
            for i in range(thetas.size)
        ]
    )
    assert np.array_equal(full, alone)


@pytest.mark.parametrize("family", list(SpinFamily))
@pytest.mark.parametrize("partition", list(PARTITIONS))
def test_chunk_size_does_not_change_any_cell(family, partition, monkeypatch):
    """Chunks of 7 cells, the last one short, give the default chunk's surface and CSV bytes."""
    config = small_config(partition=partition, nt=9, np_=17, family=family)
    assert (9 * 17) % 7 != 0

    def surface_and_csv():
        result = run_sweep(**config)
        buf = io.StringIO()
        write_csv(result, buf)
        return result.values, buf.getvalue()

    values, text = surface_and_csv()
    monkeypatch.setattr(entanglement, "CHUNK_CELLS", 7)
    chunked_values, chunked_text = surface_and_csv()
    assert np.array_equal(values, chunked_values)
    assert text == chunked_text


def test_delta_e_grid_memory_is_bounded():
    """The evaluator holds one chunk of intermediates plus a few floats per cell."""
    thetas = np.linspace(0.0, math.pi, 401)
    phis = np.linspace(0.0, 2 * math.pi, 801)
    cells = thetas.size * phis.size
    tracemalloc.start()
    try:
        delta_e_grid(SpinFamily.S1, math.pi / 4, math.pi / 8, PARTITIONS["1vs3"], thetas, phis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * entanglement.CHUNK_CELLS + 64 * cells, peak / cells


def test_delta_e_grid_is_real():
    thetas = np.linspace(0.0, math.pi, 3)
    phis = np.linspace(0.0, 2 * math.pi, 4)
    for partition in PARTITIONS.values():
        grid = delta_e_grid(SpinFamily.S2, 0.7, math.pi / 4, partition, thetas, phis)
        assert grid.dtype == np.float64
        assert grid.shape == (3, 4)


def test_run_sweep_metadata_and_shape():
    config = small_config()
    result = run_sweep(**config)
    assert result.values.shape == (13, 25)
    assert result.family is SpinFamily.S1
    assert result.partition_name == "1vs3"
    assert result.omega == math.pi / 8
    assert result.alpha == math.pi / 4


def test_run_sweep_deterministic_bytes():
    config = small_config(partition="SvsP")
    streams = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(run_sweep(**config), buf)
        streams.append(buf.getvalue())
    assert streams[0] == streams[1]


def test_csv_round_trip_exact():
    result = run_sweep(**small_config())
    buf = io.StringIO()
    write_csv(result, buf)
    text = buf.getvalue()
    assert text.startswith("theta,phi,delta_e\n")
    assert len(text.strip().splitlines()) == 1 + 13 * 25
    back = read_csv(io.StringIO(text))
    assert np.array_equal(back.values, result.values)
    assert np.array_equal(back.thetas, result.thetas)
    assert np.array_equal(back.phis, result.phis)


def _edge_result():
    """A surface of edge values, without sweep metadata."""
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
    return SweepResult(thetas=thetas, phis=phis, values=values)


def test_write_csv_matches_per_cell_reference():
    result = _edge_result()
    thetas, phis, values = result.thetas, result.phis, result.values
    buf = io.StringIO()
    write_csv(result, buf)
    reference = "theta,phi,delta_e\n" + "".join(
        f"{theta:.17g},{phi:.17g},{values[i, j]:.17g}\n"
        for i, theta in enumerate(thetas)
        for j, phi in enumerate(phis)
    )
    assert buf.getvalue() == reference


@pytest.mark.parametrize("case", ["edge-values", "2x2-sweep"])
def test_write_json_matches_json_dump_reference(case):
    """The row-by-row writer gives the bytes of one json.dump(envelope, indent=2)."""
    result = _edge_result() if case == "edge-values" else run_sweep(**small_config(nt=2, np_=2))

    def grid_dict(grid, points):
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
        "shape": list(result.values.shape),
        "values": [float(v) for v in result.values.ravel()],
    }
    reference = io.StringIO()
    json.dump(envelope, reference, indent=2)
    reference.write("\n")
    buf = io.StringIO()
    write_json(result, buf)
    assert buf.getvalue() == reference.getvalue()


def test_csv_header_validation():
    with pytest.raises(ValueError):
        read_csv(io.StringIO("a,b,c\n1,2,3\n"))
    with pytest.raises(ValueError):
        read_csv(io.StringIO("theta,phi,delta_e\n"))


def test_csv_rows_must_form_theta_outer_product():
    result = run_sweep(**small_config(nt=5, np_=9))
    buf = io.StringIO()
    write_csv(result, buf)
    header, *rows = buf.getvalue().splitlines()
    phi_outer = [rows[i * 9 + j] for j in range(9) for i in range(5)]
    repeated_block = rows[:9] * 5
    ragged = rows[:8] + rows[9:] + rows[8:9]
    for bad in (phi_outer, repeated_block, ragged, rows[:9]):
        with pytest.raises(ValueError):
            read_csv(io.StringIO("\n".join([header, *bad]) + "\n"))


def _small_csv_lines():
    buf = io.StringIO()
    write_csv(run_sweep(**small_config(nt=5, np_=9)), buf)
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("edit", ["non-numeric", "two-columns", "four-columns", "hash-in-cell",
                                  "all-two-columns", "all-four-columns"])
def test_csv_rejects_malformed_rows(edit):
    header, *rows = _small_csv_lines()
    if edit.startswith("all-"):
        # every row equally narrow or wide: nothing is ragged, yet it is no sweep
        width = 2 if edit == "all-two-columns" else 4
        rows = [",".join((row.split(",") * 2)[:width]) for row in rows]
    else:
        t, p, v = rows[7].split(",")
        rows[7] = {
            "non-numeric": f"{t},{p},high",
            "two-columns": f"{t},{p}",
            "four-columns": f"{t},{p},{v},{v}",
            "hash-in-cell": f"{t},{p},#{v}",
        }[edit]
    with pytest.raises(ValueError):
        read_csv(io.StringIO("\n".join([header, *rows]) + "\n"))


def test_csv_trailing_blank_lines_accepted():
    lines = _small_csv_lines()
    plain = read_csv(io.StringIO("\n".join(lines) + "\n"))
    padded = read_csv(io.StringIO("\n".join(lines) + "\n\n\n"))
    assert np.array_equal(padded.values, plain.values)
    assert np.array_equal(padded.thetas, plain.thetas)
    assert np.array_equal(padded.phis, plain.phis)


def test_json_round_trip_exact():
    result = run_sweep(**small_config(partition="SvsP", family=SpinFamily.S2))
    buf = io.StringIO()
    write_json(result, buf)
    back = read_json(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.values, result.values)
    assert np.array_equal(back.thetas, result.thetas)
    assert back.family is SpinFamily.S2
    assert back.partition_name == "SvsP"
    assert back.omega == result.omega
    assert back.alpha == result.alpha
    assert back.theta_grid == result.theta_grid
    assert back.phi_grid == result.phi_grid


def test_file_round_trip(tmp_path):
    result = run_sweep(**small_config(nt=5, np_=7))
    csv_path = tmp_path / "surface.csv"
    json_path = tmp_path / "surface.json"
    with open(csv_path, "w", encoding="utf-8") as handle:
        write_csv(result, handle)
    with open(json_path, "w", encoding="utf-8") as handle:
        write_json(result, handle)
    with open(csv_path, encoding="utf-8") as handle:
        assert np.array_equal(read_csv(handle).values, result.values)
    with open(json_path, encoding="utf-8") as handle:
        assert np.array_equal(read_json(handle).values, result.values)


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
    result = SweepResult(thetas=thetas, phis=phis, values=values)
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
    result = SweepResult(thetas=thetas, phis=phis, values=values)
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
    chained = SweepResult(thetas=thetas, phis=phis, values=chain)
    assert find_extrema(chained, merge_radius=2.5).maxima == ((thetas[10], phis[4], 1.0),)
    assert len(find_extrema(chained, merge_radius=1.5).maxima) == 3


def test_find_extrema_collects_within_tolerance():
    thetas = np.linspace(0.0, 1.0, 5)
    phis = np.linspace(0.0, 1.0, 5)
    values = np.zeros((5, 5))
    values[1, 1] = 1.0
    values[3, 3] = 1.0 - 1e-10  # inside the collection tolerance
    result = SweepResult(thetas=thetas, phis=phis, values=values)
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
    result = SweepResult(thetas=thetas, phis=phis, values=values)
    for bad in (-1.0, -math.inf, math.nan):
        with pytest.raises(ValueError):
            find_extrema(result, merge_radius=bad)
    # an infinite radius merges every hit into one cluster per extreme
    report = find_extrema(result, merge_radius=math.inf)
    assert report.maxima == ((thetas[2], phis[2], 1.0),)
    assert report.minima == ((thetas[5], phis[5], -1.0),)
    assert len(find_extrema(result, merge_radius=0.0).maxima) == 2


def test_find_extrema_empty_grid_rejected():
    result = SweepResult(
        thetas=np.array([]), phis=np.array([]), values=np.zeros((0, 0))
    )
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


@pytest.mark.parametrize("radius", [0.0, 1.0, 3.0, 7.5, math.inf])
def test_cluster_matches_all_pairs_single_linkage(radius):
    rng = np.random.default_rng(23)
    # sparse hits over a wide grid, row-sorted as np.argwhere gives them
    hits = np.argwhere(rng.random((60, 90)) < 0.04)
    assert len(hits) > 150
    assert _cluster(hits, radius).tolist() == _all_pairs_single_linkage(hits, radius).tolist()
