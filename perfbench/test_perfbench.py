"""Tests of the benchmark itself: smoke runs on tiny grids and negative controls for the gate.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import shutil
import sys
import time

import numpy as np
import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

import gate  # noqa: E402  (needs the sources on the path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_every_workload_path_passes_the_gate(name, trace):
    report = run.run_workload(name, seed=7, seconds=0.0, trace=trace, tiny=True)
    result = report["result"]
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.declared_metrics(trace))


@pytest.fixture()
def tiny_default_run():
    """One measured tiny grid_default pass whose output files are kept for corruption."""
    work = run.OUTPUT / "work" / "negative-control"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.build("grid_default", 3, work, tiny=True)
    measured = run.measure(ops, 0.0, work, time.monotonic() + 120)
    assert run.evaluate(ops, measured["passes"], 3) == []
    yield ops, measured["passes"]
    shutil.rmtree(work, ignore_errors=True)


def test_corrupted_csv_cell_is_a_failed_op(tiny_default_run):
    ops, passes = tiny_default_run
    k, op = next((k, op) for k, op in enumerate(ops)
                 if op["kind"] == "sweep" and op["format"] == "csv" and op["partition"] == "SvsP")
    with open(op["out"], encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    theta, phi, value = lines[40].rstrip("\n").split(",")
    lines[40] = f"{theta},{phi},{float(value) + 1e-9!r}\n"
    with open(op["out"], "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    with pytest.raises(gate.GateError, match="closed form"):
        gate.check_surface(op, 3)
    failures = run.evaluate(ops, passes, 3)
    assert k in {f["op"] for f in failures}


def test_corrupted_extrema_line_is_a_failed_op(tiny_default_run):
    ops, passes = tiny_default_run
    k = next(k for k, op in enumerate(ops)
             if op["kind"] == "extrema" and "delta_e" in passes[0][k]["stdout"])
    lines = passes[0][k]["stdout"].splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("  theta"))
    head, _, value = lines[row].rpartition("delta_e = ")
    lines[row] = f"{head}delta_e = {float(value) * (1 + 1e-6)!r}\n"
    passes[0][k]["stdout"] = "".join(lines)
    failures = run.evaluate(ops, passes, 3)
    assert [(f["pass"], f["op"]) for f in failures] == [(0, k)]


def test_child_killed_by_a_signal_is_a_failed_op(tmp_path):
    child = run.Child(tmp_path, time.monotonic() + 60)
    record = child.run([sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"])
    assert record["rc"] is None and record["reason"] == "killed by signal 9"
    op = {"kind": "check", "argv": ["check"]}
    assert len(run.evaluate([op], [[record]], 0)) == 1


def test_single_linkage_matches_brute_force_union_find():
    rng = random.Random(5)
    hits = sorted({(rng.randrange(40), rng.randrange(40)) for _ in range(300)})
    labels = gate.single_linkage(np.array(hits), (40, 40), gate.MERGE_RADIUS)
    parent = list(range(len(hits)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, (a, b) in enumerate(hits):
        for j, (c, d) in enumerate(hits[:i]):
            if (a - c) ** 2 + (b - d) ** 2 <= gate.MERGE_RADIUS ** 2:
                parent[find(i)] = find(j)
    roots = [find(i) for i in range(len(hits))]
    assert len(set(labels)) == len(set(roots)) == len(set(zip(labels.tolist(), roots)))
