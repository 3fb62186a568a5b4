"""Worker tests: when a stage gives a share of its job to a forked worker."""

import io
import math
import os

import pytest
from helpers import read_csv, write_csv

from spinboost import sweep, worker
from spinboost.cli import main
from spinboost.entanglement import PARTITIONS
from spinboost.extrema import HitCollector
from spinboost.states import SpinFamily

linux = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                           reason="reads Linux's CPU affinity")


def _machine(monkeypatch, tmp_path, cpus=2, running=1, pressure=None, cgroups=(), files=None):
    """Fake what Linux tells the worker module: `cpus` CPUs of affinity, `running` runnable
    tasks, the CPU pressure over ten seconds (no pressure file where None), the
    /proc/self/cgroup lines `cgroups` and the cgroup files `files`."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    (tmp_path / "loadavg").write_text(f"0.10 0.20 0.30 {running}/120 4242\n")
    if pressure is not None:
        (tmp_path / "pressure").write_text(
            f"some avg10={pressure:.2f} avg60=0.50 avg300=0.40 total=123456\n"
            "full avg10=0.00 avg60=0.00 avg300=0.00 total=0\n")
    monkeypatch.setattr(worker, "_PRESSURE", str(tmp_path / "pressure"))
    (tmp_path / "cgroup").write_text("".join(f"{line}\n" for line in cgroups))
    for name, text in (files or {}).items():
        path = tmp_path / "fs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    monkeypatch.setattr(worker, "_LOADAVG", str(tmp_path / "loadavg"))
    monkeypatch.setattr(worker, "_CGROUPS", str(tmp_path / "cgroup"))
    monkeypatch.setattr(worker, "_CGROUP_FS", str(tmp_path / "fs"))


V2, V1 = "0::/job", "4:cpu,cpuacct:/job"


def _v1_quota(quota: str) -> dict:
    return {"cpu,cpuacct/job/cpu.cfs_quota_us": f"{quota}\n",
            "cpu,cpuacct/job/cpu.cfs_period_us": "100000\n"}


@linux
@pytest.mark.parametrize(
    "machine, free",
    [
        ({}, True),
        ({"cpus": 1}, False),
        ({"running": 2}, False),
        ({"cpus": 4, "running": 3}, True),
        ({"cpus": 4, "running": 4}, False),
        ({"pressure": 5.0}, True),
        ({"pressure": 5.01}, False),
        ({"cgroups": [V2], "files": {"job/cpu.max": "max 100000\n"}}, True),
        ({"cgroups": [V2], "files": {"job/cpu.max": "200000 100000\n"}}, True),
        ({"cgroups": [V2], "files": {"job/cpu.max": "100000 100000\n"}}, False),
        ({"cgroups": [V2], "files": {"job/cpu.max": "150000 100000\n"}}, False),
        ({"cgroups": ["9:memory:/job", V1], "files": _v1_quota("-1")}, True),
        ({"cgroups": [V1], "files": _v1_quota("50000")}, False),
        # a cgroup whose files are not where its line names them sets no quota
        ({"cgroups": [V2, V1]}, True),
    ],
    ids=["idle", "one-cpu", "second-cpu-busy", "four-cpus-one-free", "four-cpus-busy",
         "pressure-at-limit", "pressure-over-limit",
         "v2-no-quota", "v2-two-cpus", "v2-one-cpu", "v2-one-and-a-half-cpus", "v1-no-quota",
         "v1-half-cpu", "quota-files-missing"],
)
def test_worker_runs_only_on_a_free_cpu(machine, free, monkeypatch, tmp_path):
    """A worker needs a CPU that its affinity and its cgroup's quota allow and that no other
    runnable task holds, CPU pressure of at most 5% where Linux reports it, and a share of
    MIN_CELLS cells or more."""
    _machine(monkeypatch, tmp_path, **machine)
    assert worker._free_cpu() is free
    assert worker.usable(worker.MIN_CELLS) is (free and hasattr(os, "fork"))
    assert worker.usable(worker.MIN_CELLS - 1) is False


@linux
def test_worker_needs_linux_to_tell_it_a_cpu_is_free(monkeypatch, tmp_path):
    """Without the runnable count or the cgroup table, no worker runs."""
    _machine(monkeypatch, tmp_path)
    (tmp_path / "loadavg").unlink()
    assert worker._free_cpu() is False
    _machine(monkeypatch, tmp_path)
    (tmp_path / "cgroup").unlink()
    assert worker._free_cpu() is False


@linux
@pytest.mark.parametrize("machine", [{"running": 2}, {"cpus": 1}, {"pressure": 30.0}],
                         ids=["busy", "one-cpu", "under-pressure"])
def test_busy_or_one_cpu_machine_sweeps_and_reads_in_one_process(machine, monkeypatch, tmp_path,
                                                                 capsys):
    """Where no CPU is free, a sweep whose worker would get every odd block of three theta
    rows, and the read of its CSV file, run in one process: neither forks."""
    monkeypatch.setattr(worker, "MIN_CELLS", 1)
    monkeypatch.setattr(sweep, "_BLOCK_CELLS", 3 * 25)
    _machine(monkeypatch, tmp_path, **machine)

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "s2", "--alpha", "0.7", "--omega", "1.2", "--partition",
                 "1v3", "--theta-grid", "0:3.141592653589793:13", "--phi-grid",
                 "0:6.283185307179586:25", "--out", str(out)]) == 0
    assert main(["extrema", "--in", str(out)]) == 0
    capsys.readouterr()


def test_library_writers_and_reader_stay_in_one_process(monkeypatch):
    """delta_e_grid and the CSV read in one process run in the caller's process alone, on a
    surface of many blocks and with every share worth a worker: only the command's writer
    and `surface.read` fork, where the CLI knows its process's threads."""
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(worker, "MIN_CELLS", 1)
    monkeypatch.setattr(worker, "_free_cpu", lambda: True)
    monkeypatch.setattr(sweep, "_BLOCK_CELLS", 3 * 25)
    monkeypatch.setattr(os, "fork", no_fork)
    config = (SpinFamily.S2, 0.7, 1.2, PARTITIONS["1vs3"])
    thetas = sweep.GridSpec(0.0, math.pi, 13).points
    phis = sweep.GridSpec(0.0, 2 * math.pi, 25).points
    values = sweep.delta_e_grid(*config, thetas, phis)
    assert values.shape == (13, 25)
    csv = io.StringIO()
    write_csv(thetas, phis, values.tolist(), csv)
    assert read_csv(io.StringIO(csv.getvalue()), HitCollector().add) == (thetas, phis)
