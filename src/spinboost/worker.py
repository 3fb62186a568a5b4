"""A share of an ordered job run in a forked worker process, its results sent back over a pipe.

Standard library only. The worker starts as a copy of the caller, so its job
is a closure over what the caller has already built and nothing is pickled.
It sends byte strings, each behind its length, in the order the caller
takes them. It always ends through os._exit: no exception, handler or
buffered output of the caller's runs twice. A worker whose caller is gone
ends at its next send, on the broken pipe.

A worker pays only where it runs on a CPU that would otherwise sit idle,
and where its share is large enough to outweigh its start; `usable` is the
one rule for both, which every stage that forks asks first.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import Callable, Iterator

# the fewest cells (values of a surface) worth a worker's start: one full sweep block,
# sweep._BLOCK_CELLS; a 121x241 surface, evaluated, formatted or parsed, stays in one process
MIN_CELLS = 1 << 15
# bytes of a result that the caller takes from the pipe at once
_PIECE = 1 << 16
# bytes of the length in front of each result
_LENGTH = 8
# the percent of the last ten seconds in which some runnable task waited for a CPU, above
# which no CPU is taken to be free: the machine ran fewer tasks at once than its CPUs'
# count, as where its host runs the second CPU of a virtual machine only part of the time
_PRESSURE_LIMIT = 5.0
# where Linux tells this process's control groups, their files, the tasks runnable now,
# and the pressure on the machine's CPUs
_CGROUPS = "/proc/self/cgroup"
_CGROUP_FS = "/sys/fs/cgroup"
_LOADAVG = "/proc/loadavg"
_PRESSURE = "/proc/pressure/cpu"


def usable(cells: int) -> bool:
    """Whether to give a worker a share of `cells` cells: the share is MIN_CELLS or more, the
    platform forks, and a CPU is free for the worker now."""
    return cells >= MIN_CELLS and hasattr(os, "fork") and _free_cpu()


def _free_cpu() -> bool:
    """Whether this process may run on more CPUs than the tasks runnable now, itself among
    them, fill, and the machine's CPUs kept up with its tasks of late: its CPU affinity,
    and its cgroup's CPU quota where one is set, allow two or more, no other task on the
    machine holds the second, and the CPU pressure is at most _PRESSURE_LIMIT where Linux
    reports it. False where Linux does not tell the rest. Tasks runnable on CPUs outside
    the affinity count too, so on a larger machine this errs toward one process."""
    try:
        cpus = min(len(os.sched_getaffinity(0)), _quota())
        with open(_LOADAVG, encoding="ascii") as handle:
            # the fourth field is "runnable/total", this process among the runnable
            running = int(handle.read().split()[3].split("/")[0])
        return cpus - running >= 1 and _pressure() <= _PRESSURE_LIMIT
    except (AttributeError, OSError, ValueError, IndexError):
        return False


def _pressure() -> float:
    """The percent of the last ten seconds in which some runnable task waited for a CPU;
    0 where Linux does not report it."""
    try:
        with open(_PRESSURE, encoding="ascii") as handle:
            # the first line: "some avg10=0.12 avg60=0.30 avg300=0.25 total=..."
            return float(handle.readline().split()[1].removeprefix("avg10="))
    except FileNotFoundError:
        return 0.0


def _quota() -> float:
    """The CPUs' worth of time a period that this process's cgroup may run: cgroup v2's
    cpu.max or v1's cpu.cfs_quota_us over cpu.cfs_period_us; inf where none is set or the
    cgroup's files are not where /proc/self/cgroup names them."""
    with open(_CGROUPS, encoding="utf-8") as table:
        entries = [line.rstrip("\n").split(":", 2) for line in table]
    for _, controllers, path in entries:
        if not controllers:
            files = [os.path.join(_CGROUP_FS, path.lstrip("/"), "cpu.max")]
        elif "cpu" in controllers.split(","):
            base = os.path.join(_CGROUP_FS, controllers, path.lstrip("/"), "cpu.cfs_")
            files = [base + "quota_us", base + "period_us"]
        else:
            continue
        fields = []
        try:
            for name in files:
                with open(name, encoding="ascii") as handle:
                    fields += handle.read().split()
        except FileNotFoundError:
            continue
        if fields[0] not in ("max", "-1"):
            return int(fields[0]) / int(fields[1])
    return math.inf


def _send(fd: int, data: bytes) -> None:
    for chunk in (len(data).to_bytes(_LENGTH, "little"), data):
        view = memoryview(chunk)
        while view:
            view = view[os.write(fd, view) :]


def _pieces(fd: int, size: int) -> Iterator[bytes]:
    while size:
        piece = os.read(fd, min(size, _PIECE))
        if not piece:
            raise ChildProcessError("a worker process ended before sending its result")
        size -= len(piece)
        yield piece


def _receive(fd: int) -> Iterator[bytes]:
    """The worker's next result, in pieces of at most _PIECE bytes."""
    yield from _pieces(fd, int.from_bytes(b"".join(_pieces(fd, _LENGTH)), "little"))


@contextlib.contextmanager
def forked(job: Callable[[Callable[[bytes], None]], None]) -> Iterator[Callable[[], Iterator[bytes]]]:
    """Run job(send) in a forked worker while the caller's block runs.

    The block gets receive(): each call yields the pieces of the worker's next
    sent result, and raises ChildProcessError if the worker ended before
    sending it whole. Leaving the block, however it is left, kills the
    worker if it still runs and reaps it. The worker has only the thread
    that forked it, so a job must not wait on a lock that another of the
    caller's threads may hold: fork only from a process whose threads the
    caller knows, such as a command's.
    """
    import signal

    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            job(lambda data: _send(write, data))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        yield lambda: _receive(read)
    finally:
        os.close(read)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
