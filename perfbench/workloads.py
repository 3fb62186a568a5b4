"""Seeded workload definitions: each workload is one pass of CLI commands.

An op is a plain dict (so it can be recorded and handed to the tracer):
``kind`` selects the gate, ``argv`` is the ``spinboost`` argument list, and
the remaining keys are the inputs the gate needs. The seed draws alpha,
output formats and the scalar evaluation points; grid sizes, boosts and
partitions are fixed, so every seed does the same amount of work.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

PI = math.pi
PARTITIONS = ("AvsB", "mixed", "SvsP", "1vs3")
NAMED_STATES = ("s00", "phi-plus", "phi-minus", "bell-plus", "bell-minus", "singlet", "inv3")
# minimal CLI call whose wall time is the set-up cost of every command
SETUP_OP = {"kind": "wigner", "argv": ["wigner-angle", "--xi", "1", "--eta", "1"],
            "xi": 1.0, "eta": 1.0}

# the surface shrinks as sin^2(2 alpha); this range keeps it far from flat
ALPHA_RANGE = (0.45, 1.1)
# (theta count, phi count); the tiny sizes only exercise the code paths
GRIDS = {
    "grid_default": (121, 241),
    "grid_large": (401, 801),
    "ridge_extrema": (241, 481),
}
TINY_GRIDS = {"grid_default": (9, 17), "grid_large": (13, 25), "ridge_extrema": (13, 25)}
RIDGE_CONFIGS = ((PI / 8, "1vs3"), (PI / 4, "SvsP"), (PI / 2, "SvsP"), (PI / 2, "1vs3"))
WORKLOADS = ("grid_default", "grid_large", "ridge_extrema", "check_points")


def _num(x: float) -> str:
    return repr(float(x))


def _sweep(work: Path, tag: str, family: str, alpha: float, omega: float, partition: str,
           fmt: str, shape: tuple[int, int], default_grid: bool) -> list[dict]:
    """A sweep op writing one surface and the extrema op that reads it back."""
    out = str(work / f"{tag}.{fmt}")
    theta_grid, phi_grid = [0.0, PI, shape[0]], [0.0, 2 * PI, shape[1]]
    argv = ["sweep", "--family", family, "--alpha", _num(alpha), "--omega", _num(omega),
            "--partition", partition, "--out", out]
    if not default_grid:
        argv += ["--theta-grid", f"0:{_num(PI)}:{shape[0]}",
                 "--phi-grid", f"0:{_num(2 * PI)}:{shape[1]}"]
    sweep = {"kind": "sweep", "argv": argv, "out": out, "format": fmt, "family": family,
             "alpha": alpha, "omega": omega, "partition": partition,
             "theta_grid": theta_grid, "phi_grid": phi_grid}
    extrema = {"kind": "extrema", "argv": ["extrema", "--in", out], "in": out}
    return [sweep, extrema]


def build(name: str, seed: int, work: Path, tiny: bool = False) -> list[dict]:
    """The ops of one pass of workload `name`, drawn from `seed`."""
    rng = random.Random(f"{name}:{seed}")
    alpha = rng.uniform(*ALPHA_RANGE)
    if name == "check_points":
        return _check_points(rng, alpha)
    shape = (TINY_GRIDS if tiny else GRIDS)[name]
    ops: list[dict] = []
    if name == "grid_default":
        for partition in PARTITIONS:
            for fmt in ("csv", "json"):
                ops += _sweep(work, f"gd-{partition}", "s1", alpha, PI / 8, partition, fmt,
                              shape, default_grid=not tiny)
    elif name == "grid_large":
        ops += _sweep(work, "gl", "s1", alpha, PI / 8, "1vs3", "csv", shape, False)
    elif name == "ridge_extrema":
        # one CSV and one JSON surface per partition, the seed picks which
        csv_first = {"SvsP": rng.random() < 0.5, "1vs3": rng.random() < 0.5}
        seen: set[str] = set()
        for k, (omega, partition) in enumerate(RIDGE_CONFIGS):
            first = partition not in seen
            seen.add(partition)
            fmt = "csv" if first == csv_first[partition] else "json"
            ops += _sweep(work, f"ridge-{k}", "s2", alpha, omega, partition, fmt, shape, False)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


def _check_points(rng: random.Random, alpha: float) -> list[dict]:
    """3 check-suite runs, 8 delta-e points over all partitions, one wigner-angle."""
    check = {"kind": "check", "argv": ["check"]}
    points = []
    for partition in PARTITIONS:
        state = rng.choice(NAMED_STATES)
        omega = rng.uniform(0.0, PI / 2)
        points.append({
            "kind": "point", "state": state, "family": None, "theta": None, "phi": None,
            "alpha": alpha, "omega": omega, "xi": None, "eta": None, "partition": partition,
            "argv": ["delta-e", "--state", state, "--alpha", _num(alpha),
                     "--omega", _num(omega), "--partition", partition],
        })
        family = rng.choice(("s1", "s2"))
        theta, phi = rng.uniform(0.0, PI), rng.uniform(0.0, 2 * PI)
        xi, eta = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        points.append({
            "kind": "point", "state": None, "family": family, "theta": theta, "phi": phi,
            "alpha": alpha, "omega": None, "xi": xi, "eta": eta, "partition": partition,
            "argv": ["delta-e", "--family", family, "--theta", _num(theta), "--phi", _num(phi),
                     "--alpha", _num(alpha), "--xi", _num(xi), "--eta", _num(eta),
                     "--partition", partition],
        })
    xi, eta = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
    wigner = {"kind": "wigner", "argv": ["wigner-angle", "--xi", _num(xi), "--eta", _num(eta)],
              "xi": xi, "eta": eta}
    return [check, *points[:4], check, *points[4:], check, wigner]
