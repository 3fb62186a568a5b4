"""Correctness gate: checks every CLI output of a benchmark run by independent routes.

Nothing here calls the engine's kernels. Surfaces are checked cell by cell
against the closed two-branch form of the boosted state, and a seeded
sample of cells (plus every delta-e point) against full density matrices
reduced with ``outer``/``partial_trace``/``purity``, the engine's oracle
path. Extrema reports are recomputed with a numpy single-linkage
clustering. Each check raises GateError with the reason it failed.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

import numpy as np

from spinboost.tensor import PureState, SubsystemLabel, outer, partial_trace, purity

VALUE_TOL = 1e-12
COLLECT_TOL = 1e-9  # extrema collection tolerance promised by the CLI
MERGE_RADIUS = 3.0  # CLI default cluster radius, in grid steps
SAMPLED_CELLS = 8
CHECKS_EXPECTED = 11


class GateError(Exception):
    """An output that is missing, malformed or numerically wrong."""


_PA, _PB, _SA, _SB = SubsystemLabel.PA, SubsystemLabel.PB, SubsystemLabel.SA, SubsystemLabel.SB
PARTS = {
    "AvsB": ({_PA, _SA}, {_PB, _SB}),
    "mixed": ({_PA, _SB}, {_SA, _PB}),
    "SvsP": ({_SA, _SB}, {_PA, _PB}),
    "1vs3": ({_PA}, {_PB}, {_SA}, {_SB}),
}

# spin basis |1>, |0>, |-1>; the pair index is 3 * a + b
_FAMILY_INDICES = {"s1": (0, 4, 8), "s2": (2, 6, 4)}
_R2, _R3 = 1 / math.sqrt(2.0), 1 / math.sqrt(3.0)
NAMED_SPINS = {
    "s00": {4: 1.0},
    "phi-plus": {0: _R2, 8: _R2},
    "phi-minus": {0: _R2, 8: -_R2},
    "bell-plus": {2: _R2, 6: _R2},
    "bell-minus": {2: _R2, 6: -_R2},
    "singlet": {2: _R3, 6: _R3, 4: -_R3},
    "inv3": {0: _R3, 4: -_R3, 8: _R3},
}


def wigner_angle(xi: float, eta: float) -> float:
    return math.atan(math.sinh(xi) * math.sinh(eta) / (math.cosh(xi) + math.cosh(eta)))


def _rotation(beta: float) -> np.ndarray:
    """exp(-i beta Jy) for spin 1 by eigendecomposition of Jy; real orthogonal."""
    jplus = np.diag([math.sqrt(2.0)] * 2, k=1)
    vals, vecs = np.linalg.eigh((jplus - jplus.T) / 2j)
    return ((vecs * np.exp(-1j * beta * vals)) @ vecs.conj().T).real


def _branch_rotations(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Spin-pair rotations of the |p+ p-> and |p- p+> momentum branches."""
    plus, minus = _rotation(omega), _rotation(-omega)
    return np.kron(plus, minus), np.kron(minus, plus)


def family_spins(family: str, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """(cells, 9) spin vectors of a family; thetas and phis are per cell."""
    spins = np.zeros((thetas.size, 9))
    i0, i1, i2 = _FAMILY_INDICES[family]
    spins[:, i0] = np.sin(thetas) * np.cos(phis)
    spins[:, i1] = np.sin(thetas) * np.sin(phis)
    spins[:, i2] = np.cos(thetas)
    return spins


def _purity_sum(rho: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of a stack of real symmetric matrices."""
    return np.einsum("cij,cij->c", rho, rho)


def closed_form_delta_e(family: str, alpha: float, omega: float, partition: str,
                        thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """dE for every cell of a theta-outer grid from the two-branch form.

    The boosted state is cos(a)|+-> A + sin(a)|-+> B with A, B the rotated
    spin pairs, so every reduced state is a small closed expression in A, B.
    AvsB and mixed conserve entanglement exactly.
    """
    shape = (thetas.size, phis.size)
    if partition in ("AvsB", "mixed"):
        return np.zeros(shape)
    spins = family_spins(family, np.repeat(thetas, phis.size), np.tile(phis, thetas.size))
    rot_pm, rot_mp = _branch_rotations(omega)
    a, b = spins @ rot_pm.T, spins @ rot_mp.T
    c2, s2 = math.cos(alpha) ** 2, math.sin(alpha) ** 2
    if partition == "SvsP":
        overlap2 = np.einsum("ci,ci->c", a, b) ** 2
        return (4 * c2 * s2 * (1 - overlap2)).reshape(shape)
    # the momentum branches differ in both momenta, so only the spin parts change
    sm, am, bm = (x.reshape(-1, 3, 3) for x in (spins, a, b))
    before = _purity_sum(sm @ sm.transpose(0, 2, 1)) + _purity_sum(sm.transpose(0, 2, 1) @ sm)
    rho_a = c2 * am @ am.transpose(0, 2, 1) + s2 * bm @ bm.transpose(0, 2, 1)
    rho_b = c2 * am.transpose(0, 2, 1) @ am + s2 * bm.transpose(0, 2, 1) @ bm
    after = _purity_sum(rho_a) + _purity_sum(rho_b)
    return (before - after).reshape(shape)


def density_delta_e(spin: np.ndarray, alpha: float, omega: float, partition: str) -> tuple[float, float]:
    """(E before, E after) from full density matrices and partial traces."""
    rot_pm, rot_mp = _branch_rotations(omega)
    plus_minus, minus_plus = np.eye(4)[1], np.eye(4)[2]
    before = np.kron(math.cos(alpha) * plus_minus + math.sin(alpha) * minus_plus, spin)
    after = (math.cos(alpha) * np.kron(plus_minus, rot_pm @ spin)
             + math.sin(alpha) * np.kron(minus_plus, rot_mp @ spin))

    def entropy(vec: np.ndarray) -> float:
        rho = outer(PureState(vec))
        return sum(1.0 - purity(partial_trace(rho, part)) for part in PARTS[partition])

    return entropy(before), entropy(after)


def grid_points(spec: list) -> np.ndarray:
    start, stop, count = spec
    return np.linspace(start, stop, count)


def read_surface(op: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a sweep output file and check its structure against the request."""
    path = Path(op["out"])
    if not path.is_file():
        raise GateError(f"sweep output {path.name} missing")
    thetas, phis = grid_points(op["theta_grid"]), grid_points(op["phi_grid"])
    cells = thetas.size * phis.size
    if op["format"] == "csv":
        with open(path, encoding="utf-8") as handle:
            if handle.readline() != "theta,phi,delta_e\n":
                raise GateError("CSV header is not theta,phi,delta_e")
            try:
                rows = np.loadtxt(handle, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise GateError(f"CSV rows do not parse: {exc}") from None
        if rows.shape != (cells, 3):
            raise GateError(f"CSV has shape {rows.shape}, expected ({cells}, 3)")
        if not (np.array_equal(rows[:, 0], np.repeat(thetas, phis.size))
                and np.array_equal(rows[:, 1], np.tile(phis, thetas.size))):
            raise GateError("CSV coordinates are not the requested theta-outer grid")
        values = rows[:, 2]
    else:
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            config, shape, values = envelope["config"], envelope["shape"], envelope["values"]
        except (ValueError, KeyError, TypeError) as exc:
            raise GateError(f"JSON envelope does not parse: {exc!r}") from None
        want = {
            "family": op["family"], "alpha": op["alpha"], "omega": op["omega"],
            "partition": op["partition"],
            "theta_grid": dict(zip(("start", "stop", "count"), op["theta_grid"])),
            "phi_grid": dict(zip(("start", "stop", "count"), op["phi_grid"])),
        }
        if config != want:
            raise GateError(f"JSON config {config} differs from the request {want}")
        if shape != [thetas.size, phis.size] or len(values) != cells:
            raise GateError(f"JSON shape {shape} with {len(values)} values, expected {cells}")
        values = np.array(values, dtype=float)
    values = values.reshape(thetas.size, phis.size)
    if not np.all(np.isfinite(values)):
        raise GateError("surface holds non-finite values")
    return thetas, phis, values


def check_surface(op: dict, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a surface and compare every cell to the closed form, a sample to density matrices."""
    thetas, phis, values = read_surface(op)
    family, alpha, omega, partition = op["family"], op["alpha"], op["omega"], op["partition"]
    closed = closed_form_delta_e(family, alpha, omega, partition, thetas, phis)
    errors = np.abs(values - closed)
    worst = np.unravel_index(int(np.argmax(errors)), errors.shape)
    if errors[worst] > VALUE_TOL:
        raise GateError(f"cell (theta={float(thetas[worst[0]])!r}, phi={float(phis[worst[1]])!r}) "
                        f"is {float(values[worst])!r}, closed form gives {float(closed[worst])!r}")
    rng = random.Random(f"{seed}:{op['out']}")
    for _ in range(SAMPLED_CELLS):
        i, j = rng.randrange(thetas.size), rng.randrange(phis.size)
        spin = family_spins(family, thetas[i:i + 1], phis[j:j + 1])[0]
        before, after = density_delta_e(spin, alpha, omega, partition)
        if abs(values[i, j] - (after - before)) > VALUE_TOL:
            raise GateError(f"cell ({i}, {j}) is {float(values[i, j])!r}, density-matrix oracle "
                            f"gives {after - before!r}")
    return thetas, phis, values


def single_linkage(hits: np.ndarray, shape: tuple[int, int], radius: float) -> np.ndarray:
    """Cluster label per hit; hits within `radius` index steps are linked."""
    reach = int(math.floor(radius))
    offsets = np.array([(di, dj) for di in range(-reach, reach + 1)
                        for dj in range(-reach, reach + 1) if di * di + dj * dj <= radius * radius])
    index = np.full(shape, -1)
    index[hits[:, 0], hits[:, 1]] = np.arange(len(hits))
    labels = np.full(len(hits), -1)
    for start in range(len(hits)):
        if labels[start] >= 0:
            continue
        labels[start] = start
        frontier = np.array([start])
        while frontier.size:
            near = (hits[frontier][:, None, :] + offsets[None, :, :]).reshape(-1, 2)
            inside = ((near >= 0) & (near < np.array(shape))).all(axis=1)
            linked = index[near[inside, 0], near[inside, 1]]
            linked = np.unique(linked[linked >= 0])
            frontier = linked[labels[linked] < 0]
            labels[frontier] = start
    return labels


def expected_extrema(thetas: np.ndarray, phis: np.ndarray, values: np.ndarray):
    """{"maxima": [...], "minima": [...]} of (theta, phi, value), or None when flat."""
    vmax, vmin = float(values.max()), float(values.min())
    if vmax - vmin < COLLECT_TOL:
        return None
    report = {}
    for label, target, sign in (("maxima", vmax, 1.0), ("minima", vmin, -1.0)):
        hits = np.argwhere(sign * (target - values) < COLLECT_TOL)
        labels = single_linkage(hits, values.shape, MERGE_RADIUS)
        reps = []
        for cluster in np.unique(labels):
            members = hits[labels == cluster]
            rank = np.lexsort((phis[members[:, 1]], thetas[members[:, 0]],
                               -sign * values[members[:, 0], members[:, 1]]))
            i, j = members[rank[0]]
            reps.append((float(thetas[i]), float(phis[j]), float(values[i, j])))
        report[label] = sorted(reps, key=lambda rec: (rec[0], rec[1]))
    return report


_HEAD = re.compile(r"(maxima|minima) \((\d+) clusters?\):")
_ROW = re.compile(r"  theta = (\S+)  phi = (\S+)  delta_e = (\S+)")


def parse_extrema(text: str):
    lines = text.splitlines()
    if len(lines) == 1 and lines[0].startswith("flat surface"):
        return None
    report, pos = {}, 0
    for label in ("maxima", "minima"):
        head = _HEAD.fullmatch(lines[pos]) if pos < len(lines) else None
        if head is None or head[1] != label:
            raise GateError(f"expected a {label} header at line {pos + 1}")
        count = int(head[2])
        rows = [_ROW.fullmatch(line) for line in lines[pos + 1:pos + 1 + count]]
        if len(rows) != count or not all(rows):
            raise GateError(f"{label} header announces {count} clusters; rows do not match")
        report[label] = [tuple(float(x) for x in row.groups()) for row in rows]
        pos += 1 + count
    if pos != len(lines):
        raise GateError("extrema report has trailing lines")
    return report


def check_extrema(text: str, expected) -> None:
    reported = parse_extrema(text)
    if (reported is None) != (expected is None):
        raise GateError("flat-surface verdict differs from the surface range")
    if expected is None:
        return
    for label in ("maxima", "minima"):
        got, want = reported[label], expected[label]
        if len(got) != len(want):
            raise GateError(f"{len(got)} {label} clusters reported, independent count is {len(want)}")
        if got != want:
            raise GateError(f"{label} {got} differ from the independent report {want}")


def _key_values(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise GateError(f"unexpected output line {line!r}")
        out[key] = float(value)
    return out


def check_point(text: str, op: dict) -> None:
    """delta-e output against the density-matrix oracle."""
    got = _key_values(text)
    if set(got) != {"omega", "e_before", "e_after", "delta_e"}:
        raise GateError(f"delta-e printed keys {sorted(got)}")
    omega = op["omega"] if op["omega"] is not None else wigner_angle(op["xi"], op["eta"])
    if abs(got["omega"] - omega) > 1e-14:
        raise GateError(f"omega {got['omega']!r}, expected {omega!r}")
    if op["state"] is not None:
        spin = np.zeros(9)
        for index, amp in NAMED_SPINS[op["state"]].items():
            spin[index] = amp
    else:
        spin = family_spins(op["family"], np.array([op["theta"]]), np.array([op["phi"]]))[0]
    before, after = density_delta_e(spin, op["alpha"], omega, op["partition"])
    for key, want in (("e_before", before), ("e_after", after), ("delta_e", after - before)):
        if abs(got[key] - want) > VALUE_TOL:
            raise GateError(f"{key} {got[key]!r}, oracle gives {want!r}")


def check_suite_output(text: str) -> None:
    lines = text.splitlines()
    match = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
    if match is None:
        raise GateError("check printed no summary line")
    passed, total = int(match[1]), int(match[2])
    if passed != CHECKS_EXPECTED or total != CHECKS_EXPECTED:
        raise GateError(f"check reported {passed}/{total}, expected "
                        f"{CHECKS_EXPECTED}/{CHECKS_EXPECTED}")


def check_wigner(text: str, op: dict) -> None:
    want = wigner_angle(op["xi"], op["eta"])
    try:
        got = float(text.strip())
    except ValueError:
        raise GateError(f"wigner-angle printed {text.strip()!r}") from None
    if abs(got - want) > 1e-14 * max(1.0, abs(want)):
        raise GateError(f"wigner-angle {got!r}, expected {want!r}")
