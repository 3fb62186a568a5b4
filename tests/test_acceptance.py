"""Acceptance gate: eleven primary behavioral criteria, one test each.

Every test prints a one-line summary and asserts the criterion at its pinned
tolerance. Criteria 06 and 08 describe extremum landscapes that the
transformation law validated by the other criteria cannot produce; they are
asserted exactly as stated and left failing, with the analysis in the
failure message. See the repository README for the full discussion.
"""

import math

import numpy as np
from helpers import assemble, entropy, find_extrema, run_sweep

from spinboost.entanglement import PARTITIONS, delta_e
from spinboost.kinematics import wigner_angle
from spinboost.lorentz import boost_operator, jy_matrix, wigner_d
from spinboost.states import (
    NAMED_STATES,
    SpinFamily,
    SpinParams,
    get_named_state,
    momentum_state,
    spin_state,
)
from spinboost.sweep import COLLECT_TOL, GridSpec, delta_e_grid
from spinboost.tensor import PureState, SubsystemLabel, outer, partial_trace

PA, PB = SubsystemLabel.PA, SubsystemLabel.PB

THETA_GRID = GridSpec(0.0, math.pi, 121)
PHI_GRID = GridSpec(0.0, 2 * math.pi, 241)
STEP = math.pi / 120  # grid step of both axes at default resolution


def default_sweep(family, omega, partition, alpha=math.pi / 4):
    return run_sweep(
        family=family,
        alpha=alpha,
        omega=omega,
        partition=PARTITIONS[partition],
        theta_grid=THETA_GRID,
        phi_grid=PHI_GRID,
    )


def grid_value(result, theta, phi):
    i = int(round(theta / STEP))
    j = int(round(phi / STEP))
    return float(result.values[i, j])


def shown(value):
    """A cell's dE as a message prints it. A value within the collection tolerance of
    zero prints as 0, so the message does not change with the evaluator's last bits."""
    return f"{value:.3e}" if abs(value) >= COLLECT_TOL else f"0 (|dE| < {COLLECT_TOL:g})"


def test_criterion_01_boost_unitarity():
    worst = 0.0
    eye = np.eye(36)
    for omega in np.linspace(0.0, math.pi / 2, 20):
        u = boost_operator(float(omega))
        worst = max(worst, float(np.abs(u @ u.conj().T - eye).max()))
    print(f"criterion 01 (boost unitarity): max deviation {worst:.3e}")
    assert worst < 1e-12


def test_criterion_02_rotation_matrix_oracle():
    rng = np.random.default_rng(101)
    jy = jy_matrix()
    vals, vecs = np.linalg.eigh(jy)
    worst = 0.0
    for beta in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
        direct = wigner_d(float(beta))
        oracle = (vecs * np.exp(-1j * float(beta) * vals)) @ vecs.conj().T
        worst = max(worst, float(np.abs(direct - oracle).max()))
    print(f"criterion 02 (rotation closed form vs exponential): max deviation {worst:.3e}")
    assert worst < 1e-12


def test_criterion_03_conserved_partitions():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        family = SpinFamily.S1 if rng.integers(2) else SpinFamily.S2
        params = SpinParams(
            family, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        )
        alpha = float(rng.uniform(0, math.pi))
        omega = float(rng.uniform(0, math.pi / 2))
        for partition in ("AvsB", "mixed"):
            res = delta_e(params, alpha, omega, PARTITIONS[partition])
            worst = max(worst, abs(res.delta))
    print(f"criterion 03 (per-particle partitions conserved): max |dE| {worst:.3e}")
    assert worst < 1e-10


def test_criterion_04_separable_momentum_null():
    thetas = np.linspace(0.0, math.pi, 13)
    phis = np.linspace(0.0, 2 * math.pi, 25)
    worst = 0.0
    for alpha in (0.0, math.pi / 2, math.pi):
        for family in (SpinFamily.S1, SpinFamily.S2):
            for omega in (0.37, math.pi / 2):
                for partition in PARTITIONS.values():
                    grid = delta_e_grid(family, alpha, omega, partition, thetas, phis)
                    worst = max(worst, float(np.abs(grid).max()))
    print(f"criterion 04 (separable momentum inert): max |dE| {worst:.3e}")
    assert worst < 1e-12


def test_criterion_05_alpha_scale_factor():
    thetas = np.linspace(0.0, math.pi, 21)
    phis = np.linspace(0.0, 2 * math.pi, 41)
    omega = math.pi / 8
    worst = 0.0
    for partition in ("1vs3", "SvsP"):
        surfaces = {
            alpha: delta_e_grid(
                SpinFamily.S1, alpha, omega, PARTITIONS[partition], thetas, phis
            )
            for alpha in (math.pi / 8, math.pi / 4, 3 * math.pi / 8)
        }
        reference = surfaces[math.pi / 4]
        for alpha in (math.pi / 8, 3 * math.pi / 8):
            mask = (np.abs(reference) > 1e-8) & (np.abs(surfaces[alpha]) > 1e-8)
            ratios = surfaces[alpha][mask] / reference[mask]
            spread = (ratios.max() - ratios.min()) / abs(np.median(ratios))
            worst = max(worst, float(spread))
    print(f"criterion 05 (alpha enters as a scale factor): max relative spread {worst:.3e}")
    assert worst < 1e-6


def test_criterion_06_first_family_extrema_migration():
    """Maxima claim: at omega=pi/8 the global maxima sit at the
    (|1 1> +/- |-1 -1>)/sqrt2 points, and at omega=pi/2 the global maximum
    moves to |0 0> while the former maxima drop below 1e-10."""
    failures = []

    res8 = default_sweep(SpinFamily.S1, math.pi / 8, "1vs3")
    vmax8 = float(res8.values.max())
    pm_points = [(math.pi / 4, 0.0), (3 * math.pi / 4, 0.0),
                 (math.pi / 4, 2 * math.pi), (3 * math.pi / 4, 2 * math.pi)]
    pm_value = max(grid_value(res8, t, p) for t, p in pm_points)
    if vmax8 - pm_value > 1e-9:
        i, j = np.unravel_index(int(res8.values.argmax()), res8.values.shape)
        failures.append(
            "omega=pi/8: the superposition points (|1 1> +/- |-1 -1>)/sqrt2 reach "
            f"dE = {pm_value:.6f}, but the global maximum is {vmax8:.6f} at "
            f"theta = {res8.thetas[i]:.6f}, phi = {res8.phis[j]:.6f}, which is the "
            "|0 0> state. Under a y-axis rotation the middle spin component "
            "maximizes the single-subsystem entropy growth at small angles, so "
            "|0 0> dominates every superposition point at omega = pi/8."
        )

    res2 = default_sweep(SpinFamily.S1, math.pi / 2, "1vs3")
    vmax2 = float(res2.values.max())
    s00_value = max(
        grid_value(res2, math.pi / 2, math.pi / 2),
        grid_value(res2, math.pi / 2, 3 * math.pi / 2),
    )
    if vmax2 - s00_value > 1e-9:
        i, j = np.unravel_index(int(res2.values.argmax()), res2.values.shape)
        failures.append(
            f"omega=pi/2: dE at the |0 0> point is {shown(s00_value)}, not the global "
            f"maximum {vmax2:.6f} (attained at theta = {res2.thetas[i]:.6f}, "
            f"phi = {res2.phis[j]:.6f}; the aligned product points |1 1> and "
            "|-1 -1> share that value). A quarter-turn "
            "rotation maps the middle spin component of each particle onto "
            "(|1> - |-1>)/sqrt2 with opposite relative signs for the two momentum "
            "branches, and the branches then interfere to a product state: the "
            "boosted |0 0> state is exactly separable, so its dE is 0 at omega = pi/2 "
            "and it cannot carry the maximum."
        )

    former = max(abs(grid_value(res2, t, p)) for t, p in pm_points)
    if former > 1e-10:
        failures.append(
            f"omega=pi/2: dE at the former maxima should vanish but is {shown(former)}"
        )

    status = "ok" if not failures else f"{len(failures)} conflicting landscape facts"
    print(f"criterion 06 (extrema migration): {status}")
    assert not failures, "\n".join(failures)


def test_criterion_07_invariant_state():
    spin = spin_state(NAMED_STATES["inv3"])
    worst_fid = 0.0
    worst_delta = 0.0
    for alpha in (0.0, math.pi / 4):
        psi = assemble(spin, momentum_state(alpha))
        for omega in (math.pi / 8, math.pi / 4, math.pi / 2):
            boosted = boost_operator(omega) @ psi.amplitudes
            fidelity = abs(np.vdot(psi.amplitudes, boosted))
            worst_fid = max(worst_fid, abs(1.0 - fidelity))
            for partition in PARTITIONS.values():
                change = entropy(boosted, partition) - entropy(psi.amplitudes, partition)
                worst_delta = max(worst_delta, abs(change))
    print(
        "criterion 07 (invariant state): max fidelity defect "
        f"{worst_fid:.3e}, max |dE| {worst_delta:.3e}"
    )
    assert worst_fid < 1e-12
    assert worst_delta < 1e-12


def test_criterion_08_minima_stability():
    """Minima claim: the first-family sweep minima sit at the invariant-state
    parameter points for omega in {pi/8, pi/4, pi/2}, in both the
    spin-vs-momentum and single-subsystem partitions."""
    inv = get_named_state("inv3")
    inv_points = ((inv.theta, inv.phi), (math.pi - inv.theta, 3 * math.pi / 4))
    failures = []
    for partition in ("SvsP", "1vs3"):
        for omega in (math.pi / 8, math.pi / 4, math.pi / 2):
            result = default_sweep(SpinFamily.S1, omega, partition)
            report = find_extrema(result)
            stray = []
            for theta, phi, value in report.minima:
                steps = min(
                    math.hypot((theta - t0) / STEP, (phi - p0) / STEP)
                    for t0, p0 in inv_points
                )
                if steps > report.merge_radius:
                    stray.append((theta, phi, value))
            if stray:
                listing = "; ".join(
                    f"theta = {t:.4f}, phi = {p:.4f}, dE = {shown(v)}" for t, p, v in stray
                )
                failures.append(
                    f"{partition} at omega = {omega:.4f}: minima away from the "
                    f"invariant points: {listing}"
                )
    if failures:
        failures.append(
            "analysis: every sign choice (|1 1> +/- |0 0> +/- |-1 -1>)/sqrt3 gives an "
            "exact zero of the single-subsystem sum at every angle (each "
            "single-spin reduction stays maximally mixed), so that partition has "
            "degenerate minima at four parameter points, not one. At omega = pi/2 "
            "additional exact zeros appear on-grid (the separable boosted "
            "|0 0> point and the (|1 1> +/- |-1 -1>)/sqrt2 points), undercutting "
            "the invariant-state cells, whose own parameter point falls between "
            "grid lines. The spin-vs-momentum minima are stable at omega = pi/8 "
            "and pi/4, which is the surviving half of the claim."
        )
    status = "ok" if not failures else f"{len(failures) - 1} legs off the invariant points"
    print(f"criterion 08 (minima stability): {status}")
    assert not failures, "\n".join(failures)


def test_criterion_09_two_polarization_bell_state():
    res = default_sweep(SpinFamily.S2, math.pi / 2, "SvsP")
    vmin = float(res.values.min())
    bell = get_named_state("bell-minus")
    bell_value = grid_value(res, bell.theta, bell.phi)
    at_small = delta_e(bell, math.pi / 4, math.pi / 8, PARTITIONS["SvsP"]).delta
    print(
        "criterion 09 (Bell-type state): dE(pi/2) = "
        f"{bell_value:.3e}, global min {vmin:.3e}, dE(pi/8) = {at_small:.6f}"
    )
    assert abs(bell_value) < 1e-10
    assert bell_value <= vmin + 1e-10
    assert at_small > 1e-12


def test_criterion_10_wigner_angle_limit():
    big = wigner_angle(20.0, 20.0)
    assert abs(big - math.pi / 2) < 1e-6
    for eta in (0.5, 3.0, 20.0):
        assert wigner_angle(0.0, eta) == 0.0
    print(f"criterion 10 (angle limit): pi/2 - angle(20, 20) = {math.pi / 2 - big:.3e}")


def test_criterion_11_momentum_phase_regression():
    alpha, phase = math.pi / 4, 1.1
    plain = momentum_state(alpha)
    phased = plain.copy()
    phased[2] *= np.exp(1j * phase)
    worst_rdm = 0.0
    worst_spec = 0.0
    worst_entropy = 0.0
    for spin_params in (
        SpinParams(SpinFamily.S1, 1.0, 2.2),
        SpinParams(SpinFamily.S2, 0.7, 5.1),
    ):
        spin = spin_state(spin_params)
        for omega in (0.0, math.pi / 8, math.pi / 2):
            u = boost_operator(omega)
            vec_a = u @ assemble(spin, plain).amplitudes
            vec_b = u @ assemble(spin, phased).amplitudes
            rho_a = outer(PureState(vec_a))
            rho_b = outer(PureState(vec_b))
            for partition in PARTITIONS.values():
                for part in partition.parts:
                    ra = partial_trace(rho_a, part).entries
                    rb = partial_trace(rho_b, part).entries
                    if part == frozenset({PA, PB}):
                        # the joint-momentum block absorbs the phase as a local
                        # gauge rotation; its spectrum is what entanglement sees
                        sa = np.sort(np.linalg.eigvalsh(ra))
                        sb = np.sort(np.linalg.eigvalsh(rb))
                        worst_spec = max(worst_spec, float(np.abs(sa - sb).max()))
                    else:
                        worst_rdm = max(worst_rdm, float(np.abs(ra - rb).max()))
                entropy_gap = abs(
                    entropy(vec_a, partition) - entropy(vec_b, partition)
                )
                worst_entropy = max(worst_entropy, entropy_gap)
    print(
        "criterion 11 (momentum phase is a gauge): max reduced-matrix deviation "
        f"{worst_rdm:.3e}, max joint-momentum spectrum deviation {worst_spec:.3e}, "
        f"max entropy deviation {worst_entropy:.3e}"
    )
    assert worst_rdm < 1e-12
    assert worst_spec < 1e-12
    assert worst_entropy < 1e-12
