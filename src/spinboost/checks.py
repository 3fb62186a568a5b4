"""Self-diagnostic suite exercising the numerical identities the engine relies on.

Every check recomputes its target through an independent route (spectral
matrix exponentials, brute-force reshapes, closed-form values) and compares
against the production code path. The boost operator used by the
state-dependent checks can be swapped out, so a defective operator is
reported as a failed check rather than an exception. Each check that
samples its inputs draws them from its own seeded stdlib generator, so a
run is deterministic.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from typing import Callable

import numpy as np

from .entanglement import PARTITIONS, Partition
from .kinematics import wigner_angle
from .lorentz import boost_operator, jy_matrix, wigner_d
from .states import (
    NAMED_STATES,
    SpinFamily,
    SpinParams,
    momentum_state,
    spin_state,
)
from .sweep import delta_e_grid
from .tensor import CANONICAL_ORDER

MATRIX_TOL = 1e-12
CONSERVATION_TOL = 1e-10
_SEED = 20240817

BoostFn = Callable[[float], np.ndarray]


CheckResult = namedtuple("CheckResult", "name passed detail")


class CheckReport(namedtuple("CheckReport", "results")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
        }


def _expm_spectral(hermitian: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * H) for Hermitian H via eigendecomposition."""
    vals, vecs = np.linalg.eigh(hermitian)
    return (vecs * np.exp(scale * vals)) @ vecs.conj().T


def _check_wigner_d_exponential() -> tuple[bool, str]:
    rng = random.Random(_SEED)
    jy = jy_matrix()
    betas = [rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(50)]
    # np.max, unlike the builtin max, keeps a NaN, and a NaN fails the comparison below
    worst = float(np.max([
        np.abs(wigner_d(beta) - _expm_spectral(jy, -1j * beta)).max() for beta in betas
    ]))
    return worst < MATRIX_TOL, f"max |closed form - expm(-i beta Jy)| = {worst:.3e}"


def _check_wigner_angle_properties() -> tuple[bool, str]:
    rng = random.Random(_SEED + 1)
    issues = []
    for _ in range(50):
        xi, eta = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
        omega = wigner_angle(xi, eta)
        if not 0.0 <= omega < math.pi / 2:
            issues.append(f"range violation at ({xi:.3f}, {eta:.3f}): {omega}")
        if abs(omega - wigner_angle(eta, xi)) > 1e-15:
            issues.append(f"asymmetric at ({xi:.3f}, {eta:.3f})")
    if wigner_angle(0.0, 3.0) != 0.0 or wigner_angle(3.0, 0.0) != 0.0:
        issues.append("nonzero angle for a single boost")
    frozen = 0.42078396163807286
    got = wigner_angle(1.0, 1.0)
    if abs(got - frozen) > 1e-15:
        issues.append(f"reference value drifted: {got!r}")
    grid = [wigner_angle(x, 1.5) for x in np.linspace(0.1, 8.0, 40)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        issues.append("not increasing in the first rapidity")
    if issues:
        return False, "; ".join(issues)
    return True, "range, symmetry, zeros, monotonicity, reference value"


def _check_boost_unitarity(boost_fn: BoostFn) -> tuple[bool, str]:
    rng = random.Random(_SEED + 2)
    eye = np.eye(36)
    worst = float(np.max([
        np.abs(u.conj().T @ u - eye).max()
        for u in map(boost_fn, [rng.uniform(0.0, math.pi / 2) for _ in range(20)])
    ]))
    return worst < MATRIX_TOL, f"max |U^dag U - I| = {worst:.3e} over 20 angles"


def _check_boost_block_structure(boost_fn: BoostFn) -> tuple[bool, str]:
    u = boost_fn(0.7)
    blocks = u.reshape(4, 9, 4, 9)
    off = float(np.max([np.abs(blocks[a, :, b, :]).max()
                        for a in range(4) for b in range(4) if a != b]))
    return off < MATRIX_TOL, f"max coupling between distinct momentum sectors = {off:.3e}"


def _check_boost_factorization(boost_fn: BoostFn) -> tuple[bool, str]:
    p_plus = np.diag([1.0, 0.0]).astype(complex)
    p_minus = np.diag([0.0, 1.0]).astype(complex)
    defects = []
    for omega in (0.3, 1.1):
        # the boost's factors reordered from (pA, pB, sA, sB) to (pA, sA, pB, sB)
        u = boost_fn(omega).reshape((2, 2, 3, 3) * 2).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(36, 36)
        # one particle's (p, s) factor: its momentum selects the sign of its spin rotation
        singles = [np.kron(p_plus, wigner_d(w)) + np.kron(p_minus, wigner_d(-w)) for w in (omega, -omega)]
        # the better of the two global signs; np.min and np.max keep a NaN
        defects.append(np.min([np.abs(u - np.kron(sp, sp)).max() for sp in singles]))
    worst = float(np.max(defects))
    return worst < MATRIX_TOL, (
        f"max |U - U_single x U_single| = {worst:.3e} after particle reordering"
    )


def _random_spin_state(rng: random.Random) -> list[float]:
    """Spin vector of a family member with family, theta and phi drawn in that order."""
    family = SpinFamily.S1 if rng.randrange(2) else SpinFamily.S2
    theta = rng.uniform(0.0, math.pi)
    phi = rng.uniform(0.0, 2 * math.pi)
    return spin_state(SpinParams(family, theta, phi))


def _check_conservation(boost_fn: BoostFn) -> tuple[bool, str]:
    rng = random.Random(_SEED + 3)
    conserved = (PARTITIONS["AvsB"], PARTITIONS["mixed"])
    vecs, boosted = [], []
    for _ in range(50):
        spin = _random_spin_state(rng)
        alpha = rng.uniform(0.0, math.pi)
        vec = np.kron(momentum_state(alpha), spin)
        omega = rng.uniform(0.0, math.pi / 2)
        vecs.append(vec)
        boosted.append(boost_fn(omega) @ vec)
    worst = _max_abs_change(np.array(vecs), np.array(boosted), conserved)
    return worst < CONSERVATION_TOL, (
        f"max |dE| over AvsB and mixed on 50 family draws = {worst:.3e}"
    )


def _linear_entropy(rows: np.ndarray, partition: Partition) -> np.ndarray:
    """Sum over parts of 1 - Tr(rho_part^2) for each of a (cells, 36) batch of canonical rows.

    Each part's axes go first, so a row is a (kept, rest) matrix M and the
    reduced state is G = M M^dag on the kept side. This shares no kernel
    with the evaluator, which sums Gram entries over the smaller side of a cut.
    """
    tens = np.asarray(rows).reshape((-1,) + CANONICAL_ORDER.dims)
    entropy = np.zeros(len(tens))
    for part in partition.parts:
        # sorted: a frozenset's iteration order follows the string hash seed, so unsorted
        # axes could change the summation order, and a detail's last digits, between runs
        kept = sorted(CANONICAL_ORDER.axis(label) + 1 for label in part)
        m = np.moveaxis(tens, kept, range(1, len(kept) + 1))
        m = m.reshape(len(tens), math.prod(label.dim for label in part), -1)
        gram = m @ m.conj().transpose(0, 2, 1)
        entropy += 1.0 - (np.abs(gram) ** 2).sum(axis=(1, 2))
    return entropy


def _max_abs_change(vecs: np.ndarray, boosted: np.ndarray, partitions) -> float:
    """Largest |entropy change| between matching rows of two (cells, 36) batches."""
    changes = [_linear_entropy(boosted, p) - _linear_entropy(vecs, p) for p in partitions]
    return float(np.abs(changes).max())


def _check_separable_momentum(boost_fn: BoostFn) -> tuple[bool, str]:
    rng = random.Random(_SEED + 4)
    vecs, boosted = [], []
    for alpha in (0.0, math.pi / 2):
        mom = momentum_state(alpha)
        for _ in range(10):
            vec = np.kron(mom, _random_spin_state(rng))
            omega = rng.uniform(0.0, math.pi / 2)
            vecs.append(vec)
            boosted.append(boost_fn(omega) @ vec)
    worst = _max_abs_change(np.array(vecs), np.array(boosted), PARTITIONS.values())
    return worst < CONSERVATION_TOL, (
        f"max |dE| for product momentum across all partitions = {worst:.3e}"
    )


def _check_invariant_state(boost_fn: BoostFn) -> tuple[bool, str]:
    spin = spin_state(NAMED_STATES["inv3"])
    vecs = [np.kron(momentum_state(alpha), spin) for alpha in (math.pi / 4, 0.9)]
    worst = float(np.max([
        np.linalg.norm(boost_fn(omega) @ vec - vec)
        for vec in vecs
        for omega in (0.2, math.pi / 4, math.pi / 2)
    ]))
    return worst < 1e-10, f"max |U psi - psi| for the invariant spin pattern = {worst:.3e}"


def _check_alpha_scaling(boost_fn: BoostFn) -> tuple[bool, str]:
    omega = math.pi / 5
    u = boost_fn(omega)
    spins = (
        spin_state(SpinParams(SpinFamily.S1, math.pi / 2, math.pi / 2)),
        spin_state(SpinParams(SpinFamily.S1, 1.1, 2.3)),
        spin_state(SpinParams(SpinFamily.S2, math.pi / 2, math.pi / 4)),
    )
    alphas = np.array([0.15, 0.4, math.pi / 4, 1.1])
    vecs = np.array([np.kron(momentum_state(alpha), spin) for spin in spins for alpha in alphas])
    boosted = vecs @ u.T
    spreads = [0.0]
    for partition in (PARTITIONS["1vs3"], PARTITIONS["SvsP"]):
        change = _linear_entropy(boosted, partition) - _linear_entropy(vecs, partition)
        # one row of ratios per spin, one column per alpha
        for ratios in change.reshape(len(spins), alphas.size) / np.sin(2 * alphas) ** 2:
            scale = np.abs(ratios).max()
            if not scale <= 1e-12:
                spreads.append((ratios.max() - ratios.min()) / scale)
    worst = float(np.max(spreads))
    return worst < 1e-6, f"max relative spread of dE / sin^2(2 alpha) = {worst:.3e}"


def _check_sign_flip_invariance() -> tuple[bool, str]:
    thetas = np.linspace(0.0, math.pi, 7)
    phis = np.linspace(0.0, 2 * math.pi, 9)
    mom = momentum_state(math.pi / 4)
    vecs = np.array([
        np.kron(mom, spin_state(SpinParams(SpinFamily.S1, float(theta), float(phi))))
        for theta in thetas
        for phi in phis
    ])
    unboosted = {name: _linear_entropy(vecs, p) for name, p in PARTITIONS.items()}
    defects = []
    for omega in (math.pi / 8, math.pi / 2):
        flipped = vecs @ boost_operator(-omega).T
        for name, partition in PARTITIONS.items():
            plus = delta_e_grid(SpinFamily.S1, math.pi / 4, omega, partition, thetas, phis)
            flip = _linear_entropy(flipped, partition) - unboosted[name]
            defects.append(np.abs(plus.ravel() - flip).max())
    worst = float(np.max(defects))
    return worst < MATRIX_TOL, f"max |dE(+) - dE(-)| over sampled grids = {worst:.3e}"


def _check_entropy_bounds() -> tuple[bool, str]:
    rng = random.Random(_SEED + 5)
    vecs = []
    for _ in range(30):
        draws = [rng.gauss(0.0, 1.0) for _ in range(72)]
        raw = np.array(draws[:36]) + 1j * np.array(draws[36:])
        vecs.append(raw / np.linalg.norm(raw))
    batch = np.array(vecs)
    entropies = {name: _linear_entropy(batch, p) for name, p in PARTITIONS.items()}
    issues = []
    for k in range(len(batch)):
        for partition in PARTITIONS.values():
            value = entropies[partition.name][k]
            limit = partition.max_entropy()
            if value < -1e-12 or value > limit + 1e-12:
                issues.append(
                    f"{partition.name}: {value:.6f} outside [0, {limit:.6f}]"
                )
    if issues:
        return False, "; ".join(issues[:3])
    return True, "all sampled entropies within partition bounds"


def check_suite(boost_fn: BoostFn | None = None) -> CheckReport:
    """Run every self-check against the supplied boost operator factory.

    The table below is the one place that names the checks and fixes their
    order. A check that raises is reported as failed, with the exception as
    its detail.
    """
    active = boost_operator if boost_fn is None else boost_fn
    checks: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
        ("wigner_d_matches_exponential", _check_wigner_d_exponential),
        ("wigner_angle_properties", _check_wigner_angle_properties),
        ("boost_unitarity", lambda: _check_boost_unitarity(active)),
        ("boost_block_diagonal", lambda: _check_boost_block_structure(active)),
        ("boost_factorizes_per_particle", lambda: _check_boost_factorization(active)),
        ("particle_partition_conservation", lambda: _check_conservation(active)),
        ("separable_momentum_is_inert", lambda: _check_separable_momentum(active)),
        ("invariant_state_is_fixed", lambda: _check_invariant_state(active)),
        ("alpha_scaling_constancy", lambda: _check_alpha_scaling(active)),
        ("global_sign_flip_invariance", _check_sign_flip_invariance),
        ("entropy_bounds", _check_entropy_bounds),
    )
    results = []
    for name, check in checks:
        try:
            passed, detail = check()
        except Exception as exc:  # surface as a failed check, not a crash
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return CheckReport(tuple(results))
