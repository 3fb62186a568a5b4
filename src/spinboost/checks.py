"""Self-diagnostic suite exercising the numerical identities the engine relies on.

Every check recomputes its target through an independent route (spectral
matrix exponentials, brute-force reshapes, closed-form values) and compares
against the production code path. The boost operator used by the
state-dependent checks can be swapped out, so a defective operator is
reported as a failed check rather than an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entanglement import PARTITIONS, linear_entropy
from .lorentz import (
    boost_operator,
    jy_matrix,
    single_particle_boost,
    wigner_angle,
    wigner_d,
)
from .states import (
    NAMED_STATES,
    SpinFamily,
    SpinParams,
    momentum_state,
    spin_state,
)
from .sweep import delta_e_grid
from .tensor import (
    CANONICAL_ORDER,
    FactorOrder,
    SubsystemLabel,
    kron_all,
    permute_operator,
)

MATRIX_TOL = 1e-12
CONSERVATION_TOL = 1e-10
_SEED = 20240817

BoostFn = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CheckReport:
    results: tuple[CheckResult, ...]

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
    rng = np.random.default_rng(_SEED)
    jy = jy_matrix()
    worst = 0.0
    for beta in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
        direct = wigner_d(float(beta))
        spectral = _expm_spectral(jy, -1j * float(beta))
        worst = max(worst, float(np.abs(direct - spectral).max()))
    return worst < MATRIX_TOL, f"max |closed form - expm(-i beta Jy)| = {worst:.3e}"


def _check_wigner_angle_properties() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 1)
    issues = []
    for _ in range(50):
        xi, eta = rng.uniform(0.0, 10.0, size=2)
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
    rng = np.random.default_rng(_SEED + 2)
    eye = np.eye(36)
    # np.max, unlike the builtin max, keeps a NaN, and a NaN fails the comparison below
    worst = float(np.max([
        np.abs(u.conj().T @ u - eye).max()
        for u in map(boost_fn, rng.uniform(0.0, math.pi / 2, size=20).tolist())
    ]))
    return worst < MATRIX_TOL, f"max |U^dag U - I| = {worst:.3e} over 20 angles"


def _check_boost_block_structure(boost_fn: BoostFn) -> tuple[bool, str]:
    u = boost_fn(0.7)
    blocks = u.reshape(4, 9, 4, 9)
    off = float(np.max([np.abs(blocks[a, :, b, :]).max()
                        for a in range(4) for b in range(4) if a != b]))
    return off < MATRIX_TOL, f"max coupling between distinct momentum sectors = {off:.3e}"


def _check_boost_factorization(boost_fn: BoostFn) -> tuple[bool, str]:
    particle_order = FactorOrder(
        (SubsystemLabel.PA, SubsystemLabel.SA, SubsystemLabel.PB, SubsystemLabel.SB)
    )
    worst = 0.0
    for omega in (0.3, 1.1):
        u = permute_operator(boost_fn(omega), CANONICAL_ORDER, particle_order)
        best = math.inf
        for sign in (1.0, -1.0):
            sp = single_particle_boost(sign * omega)
            best = min(best, float(np.abs(u - kron_all(sp, sp)).max()))
        worst = max(worst, best)
    return worst < MATRIX_TOL, (
        f"max |U - U_single x U_single| = {worst:.3e} after particle reordering"
    )


def _random_spin_state(rng: np.random.Generator) -> np.ndarray:
    """Spin vector of a family member with family, theta and phi drawn in that order."""
    family = SpinFamily.S1 if rng.integers(2) else SpinFamily.S2
    theta = float(rng.uniform(0.0, math.pi))
    phi = float(rng.uniform(0.0, 2 * math.pi))
    return spin_state(SpinParams(family, theta, phi))


def _check_conservation(boost_fn: BoostFn) -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 3)
    conserved = (PARTITIONS["AvsB"], PARTITIONS["mixed"])
    vecs, boosted = [], []
    for _ in range(50):
        spin = _random_spin_state(rng)
        alpha = float(rng.uniform(0.0, math.pi))
        vec = np.kron(momentum_state(alpha), spin)
        omega = float(rng.uniform(0.0, math.pi / 2))
        vecs.append(vec)
        boosted.append(boost_fn(omega) @ vec)
    worst = _max_abs_change(np.array(vecs), np.array(boosted), conserved)
    return worst < CONSERVATION_TOL, (
        f"max |dE| over AvsB and mixed on 50 family draws = {worst:.3e}"
    )


def _max_abs_change(vecs: np.ndarray, boosted: np.ndarray, partitions) -> float:
    """Largest |entropy change| between matching rows of two (cells, 36) batches."""
    changes = [linear_entropy(boosted, p) - linear_entropy(vecs, p) for p in partitions]
    return float(np.abs(changes).max())


def _check_separable_momentum(boost_fn: BoostFn) -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 4)
    vecs, boosted = [], []
    for alpha in (0.0, math.pi / 2):
        mom = momentum_state(alpha)
        for _ in range(10):
            vec = np.kron(mom, _random_spin_state(rng))
            omega = float(rng.uniform(0.0, math.pi / 2))
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
        change = linear_entropy(boosted, partition) - linear_entropy(vecs, partition)
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
    worst = 0.0
    for omega in (math.pi / 8, math.pi / 2):
        for partition in PARTITIONS.values():
            plus = delta_e_grid(
                SpinFamily.S1, math.pi / 4, omega, partition, thetas, phis
            )
            flip = _flipped_delta_e_grid(omega, partition, thetas, phis)
            worst = max(worst, float(np.abs(plus - flip).max()))
    return worst < MATRIX_TOL, f"max |dE(+) - dE(-)| over sampled grids = {worst:.3e}"


def _flipped_delta_e_grid(omega, partition, thetas, phis) -> np.ndarray:
    mom = momentum_state(math.pi / 4)
    vecs = np.array([
        np.kron(mom, spin_state(SpinParams(SpinFamily.S1, float(theta), float(phi))))
        for theta in thetas
        for phi in phis
    ])
    flipped = vecs @ boost_operator(-omega).T
    change = linear_entropy(flipped, partition) - linear_entropy(vecs, partition)
    return change.reshape(thetas.size, phis.size)


def _check_entropy_bounds() -> tuple[bool, str]:
    rng = np.random.default_rng(_SEED + 5)
    vecs = []
    for _ in range(30):
        raw = rng.standard_normal(36) + 1j * rng.standard_normal(36)
        vecs.append(raw / np.linalg.norm(raw))
    batch = np.array(vecs)
    entropies = {name: linear_entropy(batch, p) for name, p in PARTITIONS.items()}
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
