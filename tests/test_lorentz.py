"""Kinematics tests: Wigner angle, rotation matrices, boost operator."""

import math

import numpy as np
import pytest

from spinboost.kinematics import wigner_angle
from spinboost.lorentz import boost_operator, jy_matrix, single_particle_boost, wigner_d
from spinboost.tensor import CANONICAL_ORDER, FactorOrder, SubsystemLabel, kron_all, permute_operator

PA, PB, SA, SB = (
    SubsystemLabel.PA,
    SubsystemLabel.PB,
    SubsystemLabel.SA,
    SubsystemLabel.SB,
)

PARTICLE_ORDER = FactorOrder((PA, SA, PB, SB))

# frozen reference values, computed independently at 40-digit precision from
# arctan(sinh(xi) sinh(eta) / (cosh(xi) + cosh(eta)))
WIGNER_ANGLE_REFERENCE = (
    (1.0, 1.0, 0.42078396163807286),
    (2.0, 0.5, 0.3688187946067988),
    (0.3, 1.7, 0.20505822918996765),
)


def expm_spectral(hermitian, scale):
    vals, vecs = np.linalg.eigh(hermitian)
    return (vecs * np.exp(scale * vals)) @ vecs.conj().T


@pytest.mark.parametrize("xi,eta,expected", WIGNER_ANGLE_REFERENCE)
def test_wigner_angle_frozen_values(xi, eta, expected):
    assert abs(wigner_angle(xi, eta) - expected) < 1e-15


def test_wigner_angle_symmetry_and_zeros():
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi, eta = rng.uniform(0.0, 8.0, size=2)
        assert wigner_angle(xi, eta) == wigner_angle(eta, xi)
    assert wigner_angle(0.0, 2.5) == 0.0
    assert wigner_angle(2.5, 0.0) == 0.0
    assert wigner_angle(0.0, 0.0) == 0.0


def test_wigner_angle_range_and_limit():
    big = wigner_angle(20.0, 20.0)
    assert big < math.pi / 2
    assert math.pi / 2 - big < 1e-6
    for xi in np.linspace(0.05, 12.0, 30):
        assert 0.0 < wigner_angle(float(xi), 1.3) < math.pi / 2


def test_wigner_angle_monotone_in_each_argument():
    grid = [wigner_angle(float(x), 2.0) for x in np.linspace(0.1, 9.0, 40)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    grid = [wigner_angle(2.0, float(x)) for x in np.linspace(0.1, 9.0, 40)]
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_wigner_angle_rejects_negative_rapidity():
    with pytest.raises(ValueError):
        wigner_angle(-0.1, 1.0)
    with pytest.raises(ValueError):
        wigner_angle(1.0, -2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            wigner_angle(bad, 1.0)
        with pytest.raises(ValueError):
            wigner_angle(1.0, bad)


def test_wigner_angle_past_cosh_overflow():
    # cosh overflows near rapidity 710; the bounded form takes over there
    assert wigner_angle(1000.0, 1000.0) == math.pi / 2
    assert abs(wigner_angle(1000.0, 0.001) - 0.001) < 1e-9
    assert wigner_angle(0.001, 1000.0) == wigner_angle(1000.0, 0.001)
    # the limit in xi at fixed eta is atan(sinh(eta)), on both sides of the switch
    for xi in (700.0, 709.7, 711.0, 1e6):
        assert abs(wigner_angle(xi, 1.0) - math.atan(math.sinh(1.0))) < 1e-15
    # no jump at the switch: nondecreasing up to the one-ulp round-off that
    # the original formula also shows
    grid = [wigner_angle(float(x), 0.5) for x in np.linspace(1.0, 800.0, 50)]
    assert all(b >= a - math.ulp(a) for a, b in zip(grid, grid[1:]))


def test_jy_matrix_spectra():
    jy = jy_matrix()
    assert np.max(np.abs(jy - jy.conj().T)) < 1e-15
    assert np.allclose(np.sort(np.linalg.eigvalsh(jy)), [-1.0, 0.0, 1.0], atol=1e-12)


def test_wigner_d_matches_spectral_exponential():
    """Closed form against an independent matrix-exponential oracle."""
    rng = np.random.default_rng(5)
    jy = jy_matrix()
    for beta in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
        direct = wigner_d(float(beta))
        oracle = expm_spectral(jy, -1j * float(beta))
        assert np.max(np.abs(direct - oracle)) < 1e-12


def test_wigner_d_is_special_orthogonal():
    rng = np.random.default_rng(7)
    for beta in rng.uniform(-6.0, 6.0, size=10):
        d = wigner_d(float(beta))
        assert np.max(np.abs(d @ d.conj().T - np.eye(3))) < 1e-14
        assert np.max(np.abs(d.imag)) == 0.0
        assert abs(np.linalg.det(d) - 1.0) < 1e-13


def test_wigner_d_composition():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        lhs = wigner_d(float(a)) @ wigner_d(float(b))
        rhs = wigner_d(float(a + b))
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_wigner_d_zero_is_identity():
    assert np.array_equal(wigner_d(0.0), np.eye(3, dtype=complex))


def test_wigner_d_sign_flip_conjugation():
    """d(-beta) = M d(beta) M with M = diag(1, -1, 1)."""
    m = np.diag([1.0, -1.0, 1.0])
    for beta in (0.3, math.pi / 8, 1.2, math.pi / 2):
        lhs = wigner_d(-beta)
        rhs = m @ wigner_d(beta) @ m
        assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_wigner_d_half_pi_columns():
    d = wigner_d(math.pi / 2).real
    r = math.sqrt(2.0)
    expected = np.array(
        [
            [0.5, -1 / r, 0.5],
            [1 / r, 0.0, -1 / r],
            [0.5, 1 / r, 0.5],
        ]
    )
    assert np.max(np.abs(d - expected)) < 1e-15


def test_boost_operator_unitary_and_block_diagonal():
    rng = np.random.default_rng(11)
    eye = np.eye(36)
    for omega in rng.uniform(0.0, math.pi / 2, size=10):
        u = boost_operator(float(omega))
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-12
        blocks = u.reshape(4, 9, 4, 9)
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert np.max(np.abs(blocks[a, :, b, :])) == 0.0


def _boost_by_definition(omega):
    """The documented sum over (a, b) of (P_a x P_b) x (d(s_a omega) x d(s_b omega)), by np.kron."""
    projectors = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    signs = (1.0, -1.0)
    u = np.zeros((36, 36), dtype=complex)
    for proj_a, sign_a in zip(projectors, signs):
        for proj_b, sign_b in zip(projectors, signs):
            spins = np.kron(wigner_d(sign_a * omega), wigner_d(sign_b * omega))
            u += np.kron(np.kron(proj_a, proj_b), spins)
    return u


def test_block_built_boost_equals_the_definition():
    rng = np.random.default_rng(19)
    omegas = [0.0, math.pi / 2, -math.pi / 2, -1.3, 7.0, *rng.uniform(-2 * math.pi, 2 * math.pi, 50)]
    for omega in map(float, omegas):
        assert np.array_equal(boost_operator(omega), _boost_by_definition(omega)), omega


def test_boost_operator_zero_angle_is_identity():
    assert np.max(np.abs(boost_operator(0.0) - np.eye(36))) < 1e-15


def test_boost_factorizes_into_single_particle_copies():
    for omega in (0.2, math.pi / 8, 1.0, math.pi / 2):
        u = permute_operator(boost_operator(omega), CANONICAL_ORDER, PARTICLE_ORDER)
        sp = single_particle_boost(omega)
        assert np.max(np.abs(u - kron_all(sp, sp))) < 1e-13


def test_boost_sector_action_on_basis_states():
    """Each momentum sector applies its own signed rotation to both spins."""
    omega = 0.61
    u = boost_operator(omega)
    d_plus = wigner_d(omega)
    d_minus = wigner_d(-omega)
    sector_signs = {(0, 0): (d_plus, d_plus), (0, 1): (d_plus, d_minus),
                    (1, 0): (d_minus, d_plus), (1, 1): (d_minus, d_minus)}
    rng = np.random.default_rng(13)
    for (pa, pb), (da, db) in sector_signs.items():
        spin = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        spin = spin / np.linalg.norm(spin)
        mom = np.zeros(4, dtype=complex)
        mom[pa * 2 + pb] = 1.0
        vec = np.kron(mom, spin)
        expected = np.kron(mom, kron_all(da, db) @ spin)
        assert np.max(np.abs(u @ vec - expected)) < 1e-13


def test_single_particle_boost_unitary():
    for omega in (0.0, 0.4, math.pi / 2):
        sp = single_particle_boost(omega)
        assert np.max(np.abs(sp.conj().T @ sp - np.eye(6))) < 1e-13
