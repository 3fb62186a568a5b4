"""State-family tests: momentum and spin parametrizations, named catalog."""

import math

import numpy as np
import pytest
from helpers import assemble

from spinboost.lorentz import jy_matrix, wigner_d
from spinboost.states import (
    NAMED_STATES,
    SpinFamily,
    SpinParams,
    get_named_state,
    momentum_state,
    spin_state,
)

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


def basis9(*indices_and_values):
    vec = np.zeros(9, dtype=complex)
    for idx, val in indices_and_values:
        vec[idx] = val
    return vec


def test_momentum_state_components():
    alpha = 0.37
    vec = momentum_state(alpha)
    assert vec[0] == 0.0 and vec[3] == 0.0
    assert vec[1] == math.cos(alpha)  # |p+ p->
    assert vec[2] == math.sin(alpha)  # |p- p+>
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-15


def test_spin_state_family_slots():
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        s1 = spin_state(SpinParams(SpinFamily.S1, theta, phi))
        assert abs(np.linalg.norm(s1) - 1.0) < 1e-15
        assert all(s1[i] == 0.0 for i in (1, 2, 3, 5, 6, 7))
        s2 = spin_state(SpinParams(SpinFamily.S2, theta, phi))
        assert abs(np.linalg.norm(s2) - 1.0) < 1e-15
        assert all(s2[i] == 0.0 for i in (0, 1, 3, 5, 7, 8))


def test_spin_state_angle_conventions():
    # S1: theta=pi/2, phi=0 selects |1 1>; theta=0 selects |-1 -1>
    assert np.allclose(
        spin_state(SpinParams(SpinFamily.S1, math.pi / 2, 0.0)), basis9((0, 1.0)), atol=1e-15
    )
    assert np.allclose(spin_state(SpinParams(SpinFamily.S1, 0.0, 1.23)), basis9((8, 1.0)), atol=1e-15)
    # S2: theta=pi/2, phi=pi/2 selects |-1 1>
    assert np.allclose(
        spin_state(SpinParams(SpinFamily.S2, math.pi / 2, math.pi / 2)), basis9((6, 1.0)), atol=1e-12
    )


def test_assemble_index_arithmetic():
    # composite index = ((pA*2 + pB)*3 + sA)*3 + sB with momentum factors first
    mom = np.zeros(4, dtype=complex)
    mom[1] = 1.0  # pA=0, pB=1
    spin = np.zeros(9, dtype=complex)
    spin[4] = 1.0  # sA=1, sB=1
    psi = assemble(spin, mom)
    expected_index = ((0 * 2 + 1) * 3 + 1) * 3 + 1
    assert psi.amplitudes[expected_index] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_assemble_rejects_unnormalized_inputs():
    good_mom = momentum_state(0.3)
    good_spin = spin_state(SpinParams(SpinFamily.S1, 0.8, 0.9))
    with pytest.raises(ValueError):
        assemble(np.multiply(good_spin, 2.0), good_mom)
    with pytest.raises(ValueError):
        assemble(good_spin, np.multiply(good_mom, 0.5))


def test_named_state_vectors_exact():
    expected = {
        "s00": basis9((4, 1.0)),
        "phi-plus": basis9((0, 1 / SQ2), (8, 1 / SQ2)),
        "phi-minus": basis9((0, 1 / SQ2), (8, -1 / SQ2)),
        "bell-plus": basis9((2, 1 / SQ2), (6, 1 / SQ2)),
        "bell-minus": basis9((2, 1 / SQ2), (6, -1 / SQ2)),
        "singlet": basis9((2, 1 / SQ3), (6, 1 / SQ3), (4, -1 / SQ3)),
        "inv3": basis9((0, 1 / SQ3), (4, -1 / SQ3), (8, 1 / SQ3)),
    }
    assert set(NAMED_STATES) == set(expected)
    for name, vec in expected.items():
        got = spin_state(get_named_state(name))
        assert np.max(np.abs(got - vec)) < 1e-15, name


def test_get_named_state_unknown_name():
    with pytest.raises(ValueError, match="bell-minus"):
        get_named_state("nope")


def test_invariant_state_has_zero_defect():
    spin = spin_state(get_named_state("inv3"))
    for omega in np.linspace(0.0, math.pi / 2, 15):
        rotated = np.kron(wigner_d(omega), wigner_d(-omega)) @ spin
        assert np.linalg.norm(rotated - spin) < 1e-12


def test_other_sign_patterns_have_large_defect():
    omega = math.pi / 4
    for sign_00, sign_mm in ((1, 1), (1, -1), (-1, -1)):
        spin = basis9((0, 1 / SQ3), (4, sign_00 / SQ3), (8, sign_mm / SQ3))
        rotated = np.kron(wigner_d(omega), wigner_d(-omega)) @ spin
        assert np.linalg.norm(rotated - spin) > 0.4, (sign_00, sign_mm)


def test_singlet_total_spin_zero():
    """The singlet is annihilated by every total-spin generator."""
    jy = jy_matrix()
    jz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    jp = np.zeros((3, 3), dtype=complex)
    jp[0, 1] = jp[1, 2] = math.sqrt(2.0)
    jx = (jp + jp.conj().T) / 2.0
    singlet = spin_state(get_named_state("singlet"))
    eye = np.eye(3)
    for gen in (jx, jy, jz):
        total = np.kron(gen, eye) + np.kron(eye, gen)
        assert np.max(np.abs(total @ singlet)) < 1e-12
