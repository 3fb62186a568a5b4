"""Entanglement-measure tests: partitions, linear entropy, boost-induced change."""

import math

import numpy as np
import pytest
from helpers import assemble, entropy, permute_factors

from spinboost.entanglement import (
    PARTITIONS,
    Partition,
    delta_e,
    family_entropies,
    linear_entropy,
    parse_partition,
)
from spinboost.lorentz import boost_operator
from spinboost.states import (
    NAMED_STATES,
    SpinFamily,
    SpinParams,
    get_named_state,
    momentum_state,
    spin_state,
)
from spinboost.tensor import (
    FactorOrder,
    PureState,
    SubsystemLabel,
    batch_purity,
)

PA, PB, SA, SB = (
    SubsystemLabel.PA,
    SubsystemLabel.PB,
    SubsystemLabel.SA,
    SubsystemLabel.SB,
)


def family_state(rng):
    family = SpinFamily.S1 if rng.integers(2) else SpinFamily.S2
    params = SpinParams(
        family, float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2 * math.pi))
    )
    alpha = float(rng.uniform(0.0, math.pi))
    return assemble(spin_state(params), momentum_state(alpha))


def test_partition_catalog_structure():
    assert PARTITIONS["AvsB"].parts == (frozenset({PA, SA}), frozenset({PB, SB}))
    assert PARTITIONS["mixed"].parts == (frozenset({PA, SB}), frozenset({SA, PB}))
    assert PARTITIONS["SvsP"].parts == (frozenset({SA, SB}), frozenset({PA, PB}))
    assert PARTITIONS["1vs3"].parts == (
        frozenset({PA}),
        frozenset({PB}),
        frozenset({SA}),
        frozenset({SB}),
    )


def test_partition_max_entropy_values():
    assert abs(PARTITIONS["AvsB"].max_entropy() - 5.0 / 3.0) < 1e-15
    assert abs(PARTITIONS["mixed"].max_entropy() - 5.0 / 3.0) < 1e-15
    assert abs(PARTITIONS["SvsP"].max_entropy() - 59.0 / 36.0) < 1e-15
    assert abs(PARTITIONS["1vs3"].max_entropy() - 7.0 / 3.0) < 1e-15


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition("bad", (frozenset({PA, SA}), frozenset({SA, SB})))
    with pytest.raises(ValueError):
        Partition("bad", (frozenset(), frozenset({SA})))


def test_parse_partition_aliases():
    assert parse_partition("avb") is PARTITIONS["AvsB"]
    assert parse_partition("mixed") is PARTITIONS["mixed"]
    assert parse_partition("svp") is PARTITIONS["SvsP"]
    assert parse_partition("1v3") is PARTITIONS["1vs3"]
    assert parse_partition("AvsB") is PARTITIONS["AvsB"]
    with pytest.raises(ValueError):
        parse_partition("diagonal")


def test_linear_entropy_product_state_is_zero():
    vec = np.zeros(36, dtype=complex)
    vec[17] = 1.0
    for partition in PARTITIONS.values():
        assert entropy(vec, partition) == 0.0


def test_linear_entropy_spin_entangled_state_across_svsp_cut():
    # maximally entangled spins with product momentum: zero across the
    # spin/momentum cut, maximal within the spin pair
    spin = spin_state(SpinParams(SpinFamily.S1, math.pi / 4, 0.0))
    psi = assemble(spin, momentum_state(0.0))
    assert abs(entropy(psi.amplitudes, PARTITIONS["SvsP"])) < 1e-14


def test_linear_entropy_invariant_spin_with_plus_minus_momentum():
    """Frozen value: both single-particle reductions are I/6-like mixtures.

    The three-term spin state reduces each spin to I3/3 while the momentum
    factors stay pure, so each particle contributes 1 - 1/3.
    """
    psi = assemble(spin_state(NAMED_STATES["inv3"]), momentum_state(0.0))
    value = entropy(psi.amplitudes, PARTITIONS["AvsB"])
    assert abs(value - 4.0 / 3.0) < 1e-12


def test_linear_entropy_matches_reordered_factors_and_per_row_values():
    rng = np.random.default_rng(5)
    psi = family_state(rng)
    # the same state with its factors reordered, so kept axes are not canonical
    moved = permute_factors(psi, FactorOrder((SB, PA, SA, PB)))
    for partition in PARTITIONS.values():
        a = entropy(psi.amplitudes, partition)
        moved_entropy = sum(
            1.0 - batch_purity(moved.amplitudes[:, None], part, moved.order)
            for part in partition.parts
        )[0]
        assert abs(moved_entropy - a) < 1e-14
        for part in partition.parts:
            moved_purity = batch_purity(moved.amplitudes[:, None], part, moved.order)[0]
            assert abs(moved_purity - batch_purity(psi.amplitudes[:, None], part)[0]) < 1e-14
    # a (cells, 36) batch gives exactly the per-row values
    rows = np.array([family_state(rng).amplitudes for _ in range(6)])
    for partition in PARTITIONS.values():
        batch = linear_entropy(rows, partition)
        assert batch.shape == (6,)
        assert batch.tolist() == [entropy(row, partition) for row in rows]
        for part in partition.parts:
            purities = batch_purity(rows.T, part)
            assert purities.tolist() == [batch_purity(row[:, None], part)[0] for row in rows]


@pytest.mark.parametrize("family", list(SpinFamily))
def test_family_entropies_match_dense_route(family):
    """The two-branch evaluator agrees with assembled 36-dim states and the dense boost."""
    rng = np.random.default_rng(29)
    thetas = rng.uniform(0.0, math.pi, 12)
    phis = rng.uniform(0.0, 2 * math.pi, 12)
    spins = [spin_state(SpinParams(family, t, p)) for t, p in zip(thetas, phis)]
    for alpha in (0.0, 0.7, math.pi / 4):
        psi = np.array([assemble(spin, momentum_state(alpha)).amplitudes for spin in spins])
        for omega in (0.0, math.pi / 8, math.pi / 2, 2.0):
            boosted = psi @ boost_operator(omega).T
            for partition in PARTITIONS.values():
                before, after = family_entropies(family, alpha, omega, partition, thetas, phis)
                assert np.abs(before - linear_entropy(psi, partition)).max() < 1e-14
                assert np.abs(after - linear_entropy(boosted, partition)).max() < 1e-14


@pytest.mark.parametrize("partition", list(PARTITIONS))
def test_family_entropies_keep_no_state_between_calls(partition, monkeypatch):
    """A repeat call, and a call after one of another size, give the first call's arrays.

    Small chunks give every call several chunks, with a short last chunk.
    """
    monkeypatch.setattr("spinboost.entanglement.CHUNK_CELLS", 16)
    rng = np.random.default_rng(31)
    thetas = rng.uniform(0.0, math.pi, 50)
    phis = rng.uniform(0.0, 2 * math.pi, 50)
    part = PARTITIONS[partition]

    def evaluate():
        return family_entropies(SpinFamily.S1, 0.7, math.pi / 8, part, thetas, phis)

    first = evaluate()
    kept = [array.copy() for array in first]
    repeat = evaluate()
    family_entropies(SpinFamily.S2, 0.3, 1.2, part, thetas[:7], phis[:7])
    family_entropies(SpinFamily.S2, 1.1, 0.4, part, np.tile(thetas, 3), np.tile(phis, 3))
    # first is checked last: no call returns memory that a later call writes into
    for result in (repeat, evaluate(), first):
        assert all(np.array_equal(a, b) for a, b in zip(result, kept))


def test_family_entropies_reject_a_populated_empty_sector(monkeypatch):
    """|p+ p+> or |p- p-> amplitude would be lost by the two-branch rows, so it is refused."""
    for sector in (0, 3):
        def four_sector_state(alpha, sector=sector):
            vec = momentum_state(alpha)
            vec[sector] = 1e-3
            return vec

        monkeypatch.setattr("spinboost.entanglement.momentum_state", four_sector_state)
        with pytest.raises(ValueError):
            family_entropies(SpinFamily.S1, 0.7, 0.3, PARTITIONS["AvsB"], [1.0], [2.0])


def test_delta_e_zero_boost_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        psi_params = SpinParams(
            SpinFamily.S1, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
        )
        for partition in PARTITIONS.values():
            res = delta_e(psi_params, 0.77, 0.0, partition)
            assert res.delta == 0.0


FROZEN_DELTA_E = (
    # spin, alpha, omega, partition, expected, tol
    ("phi-plus", math.pi / 4, math.pi / 8, "1vs3", 0.125, 1e-12),
    ("phi-minus", math.pi / 4, math.pi / 8, "1vs3", 0.125, 1e-12),
    ("s00", math.pi / 4, math.pi / 8, "1vs3", 0.5, 1e-12),
    ("s00", math.pi / 4, math.pi / 2, "1vs3", 0.0, 1e-12),
    ("bell-minus", math.pi / 4, math.pi / 8, "SvsP", 0.5, 1e-12),
    ("bell-minus", math.pi / 4, math.pi / 2, "SvsP", 0.0, 1e-10),
    ("inv3", math.pi / 4, math.pi / 4, "SvsP", 0.0, 1e-12),
    ("inv3", math.pi / 4, math.pi / 2, "1vs3", 0.0, 1e-12),
)


@pytest.mark.parametrize("spin,alpha,omega,partition,expected,tol", FROZEN_DELTA_E)
def test_delta_e_frozen_values(spin, alpha, omega, partition, expected, tol):
    res = delta_e(get_named_state(spin), alpha, omega, PARTITIONS[partition])
    assert abs(res.delta - expected) < tol
    assert res.delta == res.e_after - res.e_before


def test_delta_e_eleven_state_closed_form():
    """|1 1> under the single-subsystem sum follows 1 - cos(omega)^4."""
    for omega in (0.2, math.pi / 8, 1.1):
        res = delta_e(
            SpinParams(SpinFamily.S1, math.pi / 2, 0.0), math.pi / 4, omega, PARTITIONS["1vs3"]
        )
        assert abs(res.delta - (1.0 - math.cos(omega) ** 4)) < 1e-12


def test_delta_e_alpha_scaling_follows_sin_squared():
    """Regression: the measured alpha scale factor is sin(2 alpha)^2."""
    omega = math.pi / 8
    for name, partition in (("s00", "1vs3"), ("phi-plus", "1vs3"), ("bell-plus", "SvsP")):
        base = delta_e(get_named_state(name), math.pi / 4, omega, PARTITIONS[partition]).delta
        for alpha in (0.2, math.pi / 8, 1.0, 1.4):
            scaled = delta_e(get_named_state(name), alpha, omega, PARTITIONS[partition]).delta
            assert abs(scaled - base * math.sin(2 * alpha) ** 2) < 1e-12


def test_separable_momentum_gives_zero_change_everywhere():
    rng = np.random.default_rng(13)
    for alpha in (0.0, math.pi / 2, math.pi):
        for _ in range(5):
            params = SpinParams(
                SpinFamily.S2,
                float(rng.uniform(0, math.pi)),
                float(rng.uniform(0, 2 * math.pi)),
            )
            for partition in PARTITIONS.values():
                res = delta_e(params, alpha, float(rng.uniform(0, math.pi / 2)), partition)
                assert abs(res.delta) < 1e-12


def test_entropy_bounds_on_boosted_family_states():
    rng = np.random.default_rng(17)
    for _ in range(10):
        psi = family_state(rng)
        boosted = PureState(boost_operator(float(rng.uniform(0, math.pi / 2))) @ psi.amplitudes)
        for partition in PARTITIONS.values():
            for state in (psi, boosted):
                value = entropy(state.amplitudes, partition)
                assert -1e-12 <= value <= partition.max_entropy() + 1e-12


def test_momentum_phase_is_a_gauge():
    """A phase on the second momentum amplitude shifts nothing observable."""
    alpha, phase = math.pi / 4, 1.1
    spin = spin_state(SpinParams(SpinFamily.S1, 1.0, 2.2))
    plain = momentum_state(alpha)
    phased = plain.copy()
    phased[2] *= np.exp(1j * phase)
    psi_plain = assemble(spin, plain)
    psi_phased = assemble(spin, phased)
    for omega in (0.0, math.pi / 8, math.pi / 2):
        u = boost_operator(omega)
        for partition in PARTITIONS.values():
            a = entropy(u @ psi_plain.amplitudes, partition)
            b = entropy(u @ psi_phased.amplitudes, partition)
            assert abs(a - b) < 1e-12
