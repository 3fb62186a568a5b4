"""Entanglement-measure tests: partitions, linear entropy, boost-induced change."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from helpers import assemble, entropy, permute_factors

from spinboost import entanglement
from spinboost.checks import _linear_entropy as checks_entropy
from spinboost.entanglement import (
    PARTITIONS,
    Partition,
    delta_e,
    parse_partition,
)
from spinboost.kinematics import wigner_angle
from spinboost.lorentz import boost_operator
from spinboost.states import (
    NAMED_STATES,
    SpinFamily,
    SpinParams,
    _phi_factors,
    get_named_state,
    momentum_state,
    spin_state,
)
from spinboost.sweep import delta_e_grid
from spinboost.tensor import (
    FactorOrder,
    PureState,
    SubsystemLabel,
    outer,
    partial_trace,
    purity,
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
    moved = outer(permute_factors(psi, FactorOrder((SB, PA, SA, PB))))
    for partition in PARTITIONS.values():
        moved_entropy = sum(1.0 - purity(partial_trace(moved, part)) for part in partition.parts)
        assert abs(moved_entropy - entropy(psi.amplitudes, partition)) < 1e-14
    # the checks' batched kept-side reduction gives each row the oracle's value
    raw = rng.standard_normal((3, 36)) + 1j * rng.standard_normal((3, 36))
    rows = np.vstack([
        [family_state(rng).amplitudes for _ in range(6)],
        raw / np.linalg.norm(raw, axis=1, keepdims=True),
    ])
    for partition in PARTITIONS.values():
        batch = checks_entropy(rows, partition)
        assert batch.shape == (9,)
        assert np.abs(batch - [entropy(row, partition) for row in rows]).max() < 1e-14


@pytest.mark.parametrize("family", list(SpinFamily))
def test_family_entropies_match_dense_route(family):
    """The evaluator agrees with assembled 36-dim states, the dense boost and the
    oracle: a point's entropies, and the change of the 1x1 grid at that point."""
    rng = np.random.default_rng(29)
    thetas = rng.uniform(0.0, math.pi, 12)
    phis = rng.uniform(0.0, 2 * math.pi, 12)
    spins = [spin_state(SpinParams(family, t, p)) for t, p in zip(thetas, phis)]
    for alpha in (0.0, 0.7, math.pi / 4):
        psi = np.array([assemble(spin, momentum_state(alpha)).amplitudes for spin in spins])
        for omega in (0.0, math.pi / 8, math.pi / 2, 2.0):
            boosted = psi @ boost_operator(omega).T
            for partition in PARTITIONS.values():
                points = [
                    delta_e(SpinParams(family, t, p), alpha, omega, partition)
                    for t, p in zip(thetas.tolist(), phis.tolist())
                ]
                cells = [
                    delta_e_grid(family, alpha, omega, partition, [t], [p])[0, 0]
                    for t, p in zip(thetas, phis)
                ]
                dense = np.array([
                    [entropy(vec, partition) for vec in pair] for pair in zip(psi, boosted)
                ]).T
                assert np.abs([point.e_before for point in points] - dense[0]).max() < 1e-14
                assert np.abs([point.e_after for point in points] - dense[1]).max() < 1e-14
                assert np.abs(cells - (dense[1] - dense[0])).max() < 1e-14


@pytest.mark.parametrize("partition", list(PARTITIONS))
def test_family_entropies_keep_no_state_between_calls(partition):
    """A repeat call, and a call after one of another size, give the first call's surface."""
    rng = np.random.default_rng(31)
    thetas = rng.uniform(0.0, math.pi, 50)
    phis = rng.uniform(0.0, 2 * math.pi, 50)
    part = PARTITIONS[partition]

    def evaluate():
        return delta_e_grid(SpinFamily.S1, 0.7, math.pi / 8, part, thetas, phis)

    first = evaluate()
    kept = first.copy()
    repeat = evaluate()
    delta_e_grid(SpinFamily.S2, 0.3, 1.2, part, thetas[:7], phis[:7])
    delta_e_grid(SpinFamily.S2, 1.1, 0.4, part, np.tile(thetas, 3), np.tile(phis, 3))
    # first is checked last: no call returns memory that a later call writes into
    for result in (repeat, evaluate(), first):
        assert np.array_equal(result, kept)


# normalized momentum states with weight on |p+ p+> or |p- p->, which the family states leave empty
FOUR_SECTOR_MOMENTA = ([0.3, 0.5, 0.6, math.sqrt(0.3)], [1.0, 0.0, 0.0, 0.0], [0.0, 0.8, 0.0, -0.6])


@pytest.mark.parametrize("momentum", FOUR_SECTOR_MOMENTA, ids=["all-four", "p+p+", "signed"])
def test_family_entropies_match_dense_route_on_four_sector_momenta(momentum, monkeypatch):
    """The evaluator traces every momentum sector alike, so a momentum state that populates
    |p+ p+> or |p- p-> gives the dense route's points and cells too."""
    monkeypatch.setattr("spinboost.entanglement.momentum_state", lambda alpha: list(momentum))
    rng = np.random.default_rng(37)
    thetas = rng.uniform(0.0, math.pi, 3)
    phis = rng.uniform(0.0, 2 * math.pi, 4)
    cells = list(itertools.product(enumerate(thetas.tolist()), enumerate(phis.tolist())))
    for family, omega, partition in itertools.product(
        SpinFamily, (math.pi / 8, 1.2), PARTITIONS.values()
    ):
        surface = delta_e_grid(family, 0.7, omega, partition, thetas, phis)
        for (i, theta), (j, phi) in cells:
            spin = SpinParams(family, theta, phi)
            psi = np.kron(momentum, spin_state(spin))
            before = entropy(psi, partition)
            after = entropy(boost_operator(omega) @ psi, partition)
            point = delta_e(spin, 0.7, omega, partition)
            assert abs(point.e_before - before) < 1e-14
            assert abs(point.e_after - after) < 1e-14
            assert abs(surface[i, j] - (after - before)) < 1e-14


def test_delta_e_zero_boost_is_identity():
    rng = np.random.default_rng(7)
    for family in (SpinFamily.S1, SpinFamily.S2):
        for _ in range(5):
            psi_params = SpinParams(
                family, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
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


def test_coefficient_pass_adds_front_to_back_on_every_python(monkeypatch):
    """The coefficient pass adds its products front to back, as sum() did up to Python 3.11,
    so a point's bits are the same on every supported Python: with math.fsum in place of
    the builtin sum, which from 3.12 on compensates its rounding too, every family's and
    partition's quartics keep their bits, and one point keeps the bits it has on 3.11."""
    cases = [(family, partition) for family in SpinFamily for partition in PARTITIONS.values()]

    def quartics():
        return [[c.hex() for quartic in entanglement._purity_quartics(
                    family, 0.7, (0.0, math.pi / 8, math.pi / 2), partition) for c in quartic]
                for family, partition in cases]

    plain = quartics()
    monkeypatch.setattr(entanglement, "sum", math.fsum, raising=False)
    assert quartics() == plain
    point = delta_e(SpinParams(SpinFamily.S1, 1.1, 2.3), 0.7, math.pi / 8, PARTITIONS["SvsP"])
    assert point.delta.hex() == "0x1.16e33355ca134p-1"


@pytest.mark.parametrize("family", list(SpinFamily))
def test_unboosted_quartic_is_zero_at_every_odd_monomial(family):
    """The zeros that the row kernel (`sweep._float_rows`) leaves out of its sums. Unboosted,
    the three amplitudes sit on three distinct spin basis states (each family's on its own
    sA and its own sB), so every part's purity is even in each amplitude: the before quartic
    is exactly 0.0 at the nine monomials with an odd power, at any alpha and in every
    partition, and the kernel sums only the other six. Two amplitudes on one basis state
    would break this. Monomial 0, x2^4, has the phi factor 1.0 at every phi, so both of the
    kernel's sums start from their first term."""
    odd = [k for k, powers in enumerate(entanglement._QUARTICS) if any(p % 2 for p in powers)]
    assert odd == [1, 3, 5, 6, 7, 8, 10, 12, 13]
    alphas = (0.0, 0.3, math.pi / 4, 1.1, math.pi / 2, -2.0, 7.0)
    for partition, alpha in itertools.product(PARTITIONS.values(), alphas):
        quartic = entanglement._purity_quartics(family, alpha, (0.0,), partition)[0]
        assert [quartic[k] for k in odd] == [0.0] * len(odd), (partition.name, alpha)
    for phi in (0.0, 1e-300, math.pi, 2 * math.pi, -1e3):
        assert entanglement._monomial_factors(_phi_factors(phi))[0] == 1.0


@pytest.mark.parametrize("family", list(SpinFamily))
@pytest.mark.parametrize("partition", list(PARTITIONS))
def test_delta_e_is_a_cosine_series_of_degree_eight_in_omega(family, partition):
    """dE as a function of the boost angle, exactly. Each d1 entry is of degree 1 in
    (cos w, sin w), a coefficient row a product of two, a Gram entry quadratic in the rows
    and a purity a sum of squared Gram entries, and dE is even in w; so dE(w) is
    sum_{j=0..8} a_j cos(j w). The nine a_j, solved from the dense oracle at w = k pi/8,
    give delta_e at seeded angles, outside [0, pi/2] and from rapidities too, within 1e-12;
    and delta_e gives the same bits at -w as at w."""
    partition = PARTITIONS[partition]
    rng = np.random.default_rng(43)
    nodes = np.arange(9) * math.pi / 8

    def cosines(omegas):
        return np.cos(np.outer(omegas, np.arange(9)))

    for _ in range(3):
        theta, phi = float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2 * math.pi))
        alpha = float(rng.uniform(0.0, math.pi))
        spin = SpinParams(family, theta, phi)
        psi = assemble(spin_state(spin), momentum_state(alpha)).amplitudes
        before = entropy(psi, partition)
        samples = [entropy(boost_operator(w) @ psi, partition) - before for w in nodes]
        coefficients = np.linalg.solve(cosines(nodes), samples)
        rapidities = rng.uniform(0.1, 4.0, (2, 2))
        omegas = [*rng.uniform(-3 * math.pi, 3 * math.pi, 6).tolist(), math.pi / 2 + 0.3,
                  *(wigner_angle(xi, eta) for xi, eta in rapidities.tolist())]
        for omega, expected in zip(omegas, cosines(omegas) @ coefficients):
            change = delta_e(spin, alpha, omega, partition).delta
            assert abs(change - expected) < 1e-12, (theta, phi, alpha, omega)
            mirrored = delta_e(spin, alpha, -omega, partition).delta
            assert (mirrored, math.copysign(1.0, mirrored)) == (change, math.copysign(1.0, change))


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


def test_readme_velocity_table_reads_through_delta_e():
    """Every cell of README's "Velocity dependence" table is the `delta_e` change of its
    state and partition at alpha = pi/4 and its omega, to the table's four places; a cell of
    order 1e-15 is a change below 2e-15. So a change that moves a README number fails."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Velocity dependence\n")[1]
    section = section.split("\n## ")[0]
    lines = [line.strip().strip("|") for line in section.splitlines() if line.startswith("|")]
    header, _, *rows = [[cell.replace("`", "").strip() for cell in line.split("|")]
                        for line in lines]
    columns = []
    for cell in header[1:]:
        name, angle = cell.split()
        columns.append((PARTITIONS[name], math.pi / int(angle.removeprefix("pi/"))))
    assert (len(rows), len(columns)) == (4, 6)
    for state, *cells in rows:
        assert len(cells) == len(columns), state
        for (partition, omega), cell in zip(columns, cells):
            delta = delta_e(NAMED_STATES[state], math.pi / 4, omega, partition).delta
            value = float(cell)
            where = (state, partition.name, omega, cell, delta)
            if value < 1e-14:
                assert abs(delta) < 2e-15, where
            else:
                assert abs(delta - value) <= 5e-5, where
