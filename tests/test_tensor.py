"""Tensor-core tests: factor bookkeeping, partial trace, purity."""

import numpy as np
import pytest
from helpers import permute_factors

from spinboost.tensor import (
    CANONICAL_ORDER,
    DensityMatrix,
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


def random_state(rng, n=36):
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return raw / np.linalg.norm(raw)


def brute_force_reduction(vec, keep_axes):
    """Independent partial-trace oracle via explicit index loops."""
    dims = (2, 2, 3, 3)
    tens = np.asarray(vec).reshape(dims)
    keep_dims = [dims[ax] for ax in keep_axes]
    dk = int(np.prod(keep_dims))
    rho = np.zeros((dk, dk), dtype=complex)
    for flat_i in range(dk):
        for flat_j in range(dk):
            idx_i = np.unravel_index(flat_i, keep_dims)
            idx_j = np.unravel_index(flat_j, keep_dims)
            total = 0.0 + 0.0j
            for rest in np.ndindex(*[dims[ax] for ax in range(4) if ax not in keep_axes]):
                full_i = [0] * 4
                full_j = [0] * 4
                for pos, ax in enumerate(keep_axes):
                    full_i[ax] = idx_i[pos]
                    full_j[ax] = idx_j[pos]
                rest_axes = [ax for ax in range(4) if ax not in keep_axes]
                for pos, ax in enumerate(rest_axes):
                    full_i[ax] = rest[pos]
                    full_j[ax] = rest[pos]
                total += tens[tuple(full_i)] * np.conj(tens[tuple(full_j)])
            rho[flat_i, flat_j] = total
    return rho


def test_canonical_order_layout():
    assert CANONICAL_ORDER.labels == (PA, PB, SA, SB)
    assert CANONICAL_ORDER.dims == (2, 2, 3, 3)
    assert CANONICAL_ORDER.total_dim == 36
    assert CANONICAL_ORDER.axis(SA) == 2


def test_factor_order_rejects_duplicates_and_bad_dims():
    with pytest.raises(ValueError):
        FactorOrder((PA, PA))


def test_pure_state_validation():
    vec = np.zeros(36, dtype=complex)
    vec[0] = 1.0
    PureState(vec)
    with pytest.raises(ValueError):
        PureState(vec * 2.0)
    with pytest.raises(ValueError):
        PureState(np.ones(35) / np.sqrt(35))


def test_density_matrix_validation():
    rho = np.eye(36) / 36.0
    DensityMatrix(rho, CANONICAL_ORDER)
    bad = rho.copy().astype(complex)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        DensityMatrix(bad, CANONICAL_ORDER)
    with pytest.raises(ValueError):
        DensityMatrix(rho * 2.0, CANONICAL_ORDER)


@pytest.mark.parametrize(
    "keep",
    [
        {PA},
        {SB},
        {SA, SB},
        {PA, SA},
        {PA, PB},
        {PB, SA, SB},
    ],
)
def test_partial_trace_against_brute_force(keep):
    rng = np.random.default_rng(11)
    vec = random_state(rng)
    rho = outer(PureState(vec))
    keep_axes = sorted(CANONICAL_ORDER.axis(label) for label in keep)
    expected = brute_force_reduction(vec, keep_axes)
    got = partial_trace(rho, keep)
    assert np.max(np.abs(got.entries - expected)) < 1e-13
    assert abs(np.trace(got.entries) - 1.0) < 1e-12


def test_partial_trace_emits_canonical_factor_order():
    rng = np.random.default_rng(13)
    rho = outer(PureState(random_state(rng)))
    reduced = partial_trace(rho, [SB, PA])
    assert reduced.order.labels == (PA, SB)


def test_partial_trace_rejects_empty_keep():
    rng = np.random.default_rng(17)
    rho = outer(PureState(random_state(rng)))
    with pytest.raises(ValueError):
        partial_trace(rho, [])


def test_permute_factors_basis_index_mapping():
    # canonical index = ((pA*2 + pB)*3 + sA)*3 + sB
    vec = np.zeros(36, dtype=complex)
    vec[((1 * 2 + 0) * 3 + 2) * 3 + 1] = 1.0  # pA=1, pB=0, sA=2, sB=1
    psi = PureState(vec)
    particle_order = FactorOrder((PA, SA, PB, SB))
    moved = permute_factors(psi, particle_order)
    # new index = ((pA*3 + sA)*2 + pB)*3 + sB
    expected_index = ((1 * 3 + 2) * 2 + 0) * 3 + 1
    assert moved.amplitudes[expected_index] == 1.0
    back = permute_factors(moved, CANONICAL_ORDER)
    assert np.array_equal(back.amplitudes, vec)

