"""Tensor-core tests: factor bookkeeping, partial trace, purity, batched Gram entries."""

import itertools
import math

import numpy as np
import pytest
from helpers import permute_factors

from spinboost.tensor import (
    CANONICAL_ORDER,
    DensityMatrix,
    FactorOrder,
    PureState,
    SubsystemLabel,
    batch_gram,
    kron_all,
    outer,
    partial_trace,
    permute_operator,
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


def test_kron_all_matches_chained_kron():
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((d, d)) for d in (2, 2, 3, 3)]
    chained = np.kron(np.kron(np.kron(mats[0], mats[1]), mats[2]), mats[3])
    assert np.array_equal(kron_all(*mats), chained)
    assert np.array_equal(kron_all(mats[0], mats[2]), np.kron(mats[0], mats[2]))


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


def gram_purity(cols, keep, order=CANONICAL_ORDER):
    """Purity of each column, summed here as sum |g|^2 over its batch_gram entries."""
    return (np.abs(batch_gram(cols, keep, order)) ** 2).sum(axis=0)


def test_batch_gram_real_columns_match_complex_columns():
    rng = np.random.default_rng(29)
    rows = rng.standard_normal((8, 36))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    for size in range(1, 5):
        for keep in itertools.combinations((PA, PB, SA, SB), size):
            real = batch_gram(rows.T, keep, CANONICAL_ORDER)
            assert real.dtype == np.float64
            complex_ = batch_gram(rows.T.astype(complex), keep, CANONICAL_ORDER)
            assert complex_.dtype == np.complex128
            assert np.max(np.abs(real - complex_)) < 1e-14


def test_batch_gram_either_side_matches_partial_trace():
    """Every kept set, reduced on whichever side is smaller, has the oracle's purity."""
    rng = np.random.default_rng(31)
    moved_order = FactorOrder((SB, PA, SA, PB))
    real = rng.standard_normal(36)
    states = [PureState(random_state(rng)), PureState(real / np.linalg.norm(real))]
    states += [permute_factors(psi, moved_order) for psi in states]
    for psi in states:
        rho = outer(psi)
        for size in range(1, 5):
            for keep in itertools.combinations((PA, PB, SA, SB), size):
                via_trace = purity(partial_trace(rho, keep))
                via_gram = gram_purity(psi.amplitudes[:, None], keep, psi.order)[0]
                assert abs(via_trace - via_gram) < 1e-12


def test_batch_gram_columns_match_one_column_calls_bit_for_bit():
    """No sum runs along the cell axis, so batching cannot move a bit."""
    rng = np.random.default_rng(37)
    real = rng.standard_normal((36, 11))
    moved_order = FactorOrder((SB, PA, SA, PB))
    for cols in (real, real + 1j * rng.standard_normal((36, 11))):
        for order in (CANONICAL_ORDER, moved_order):
            for size in range(1, 5):
                for keep in itertools.combinations((PA, PB, SA, SB), size):
                    batch = batch_gram(cols, keep, order)
                    alone = np.hstack([batch_gram(cols[:, [k]], keep, order) for k in range(11)])
                    assert batch.dtype == cols.dtype
                    assert batch.tolist() == alone.tolist()


def front_to_back_gram(col, keep, order):
    """Gram entries of one real column in plain Python, in batch_gram's order.

    The Gram matrix is taken on the smaller side of the cut (the kept side
    on a tie). Its terms are added over the other side's indices front to
    back in row-major order, and its entries are listed row-major.
    """
    dims = order.dims
    side = [ax for ax, label in enumerate(order.labels) if label in keep]
    other = [ax for ax in range(len(dims)) if ax not in side]
    if math.prod(dims[ax] for ax in side) > math.prod(dims[ax] for ax in other):
        side, other = other, side
    tens = col.reshape(dims)

    def amplitude(side_index, other_index):
        index = [0] * len(dims)
        for ax, i in zip(side + other, side_index + other_index):
            index[ax] = i
        return float(tens[tuple(index)])

    side_indices = list(itertools.product(*(range(dims[ax]) for ax in side)))
    gram = [[0.0] * len(side_indices) for _ in side_indices]
    for o in itertools.product(*(range(dims[ax]) for ax in other)):
        for i, si in enumerate(side_indices):
            for j, sj in enumerate(side_indices):
                gram[i][j] += amplitude(si, o) * amplitude(sj, o)
    return [entry for row in gram for entry in row]


def test_batch_gram_sums_front_to_back_bit_for_bit():
    """The evaluator's bits depend on this order: smaller side, terms front to back, row-major."""
    rng = np.random.default_rng(41)
    cols = rng.standard_normal((36, 3))
    for order in (CANONICAL_ORDER, FactorOrder((SB, PA, SA, PB))):
        for size in range(1, 5):
            for keep in itertools.combinations((PA, PB, SA, SB), size):
                expected = [front_to_back_gram(cols[:, k], keep, order) for k in range(3)]
                assert batch_gram(cols, keep, order).T.tolist() == expected


def test_batch_gram_purity_bounds():
    rng = np.random.default_rng(23)
    vec = random_state(rng)
    for keep, dim in (({PA}, 2), ({SA}, 3), ({SA, SB}, 9)):
        p = gram_purity(vec[:, None], keep)[0]
        assert 1.0 / dim - 1e-12 <= p <= 1.0 + 1e-12


def test_batch_gram_of_product_basis_state_has_purity_one():
    vec = np.zeros(36, dtype=complex)
    vec[5] = 1.0
    for keep in ({PA}, {PB}, {SA}, {SB}, {PA, SB}, {SA, SB}):
        assert abs(gram_purity(vec[:, None], keep)[0] - 1.0) < 1e-15


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


def test_permute_operator_reorders_product_operators():
    rng = np.random.default_rng(29)
    a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    canonical = kron_all(a2, b2, c3, d3)
    particle_order = FactorOrder((PA, SA, PB, SB))
    moved = permute_operator(canonical, CANONICAL_ORDER, particle_order)
    assert np.max(np.abs(moved - kron_all(a2, c3, b2, d3))) < 1e-13


def test_permute_operator_consistent_with_state_permutation():
    rng = np.random.default_rng(31)
    vec = random_state(rng)
    op = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    particle_order = FactorOrder((PA, SA, PB, SB))
    lhs = permute_operator(op, CANONICAL_ORDER, particle_order) @ permute_factors(
        PureState(vec), particle_order
    ).amplitudes
    rhs_state = op @ vec
    rhs_state = rhs_state / np.linalg.norm(rhs_state)
    lhs = lhs / np.linalg.norm(lhs)
    rhs = permute_factors(PureState(rhs_state), particle_order).amplitudes
    assert np.max(np.abs(lhs - rhs)) < 1e-12
