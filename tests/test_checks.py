"""Check-suite tests, including the boost-operator hook negative controls."""

import numpy as np
import pytest

from spinboost import checks, entanglement
from spinboost.checks import check_suite
from spinboost.lorentz import boost_operator, wigner_d
from spinboost.sweep import delta_e_grid

# rows of the (p+, p-) momentum sector, which the family states populate
_POPULATED_ROWS = slice(9, 18)


def by_name(report):
    return {result.name: result for result in report.results}


def test_default_suite_all_pass():
    report = check_suite()
    assert report.passed, [r.name for r in report.results if not r.passed]
    assert len(report.results) == 11


def test_seeded_draws_repeat_the_report():
    """Every sampled input comes from a seeded generator, so two runs report the same text."""
    assert check_suite().to_dict() == check_suite().to_dict()


def test_report_to_dict_shape():
    payload = check_suite().to_dict()
    assert payload["passed"] is True
    # the order that `spinboost check` prints
    assert [entry["name"] for entry in payload["checks"]] == [
        "wigner_d_matches_exponential",
        "wigner_angle_properties",
        "boost_unitarity",
        "boost_block_diagonal",
        "boost_factorizes_per_particle",
        "particle_partition_conservation",
        "separable_momentum_is_inert",
        "invariant_state_is_fixed",
        "alpha_scaling_constancy",
        "global_sign_flip_invariance",
        "entropy_bounds",
    ]
    assert all(entry["detail"] for entry in payload["checks"])


def test_flipped_sign_hook_still_passes():
    """The globally flipped rotation assignment is physically equivalent."""

    def flipped(omega: float) -> np.ndarray:
        return boost_operator(-omega)

    report = check_suite(boost_fn=flipped)
    names = by_name(report)
    assert names["particle_partition_conservation"].passed
    assert names["invariant_state_is_fixed"].passed
    assert names["boost_unitarity"].passed
    assert names["boost_factorizes_per_particle"].passed
    assert report.passed


def _scaled_populated_rows(omega: float) -> np.ndarray:
    u = boost_operator(omega).copy()
    u[_POPULATED_ROWS] *= 1.001
    return u


def test_non_unitary_hook_fails_conservation():
    """Breaking unitarity inside a populated sector must trip conservation."""
    report = check_suite(boost_fn=_scaled_populated_rows)
    names = by_name(report)
    assert not names["boost_unitarity"].passed
    assert not names["particle_partition_conservation"].passed
    assert not report.passed
    # hook-independent checks keep passing
    assert names["wigner_d_matches_exponential"].passed
    assert names["wigner_angle_properties"].passed
    assert names["global_sign_flip_invariance"].passed


def _coupled_sectors(omega: float) -> np.ndarray:
    u = boost_operator(omega).copy()
    u[_POPULATED_ROWS, 18:27] += 1e-3 * np.eye(9)
    return u


_STATE_CHECKS = {
    "boost_unitarity",
    "boost_factorizes_per_particle",
    "particle_partition_conservation",
    "separable_momentum_is_inert",
    "invariant_state_is_fixed",
    "alpha_scaling_constancy",
}


@pytest.mark.parametrize(
    "corrupted, failing",
    [
        (_scaled_populated_rows, _STATE_CHECKS),
        (_coupled_sectors, _STATE_CHECKS | {"boost_block_diagonal"}),
    ],
    ids=["scaled-rows", "coupled-sectors"],
)
def test_corrupted_hook_fails_the_same_checks(corrupted, failing):
    """Each corruption fails exactly the checks that depend on what it breaks."""
    report = check_suite(boost_fn=corrupted)
    assert {r.name for r in report.results if not r.passed} == failing


def test_nan_in_hook_fails_the_entropy_checks():
    """A NaN in the boost reaches the batched entropy changes and fails, not passes, them."""

    def with_nan(omega: float) -> np.ndarray:
        u = boost_operator(omega).copy()
        u[10, 10] = np.nan
        return u

    names = by_name(check_suite(boost_fn=with_nan))
    for name in (
        "particle_partition_conservation",
        "separable_momentum_is_inert",
        "alpha_scaling_constancy",
    ):
        assert not names[name].passed, names[name].detail


def _nan_at(row: int, col: int):
    def with_nan(omega: float) -> np.ndarray:
        u = boost_operator(omega).copy()
        u[row, col] = np.nan
        return u

    return with_nan


def test_nan_in_hook_fails_the_matrix_checks():
    """The maxima over matrix entries and state defects keep a NaN, so it fails them."""
    names = by_name(check_suite(boost_fn=_nan_at(10, 10)))
    for name in ("boost_unitarity", "boost_factorizes_per_particle", "invariant_state_is_fixed"):
        assert not names[name].passed, names[name].detail
        assert "nan" in names[name].detail
    # the NaN sits in a diagonal block; one between the populated sectors fails the block check
    assert names["boost_block_diagonal"].passed
    coupled = by_name(check_suite(boost_fn=_nan_at(10, 20)))["boost_block_diagonal"]
    assert not coupled.passed, coupled.detail


@pytest.mark.parametrize("cells", [np.s_[:], np.s_[3, 4]], ids=["all-cells", "one-cell"])
def test_nan_surface_fails_the_sign_flip_check(cells, monkeypatch):
    """The maximum over the compared surfaces keeps a NaN from the evaluator, so it fails the check."""

    def with_nan(*args):
        surface = delta_e_grid(*args)
        surface[cells] = np.nan
        return surface

    monkeypatch.setattr(checks, "delta_e_grid", with_nan)
    result = by_name(check_suite())["global_sign_flip_invariance"]
    assert not result.passed, result.detail
    assert "nan" in result.detail


def _scaled_gram(monkeypatch):
    """Every coefficient of the evaluator's Gram forms times 1 + 1e-6."""
    exact = entanglement._gram_forms

    def scaled(*args):
        return [[coefficient * (1 + 1e-6) for coefficient in form] for form in exact(*args)]

    monkeypatch.setattr(entanglement, "_gram_forms", scaled)


def _swapped_fold(monkeypatch):
    """The fold onto the quartic monomials sends x0^4 and x0^3 x1 to each other's place."""
    monomials = list(entanglement._MONOMIALS)
    monomials[0], monomials[1] = monomials[1], monomials[0]
    monkeypatch.setattr(entanglement, "_MONOMIALS", tuple(monomials))


def _swapped_axes(monkeypatch):
    """The evaluator reads momentum B from the spin A axis of each row index and spin A from
    the momentum B axis; swapping pA with pB, or sA with sB, would be a physical symmetry."""
    axes = dict(entanglement._AXES)
    pb, sa = entanglement._PB, entanglement._SA
    axes[pb], axes[sa] = axes[sa], axes[pb]
    monkeypatch.setattr(entanglement, "_AXES", axes)


@pytest.mark.parametrize(
    "corrupt",
    [_scaled_gram, _swapped_fold, _swapped_axes],
    ids=["scaled", "swapped-fold", "swapped-axes"],
)
def test_corrupted_gram_kernel_fails_the_sign_flip_check(corrupt, monkeypatch):
    """The checks reduce entropies on a route of their own, so a defect in the evaluator's
    Gram forms, in their fold or in its axis map fails the one check that compares against
    the evaluator, and only that one, on its numbers rather than by raising."""
    corrupt(monkeypatch)
    report = check_suite()
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["global_sign_flip_invariance"]
    assert not failed[0].detail.startswith("raised"), failed[0].detail


def test_nan_closed_form_fails_the_exponential_check(monkeypatch):
    """The maximum over the sampled angles keeps a NaN from the closed form, so it fails the check."""

    def with_nan(beta):
        d = wigner_d(beta)
        d[1, 1] = np.nan
        return d

    monkeypatch.setattr(checks, "wigner_d", with_nan)
    result = by_name(check_suite())["wigner_d_matches_exponential"]
    assert not result.passed, result.detail
    assert "nan" in result.detail


def test_broken_hook_reports_instead_of_raising():
    def broken(omega: float) -> np.ndarray:
        raise RuntimeError("boost unavailable")

    report = check_suite(boost_fn=broken)
    names = by_name(report)
    assert not names["boost_unitarity"].passed
    assert "RuntimeError" in names["boost_unitarity"].detail
    assert names["wigner_angle_properties"].passed
    failed = [r for r in report.results if not r.passed]
    assert {r.name for r in failed} == _STATE_CHECKS | {"boost_block_diagonal"}
    assert all(r.detail.startswith("raised RuntimeError") for r in failed)
    for name in (
        "wigner_d_matches_exponential",
        "wigner_angle_properties",
        "global_sign_flip_invariance",
        "entropy_bounds",
    ):
        assert names[name].passed, names[name].detail
