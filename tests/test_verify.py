"""Verification layer: scalar replay, order conditions, thresholds, oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from cossinm.matcore import CostLedger, MatrixInputError
from cossinm.schemes import PADE8, SCHEMES, SchemeFamily, SchemeId
from cossinm.theta_tables import (
    PADE_TABLE,
    SHIPPED_ROWS,
    TAYLOR_TABLE,
    UNIT_ROUNDOFF,
    WAVE_TABLE,
    Precision,
)
from cossinm.verify import (
    WORKING_DIGITS,
    ScalarPoly,
    Which,
    compute_theta,
    difference_series,
    extract_scheme_poly,
    extract_sin9_poly,
    extract_wave_s34_poly,
    _tail_bound,
    generate_theta_table,
    leading_degree,
    reference_cos_sin,
    relative_error_2,
    true_coefficient,
)
from pairs import run_pair


def _taylor(k):
    return SchemeId(SchemeFamily.COS_SIN_TAYLOR, k)


def _wave(k):
    return SchemeId(SchemeFamily.WAVE_KERNEL, k)


def _worst_relative_mismatch(poly, which, through):
    """Largest per-degree relative defect at degrees <= through."""
    with mp.workdps(80):
        worst = mp.mpf(0)
        for deg in range(through + 1):
            if which is Which.COS and deg % 2:
                continue
            if which is Which.SIN and deg % 2 == 0:
                continue
            true = true_coefficient(which, deg)
            diff = abs(poly.coefficient(deg) - true)
            rel = diff / abs(true) if true != 0 else diff
            worst = max(worst, rel)
        return float(worst)


def _defect_at(poly, which, deg):
    with mp.workdps(80):
        true = true_coefficient(which, deg)
        diff = abs(poly.coefficient(deg) - true)
        rel = diff / abs(true) if true != 0 else mp.mpf("inf")
        return float(diff), float(rel)


# ---------------------------------------------------------------- ScalarPoly


def test_scalar_poly_ring_identities():
    one_plus = ScalarPoly([1, 1])
    one_minus = ScalarPoly([1, -1])
    prod = one_plus * one_minus
    assert prod.degree == 2
    with mp.workdps(60):
        assert prod.coefficient(0) == 1
        assert prod.coefficient(1) == 0
        assert prod.coefficient(2) == -1


def test_scalar_poly_trims_trailing_zeros():
    p = ScalarPoly([2, 0, 0])
    assert p.degree == 0


# ------------------------------------------------------------- extraction


def test_degree2_chain_cosine_is_the_literal_quartic():
    """The smallest scheme's cosine is exactly 1 - y/2 + y^2/24 in A^2."""
    poly = extract_scheme_poly(_taylor(3), Which.COS)
    assert poly.degree == 4
    with mp.workdps(60):
        assert poly.coefficient(0) == 1
        assert poly.coefficient(2) == mp.mpf(-1) / 2
        assert poly.coefficient(4) == mp.mpf(1) / 24


def test_degree49_sine_polynomial_degree():
    assert extract_scheme_poly(_taylor(7), Which.SIN).degree == 49


def test_surd_set_is_exact_through_claimed_order():
    # closed-form coefficients reproduce the series to extended precision
    cos16 = extract_scheme_poly(_taylor(6), Which.COS)
    sin17 = extract_scheme_poly(_taylor(6), Which.SIN)
    assert _worst_relative_mismatch(cos16, Which.COS, 16) <= 1e-30
    assert _worst_relative_mismatch(sin17, Which.SIN, 17) <= 1e-30


@pytest.mark.parametrize("k,which,through", [
    (3, Which.COS, 4), (3, Which.SIN, 5),
    (4, Which.COS, 8), (4, Which.SIN, 7),
])
def test_rational_sets_are_exact(k, which, through):
    poly = extract_scheme_poly(_taylor(k), which)
    assert _worst_relative_mismatch(poly, which, through) <= 1e-30


def test_printed_decimal_floor_cosine():
    """The 45-digit cosine set matches to its printing accuracy.

    The worst per-degree relative residual through degree 24 sits at
    1.15e-44; the value is frozen (abs=0, so pytest.approx's default
    absolute slack of 1e-12 cannot swallow it) so a transcription slip in
    any one coefficient shows up immediately.
    """
    poly = extract_scheme_poly(_taylor(7), Which.COS)
    worst = _worst_relative_mismatch(poly, Which.COS, 24)
    assert worst == pytest.approx(1.1510648e-44, rel=1e-6, abs=0)


def test_printed_decimal_floor_sine():
    # degrees through 21; the degree-23 slot is checked separately below
    poly = extract_scheme_poly(_taylor(7), Which.SIN)
    worst = _worst_relative_mismatch(poly, Which.SIN, 21)
    assert worst == pytest.approx(4.1797365e-44, rel=1e-6, abs=0)


def test_sine_degree23_defect_frozen():
    """The highest pair's sine misses its top order.

    The degree-23 coefficient disagrees with 1/23! by 6.906e-23 absolute
    (1.785 relative), so the achieved sine order is 21.  Frozen, not
    gated: if a future coefficient edit repairs or worsens it, this test
    should notice either way.
    """
    poly = extract_scheme_poly(_taylor(7), Which.SIN)
    diff, rel = _defect_at(poly, Which.SIN, 23)
    assert diff == pytest.approx(6.9060287059261378e-23, rel=1e-10,
                                 abs=0)
    assert rel == pytest.approx(1.7853476970482267, rel=1e-10)


def test_wave_s_degree11_defect_matches_sine_twin():
    poly = extract_scheme_poly(_wave(5), Which.WAVE_S)
    diff, rel = _defect_at(poly, Which.WAVE_S, 11)
    assert diff == pytest.approx(6.9060287059261378e-23, rel=1e-10,
                                 abs=0)
    assert rel == pytest.approx(1.7853476970482267, rel=1e-10)


ASYMMETRY = [
    (3, Which.COS, 6), (3, Which.SIN, 7),
    (4, Which.COS, 10), (4, Which.SIN, 9),
    (6, Which.COS, 18), (6, Which.SIN, 19),
    (7, Which.COS, 26),
]


@pytest.mark.parametrize("k,which,deg", ASYMMETRY)
def test_defect_exists_just_above_claimed_order(k, which, deg):
    """Schemes are not secretly higher order than advertised."""
    poly = extract_scheme_poly(_taylor(k), which)
    _, rel = _defect_at(poly, which, deg)
    assert rel > 1e-3


def test_sin9_polynomial():
    poly = extract_sin9_poly()
    assert poly.degree == 9
    assert _worst_relative_mismatch(poly, Which.SIN, 9) <= 1e-30
    _, rel = _defect_at(poly, Which.SIN, 11)
    assert rel > 1e-3


def test_wave_s34_polynomial():
    poly = extract_wave_s34_poly()
    assert _worst_relative_mismatch(poly, Which.WAVE_S, 3) <= 1e-30
    _, rel = _defect_at(poly, Which.WAVE_S, 4)
    assert rel > 1e-3


@pytest.mark.parametrize("wave_k,taylor_k", [(3, 4), (4, 6), (5, 7)])
def test_wave_chains_are_taylor_chains_one_level_down(wave_k, taylor_k):
    """Wave c coefficients equal the paired cosine's, reindexed y = A^2."""
    wave_poly = extract_scheme_poly(_wave(wave_k), Which.WAVE_C)
    cos_poly = extract_scheme_poly(_taylor(taylor_k), Which.COS)
    assert cos_poly.degree == 2 * wave_poly.degree
    with mp.workdps(60):
        for j in range(wave_poly.degree + 1):
            assert wave_poly.coefficient(j) == cos_poly.coefficient(2 * j)


def test_pade_series_defects():
    cos_poly = extract_scheme_poly(PADE8, Which.COS)
    sin_poly = extract_scheme_poly(PADE8, Which.SIN)
    assert _worst_relative_mismatch(cos_poly, Which.COS, 8) <= 1e-30
    assert _worst_relative_mismatch(sin_poly, Which.SIN, 7) <= 1e-30
    assert _defect_at(cos_poly, Which.COS, 10)[1] > 1e-3
    assert _defect_at(sin_poly, Which.SIN, 9)[1] > 1e-3


def test_extract_rejects_mismatched_family():
    with pytest.raises(ValueError):
        extract_scheme_poly(_taylor(3), Which.WAVE_C)
    with pytest.raises(ValueError):
        extract_scheme_poly(_wave(3), Which.COS)


def test_true_coefficients():
    with mp.workdps(60):
        assert true_coefficient(Which.COS, 4) == mp.mpf(1) / 24
        assert true_coefficient(Which.SIN, 3) == mp.mpf(-1) / 6
        assert true_coefficient(Which.WAVE_C, 3) == mp.mpf(-1) / 720
        assert true_coefficient(Which.WAVE_S, 2) == mp.mpf(1) / 120


def test_difference_series_first_entry():
    # the quartic cosine's first defect is the missing degree-6 term
    poly = extract_scheme_poly(_taylor(3), Which.COS)
    diffs = difference_series(poly, Which.COS)
    deg, mag = diffs[0]
    assert deg == 6
    with mp.workdps(60):
        assert mag == pytest.approx(1.0 / 720.0, rel=1e-12)


# ---------------------------------------------------------------- thresholds


def test_theta_matches_shipped_table():
    entry = TAYLOR_TABLE[Precision.DOUBLE].entries[0]
    got = compute_theta(entry.scheme, Which.COS, UNIT_ROUNDOFF[
        Precision.DOUBLE])
    assert got == pytest.approx(entry.theta_cos, rel=2e-8)


def test_theta_single_exceeds_double():
    scheme = _taylor(3)
    lo = compute_theta(scheme, Which.COS, 2.0 ** -53)
    hi = compute_theta(scheme, Which.COS, 2.0 ** -24)
    assert hi > lo


def test_theta_bound_brackets_target():
    """At theta the tail bound is within u; just above it is not."""
    scheme = _taylor(3)
    u = UNIT_ROUNDOFF[Precision.DOUBLE]
    theta = compute_theta(scheme, Which.COS, u)
    poly = extract_scheme_poly(scheme, Which.COS)
    diffs = difference_series(poly, Which.COS)
    from cossinm.verify import _tail_bound
    assert _tail_bound(diffs, theta) <= u
    assert _tail_bound(diffs, theta * (1.0 + 1e-6)) > u


@pytest.mark.parametrize("family,table", [
    (SchemeFamily.COS_SIN_TAYLOR, TAYLOR_TABLE),
    (SchemeFamily.PADE8, PADE_TABLE),
    (SchemeFamily.WAVE_KERNEL, WAVE_TABLE),
])
def test_shipped_tables_regenerate(family, table):
    """Every shipped threshold is reproduced by the derivation machinery."""
    for precision in Precision:
        regenerated = generate_theta_table(family, precision)
        shipped = table[precision]
        assert len(regenerated.entries) == len(shipped.entries)
        for got, want in zip(regenerated.entries, shipped.entries):
            assert got.scheme == want.scheme
            assert got.theta_cos == pytest.approx(want.theta_cos, rel=1e-6)
            assert got.theta_sin == pytest.approx(want.theta_sin, rel=1e-6)
            assert (got.ell_cos, got.ell_sin) == (want.ell_cos, want.ell_sin)


def _sides(entry):
    if entry.scheme.family is SchemeFamily.WAVE_KERNEL:
        return ((Which.WAVE_C, entry.theta_cos, entry.ell_cos),
                (Which.WAVE_S, entry.theta_sin, entry.ell_sin))
    return ((Which.COS, entry.theta_cos, entry.ell_cos),
            (Which.SIN, entry.theta_sin, entry.ell_sin))


@pytest.mark.parametrize("table", [TAYLOR_TABLE, PADE_TABLE, WAVE_TABLE],
                         ids=["taylor", "pade", "wave"])
def test_shipped_leading_degrees_regenerate(table):
    """Each shipped ell is the first degree of the side's error series,
    and below theta the tail bound falls at least as fast as x^ell, the
    property selection on norms of powers rests on."""
    u = UNIT_ROUNDOFF[Precision.DOUBLE]
    for entry in table[Precision.DOUBLE].entries:
        for which, theta, ell in _sides(entry):
            assert leading_degree(entry.scheme, which) == ell
            poly = extract_scheme_poly(entry.scheme, which)
            with mp.workdps(WORKING_DIGITS):
                diffs = difference_series(poly, which)
                assert diffs[0][0] == ell
                for shrink in (0.9, 0.5, 1e-3):
                    x = theta * shrink
                    assert _tail_bound(diffs, x) <= u * shrink ** ell * (
                        1.0 + 1e-9)


def test_shipped_rows_cover_the_registry_exactly():
    """One shipped row per registered scheme, with a threshold pair for
    every precision: no scheme without a row, no stale row."""
    assert SHIPPED_ROWS.keys() == SCHEMES.keys()
    for ells, thetas in SHIPPED_ROWS.values():
        assert len(ells) == 2
        assert thetas.keys() == set(Precision)
        assert all(len(pair) == 2 for pair in thetas.values())


def test_wave_c_threshold_is_cosine_threshold_squared():
    # c(t^2 A) inherits the cosine truncation with y = x^2, so each wave
    # c threshold is the square of the paired cosine threshold
    pairs = zip(WAVE_TABLE[Precision.DOUBLE].entries,
                TAYLOR_TABLE[Precision.DOUBLE].entries[1:])
    for wave_entry, taylor_entry in pairs:
        assert wave_entry.theta_cos == pytest.approx(
            taylor_entry.theta_cos ** 2, rel=1e-6)


# ------------------------------------------------------------------- oracle


def test_reference_scalar_sweep():
    for x in (-100.0, -31.7, -1.0, 1e-3, 0.5, 7.0, 99.0):
        ref = reference_cos_sin(np.array([[x]]))
        assert ref.cos_part[0, 0] == pytest.approx(math.cos(x), abs=1e-14)
        assert ref.sin_part[0, 0] == pytest.approx(math.sin(x), abs=1e-14)


def test_reference_zero_matrix():
    ref = reference_cos_sin(np.zeros((3, 3)))
    assert np.array_equal(ref.cos_part, np.eye(3))
    assert np.array_equal(ref.sin_part, np.zeros((3, 3)))


def test_reference_symmetric_cross_check(rng):
    """Independent eigendecomposition route agrees on symmetric input."""
    b = rng.standard_normal((6, 6))
    a = 3.0 * (b + b.T)
    vals, vecs = np.linalg.eigh(a)
    want_cos = (vecs * np.cos(vals)) @ vecs.T
    want_sin = (vecs * np.sin(vals)) @ vecs.T
    ref = reference_cos_sin(a)
    assert relative_error_2(ref.cos_part, want_cos) <= 1e-12
    assert relative_error_2(ref.sin_part, want_sin) <= 1e-12


def test_reference_pythagorean(rng):
    # symmetric draw keeps the pair order one; squaring a large-entry
    # cosine in float64 would swamp the identity on its own
    b = rng.standard_normal((7, 7))
    a = b + b.T
    a *= 30.0 / np.abs(a).sum(axis=0).max()
    ref = reference_cos_sin(a)
    defect = ref.cos_part @ ref.cos_part + ref.sin_part @ ref.sin_part
    assert np.max(np.abs(defect - np.eye(7))) <= 1e-13


def test_reference_rejects_nonsquare():
    with pytest.raises(MatrixInputError):
        reference_cos_sin(np.zeros((2, 3)))


def test_reference_beats_product_path_on_heavy_scaling():
    """The oracle stays accurate where plain doubling loses digits."""
    lam = 1e6
    a = np.array([[1.0, lam], [0.0, -1.0]])
    ref = reference_cos_sin(a)
    # closed form: a is involutory, so cos(a) = cos(1) I exactly
    assert relative_error_2(ref.cos_part, math.cos(1.0) * np.eye(2)) <= 1e-13
    assert relative_error_2(ref.sin_part, math.sin(1.0) * a) <= 1e-13


def test_relative_error_conventions():
    zero = np.zeros((2, 2))
    assert relative_error_2(zero, zero) == 0.0
    assert relative_error_2(np.eye(2), zero) == math.inf
    bad = np.full((2, 2), np.inf)
    assert relative_error_2(bad, np.eye(2)) == math.inf
    assert relative_error_2(np.eye(2), bad) == math.inf


def test_poly_algebra_agrees_with_matrix_algebra(rng):
    """Replaying a chain over polynomials matches the float evaluation."""
    x = 0.37
    scheme = _taylor(6)
    poly = extract_scheme_poly(scheme, Which.COS)
    with mp.workdps(60):
        horner = mp.mpf(0)
        for deg in range(poly.degree, -1, -1):
            horner = horner * x + poly.coefficient(deg)
    out = run_pair(np.array([[x]]), scheme, CostLedger())
    assert out.cos_part[0, 0] == pytest.approx(float(horner), abs=5e-16)
