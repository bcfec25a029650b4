"""Scheme layer: product budgets, reductions, coefficient data."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cossinm.matcore import CostLedger, MatrixInputError
from cossinm.schemes import (
    PADE8,
    SCHEMES,
    SchemeFamily,
    SchemeId,
    X_DEG8,
    Z_DEG12,
    pade8_cos_sin,
    taylor_cos_sin,
    wave_kernels,
)

TAYLOR_KS = (3, 4, 6, 7)
WAVE_KS = (3, 4, 5)


def _taylor(k):
    return SchemeId(SchemeFamily.COS_SIN_TAYLOR, k)


def _wave(k):
    return SchemeId(SchemeFamily.WAVE_KERNEL, k)


@pytest.mark.parametrize("k", TAYLOR_KS)
def test_taylor_product_budget(k):
    """Each pair scheme charges exactly its advertised product count,
    which is the cost the registry gives selection."""
    ledger = CostLedger()
    taylor_cos_sin(np.zeros((3, 3)), _taylor(k), ledger)
    assert ledger.total_cost == Fraction(k)
    assert SCHEMES[SchemeFamily.COS_SIN_TAYLOR, k].cost == Fraction(k)


@pytest.mark.parametrize("k", WAVE_KS)
def test_wave_product_budget(k):
    ledger = CostLedger()
    wave_kernels(np.zeros((3, 3)), 0.5, _wave(k), ledger)
    assert ledger.total_cost == Fraction(k)
    assert SCHEMES[SchemeFamily.WAVE_KERNEL, k].cost == Fraction(k)


def test_pade8_budget_is_7_and_a_third():
    ledger = CostLedger()
    pade8_cos_sin(np.zeros((3, 3)), ledger)
    assert ledger.total_cost == Fraction(22, 3)
    assert ledger.products == PADE8.k_products
    assert SCHEMES[PADE8.family, PADE8.k_products].cost == Fraction(22, 3)


@pytest.mark.parametrize("k", TAYLOR_KS)
def test_taylor_zero_matrix(k):
    out = taylor_cos_sin(np.zeros((4, 4)), _taylor(k), CostLedger())
    assert np.array_equal(out.cos_part, np.eye(4))
    assert np.array_equal(out.sin_part, np.zeros((4, 4)))


@pytest.mark.parametrize("k", WAVE_KS)
def test_wave_zero_matrix(k):
    # s(t, 0) is the sinc limit t*I, not zero
    out = wave_kernels(np.zeros((4, 4)), 0.7, _wave(k), CostLedger())
    assert np.array_equal(out.cos_part, np.eye(4))
    assert np.array_equal(out.sin_part, 0.7 * np.eye(4))


@pytest.mark.parametrize("k", WAVE_KS)
def test_wave_zero_time(k, rng):
    out = wave_kernels(rng.standard_normal((3, 3)), 0.0, _wave(k),
                       CostLedger())
    assert np.array_equal(out.cos_part, np.eye(3))
    assert np.array_equal(out.sin_part, np.zeros((3, 3)))


def test_pade_zero_matrix():
    out = pade8_cos_sin(np.zeros((2, 2)), CostLedger())
    assert np.allclose(out.cos_part, np.eye(2), atol=1e-15)
    assert np.array_equal(out.sin_part, np.zeros((2, 2)))


@pytest.mark.parametrize("k", TAYLOR_KS)
def test_taylor_diagonal_reduction(k):
    """Diagonal input stays diagonal and tracks the scalar functions."""
    d = np.diag([0.1, -0.3, 0.55])
    out = taylor_cos_sin(d, _taylor(k), CostLedger())
    off = ~np.eye(3, dtype=bool)
    assert np.all(out.cos_part[off] == 0.0)
    assert np.all(out.sin_part[off] == 0.0)
    if k >= 6:
        # at this norm the truncation error is far below roundoff
        for i, x in enumerate(np.diag(d)):
            assert out.cos_part[i, i] == pytest.approx(math.cos(x), abs=1e-15)
            assert out.sin_part[i, i] == pytest.approx(math.sin(x), abs=1e-15)


def test_wave_scalar_values():
    # c(t^2 a) = cos(t sqrt(a)) and s(t, a) = sin(t sqrt(a))/sqrt(a) on
    # positive scalars
    a = np.diag([0.25, 4.0])
    t = 0.5
    out = wave_kernels(a, t, _wave(5), CostLedger())
    for i, x in enumerate(np.diag(a)):
        w = math.sqrt(x)
        assert out.cos_part[i, i] == pytest.approx(math.cos(t * w), abs=1e-14)
        assert out.sin_part[i, i] == pytest.approx(
            math.sin(t * w) / w, abs=1e-14)


def test_wave_hyperbolic_continuation():
    """Negative operand flips the kernels to cosh and sinh."""
    w = 0.7
    a = np.diag([-(w * w)])
    out = wave_kernels(a, 1.0, _wave(5), CostLedger())
    assert out.cos_part[0, 0] == pytest.approx(math.cosh(w), abs=1e-14)
    assert out.sin_part[0, 0] == pytest.approx(math.sinh(w) / w, abs=1e-14)


def test_wave_matches_taylor_twin_bitwise(rng):
    """The k=4 wave c-chain at t=1 on R^2 is the k=6 cosine chain on R."""
    r = 0.6 * rng.standard_normal((5, 5))
    square = r @ r
    wave_out = wave_kernels(square, 1.0, _wave(4), CostLedger())
    taylor_out = taylor_cos_sin(r, _taylor(6), CostLedger())
    assert np.array_equal(wave_out.cos_part, taylor_out.cos_part)


def test_taylor_rejects_nonsquare_and_wrong_family():
    with pytest.raises(MatrixInputError):
        taylor_cos_sin(np.zeros((2, 3)), _taylor(3), CostLedger())
    with pytest.raises(ValueError):
        taylor_cos_sin(np.zeros((2, 2)), _wave(3), CostLedger())
    with pytest.raises(ValueError):
        wave_kernels(np.zeros((2, 2)), 1.0, _taylor(3), CostLedger())


@pytest.mark.parametrize("family,k", [
    (SchemeFamily.COS_SIN_TAYLOR, 5),
    (SchemeFamily.COS_SIN_TAYLOR, 0),
    (SchemeFamily.WAVE_KERNEL, 6),
    (SchemeFamily.PADE8, 4),
])
def test_scheme_id_rejects_bad_product_counts(family, k):
    with pytest.raises(ValueError):
        SchemeId(family, k)


def test_pade8_diagonal_accuracy():
    d = np.diag([0.05, -0.11])
    out = pade8_cos_sin(d, CostLedger())
    for i, x in enumerate(np.diag(d)):
        assert out.cos_part[i, i] == pytest.approx(math.cos(x), abs=1e-15)
        assert out.sin_part[i, i] == pytest.approx(math.sin(x), abs=1e-15)


def test_result_shapes(rng):
    a = 0.1 * rng.standard_normal((4, 4))
    out = taylor_cos_sin(a, _taylor(6), CostLedger())
    assert out.cos_part.shape == (4, 4)
    assert out.sin_part.shape == (4, 4)
    wout = wave_kernels(a, 0.3, _wave(4), CostLedger())
    assert wout.cos_part.shape == (4, 4)
    assert wout.sin_part.shape == (4, 4)


def test_surd_coefficient_closed_form():
    # the degree-8 chain's x3 slot carries (-1533 + 7*sqrt(36681))/2500
    x3 = float(X_DEG8[3])
    assert x3 == pytest.approx(
        (-1533.0 + 7.0 * math.sqrt(36681.0)) / 2500.0, rel=1e-15)


def test_degree12_inner_slot_is_unity():
    assert Z_DEG12[6] == Fraction(1)


def test_pade8_matches_taylor_at_small_norm(rng):
    a = 0.05 * rng.standard_normal((4, 4))
    p = pade8_cos_sin(a, CostLedger())
    t = taylor_cos_sin(a, _taylor(7), CostLedger())
    assert np.max(np.abs(p.cos_part - t.cos_part)) <= 1e-14
    assert np.max(np.abs(p.sin_part - t.sin_part)) <= 1e-14


def test_pade8_constant_id_and_k():
    assert PADE8.family is SchemeFamily.PADE8
    assert PADE8.k_products == 5
