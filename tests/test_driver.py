"""Driver: scheme selection, scaling, recovery, cost accounting."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cossinm import driver, matcore, schemes
from cossinm.driver import (
    cos_sin,
    pade_cos_sin,
    select_scheme,
    wave_cos_sin,
)
from cossinm.gallery import CorpusSpec, generate_corpus
from cossinm.matcore import CostLedger, MatrixInputError, Structure, norm1
from cossinm.schemes import (
    PADE8,
    CosSinResult,
    MatrixAlgebra,
    SchemeFamily,
    SchemeId,
)
from cossinm.theta_tables import (
    PADE_TABLE,
    TAYLOR_TABLE,
    WAVE_TABLE,
    ThetaEntry,
    ThetaTable,
    Precision,
)
from cossinm.verify import reference_cos_sin, relative_error_2
from pairs import quarter_turn, run_pair

DOUBLE_TAYLOR = TAYLOR_TABLE[Precision.DOUBLE]
DOUBLE_PADE = PADE_TABLE[Precision.DOUBLE]
DOUBLE_WAVE = WAVE_TABLE[Precision.DOUBLE]


def test_select_tiny_norm_takes_cheapest():
    scheme, s = select_scheme(0.005, DOUBLE_TAYLOR)
    assert (scheme.k_products, s) == (3, 0)


def test_select_zero_norm():
    scheme, s = select_scheme(0.0, DOUBLE_TAYLOR)
    assert (scheme.k_products, s) == (3, 0)


def test_select_norm_ten_scales_the_top_scheme():
    # 7 products + 2*3 squarings beats every cheaper entry at norm 10
    scheme, s = select_scheme(10.0, DOUBLE_TAYLOR)
    assert (scheme.k_products, s) == (7, 3)


def test_select_rejects_bad_norms():
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            select_scheme(bad, DOUBLE_TAYLOR)


def test_select_cost_tie_prefers_fewer_squarings():
    table = ThetaTable(
        precision=Precision.DOUBLE,
        entries=(
            ThetaEntry(
                scheme=SchemeId(SchemeFamily.COS_SIN_TAYLOR, 3),
                theta_cos=1.0, theta_sin=1.0, cost=Fraction(3)),
            ThetaEntry(
                scheme=SchemeId(SchemeFamily.COS_SIN_TAYLOR, 4),
                theta_cos=2.0, theta_sin=2.0, cost=Fraction(5)),
        ),
    )
    # norm 4: 3 + 2*2 = 5 + 2*1 = 7 either way; fewer squarings wins
    scheme, s = select_scheme(4.0, table)
    assert (scheme.k_products, s) == (4, 1)


def test_select_scaling_monotone_in_norm():
    previous = 0
    for norm in (0.001, 0.05, 0.3, 1.0, 2.5, 7.0, 31.0, 200.0, 4e3):
        _, s = select_scheme(norm, DOUBLE_TAYLOR)
        assert s >= previous
        previous = s


def test_theta_table_rejects_nonincreasing_thresholds():
    with pytest.raises(ValueError):
        ThetaTable(
            precision=Precision.DOUBLE,
            entries=(
                ThetaEntry(
                    scheme=SchemeId(SchemeFamily.COS_SIN_TAYLOR, 3),
                    theta_cos=1.0, theta_sin=1.0, cost=Fraction(3)),
                ThetaEntry(
                    scheme=SchemeId(SchemeFamily.COS_SIN_TAYLOR, 4),
                    theta_cos=0.5, theta_sin=0.5, cost=Fraction(4)),
            ),
        )


def test_cos_sin_zero_matrix():
    report = cos_sin(np.zeros((3, 3)))
    assert np.array_equal(report.result.cos_part, np.eye(3))
    assert np.array_equal(report.result.sin_part, np.zeros((3, 3)))
    assert report.scaling_exponent == 0
    assert report.total_products == Fraction(3)


def test_cos_sin_pi_diagonal():
    """diag(pi, -pi) lands on the top scheme with one squaring and hits -I.

    Its trace is 0, so no quarter-period shift takes it to 0 first (as it
    takes diag(pi, pi))."""
    report = cos_sin(np.diag([math.pi, -math.pi]))
    assert report.shift == 0
    assert report.scheme_used.k_products == 7
    assert report.scaling_exponent == 1
    assert report.total_products == Fraction(9)
    assert np.max(np.abs(report.result.cos_part + np.eye(2))) <= 1e-13
    assert np.max(np.abs(report.result.sin_part)) <= 1e-13


# Input no evaluator can compute: not square, empty, ragged, or not real
# (complex, Python objects or strings).
_BAD_INPUTS = (
    np.zeros((2, 3)),
    np.zeros((0, 0)),
    np.array([[1j, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, 1.0]], dtype=object),
    np.array([["1", "0"], ["0", "1"]]),
    [[1.0, 2.0], [3.0]],
)
# Nor can any take an inf or NaN entry: selection cannot size it.
_NONFINITE = (np.array([[math.inf, 0.0], [0.0, 0.0]]),
              np.array([[1.0, 0.0], [math.nan, 1.0]]))
# A long double past binary64's range casts to inf; numpy's overflow
# warning must not surface in place of the error (the test configuration
# makes a warning raised from cossinm one).
if np.finfo(np.longdouble).max > np.finfo(np.float64).max:
    _NONFINITE += (np.array([[np.longdouble("1e4000")]]),)

# Every public evaluator as a function of the matrix alone: the oracle and
# the three drivers, which hand the pair functions checked input.
_EVALUATORS = (
    reference_cos_sin,
    lambda m: cos_sin(m).result,
    lambda m: pade_cos_sin(m).result,
    lambda m: wave_cos_sin(m, 0.3).result,
)


def test_cos_sin_rejects_bad_input():
    # the rule is matcore.as_matrix's, message included, for both
    # trigonometric drivers
    for call in (cos_sin, pade_cos_sin):
        for a in _BAD_INPUTS:
            with pytest.raises(MatrixInputError):
                call(a)
        for a in _NONFINITE:
            with pytest.raises(MatrixInputError,
                               match="^matrix entries must be finite$"):
                call(a)


def test_pair_functions_and_oracle_reject_bad_input():
    # the public pair functions are the drivers
    for call in _EVALUATORS:
        for a in (*_BAD_INPUTS, *_NONFINITE):
            with pytest.raises(MatrixInputError):
                call(a)


def _same_bits(got, want):
    return (got.cos_part.tobytes() == want.cos_part.tobytes()
            and got.sin_part.tobytes() == want.sin_part.tobytes())


def test_real_input_of_any_dtype_evaluates_in_binary64():
    # a bool matmul is logical, an int64 one wraps (2^33 squared is past
    # 2^63) and a float32 one rounds to single, so every evaluator takes
    # such input to float64 first
    for a in (np.array([[True, True], [False, True]]),
              np.array([[2**33 + 1, 3], [0, 2**33 - 1]]),
              np.array([[0.5, 2.0], [3.0, 4.0]], dtype=np.float32)):
        for call in _EVALUATORS:
            assert _same_bits(call(a), call(a.astype(np.float64)))


def test_nested_list_input_matches_the_array():
    rows = [[1.0, 2.0], [0.0, 1.0]]
    for call in _EVALUATORS:
        assert _same_bits(call(rows), call(np.array(rows)))


# ------------------------------------- upper-triangular and symmetric input


_ENTRY_POINTS = {
    "cos_sin": cos_sin,
    "wave_cos_sin": lambda a: wave_cos_sin(a, 1.5),
    "pade_cos_sin": pade_cos_sin,
}


def _triangular_inputs(n):
    rng = np.random.default_rng(8)
    jordan = np.diag(rng.uniform(-1.0, 1.0, n)) + np.eye(n, k=1)
    triu = np.triu(rng.standard_normal((n, n)))
    return {"jordan": jordan * (4.0 / norm1(jordan)),
            "triu": triu * (24.0 / norm1(triu))}


def _symmetric_inputs(n):
    """The benchmark's negative definite kind, and a positive definite one
    for the wave pair, both exactly symmetric."""
    rng = np.random.default_rng(8)
    b = rng.standard_normal((n, n))
    spd = b @ b.T  # numpy forms a @ a.T by dsyrk, exactly symmetric
    assert np.array_equal(spd, spd.T)
    return {"negdef": spd * (-30.0 / norm1(spd)),
            "spd": spd * (40.0 / norm1(spd))}


def _blas_spy(monkeypatch):
    """Count the calls to the structured kernels matcore imports on use."""
    import scipy.linalg.blas as blas
    import scipy.linalg.lapack as lapack

    calls = {"dtrsm": 0, "dsyrk": 0, "dpotrf": 0}
    for name in calls:
        module = lapack if name == "dpotrf" else blas
        kernel = getattr(module, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _structured_kernel_spy(monkeypatch):
    """Count the structured products and solves the schemes layer asks of
    matcore (matmul and lu_solve_pair with a structure other than DENSE),
    whatever BLAS calls each makes; a stacked operand's products count one
    per slab."""
    calls = {"matmul": 0, "lu_solve_pair": 0}
    for name in calls:
        kernel = getattr(schemes, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            if kwargs["structure"] is not Structure.DENSE:
                calls[_name] += len(args[1]) if args[1].ndim == 3 else 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(schemes, name, counted)
    return calls


def _dense_path(monkeypatch, call, a):
    with monkeypatch.context() as m:
        m.setattr(matcore, "_TRIANGULAR_MIN_N", math.inf)
        m.setattr(matcore, "_SYMMETRIC_MIN_N", math.inf)
        return call(a)


def _same_choice(got, want):
    assert got.scheme_used == want.scheme_used
    assert got.scaling_exponent == want.scaling_exponent
    assert got.total_products == want.total_products
    assert got.selection_norms == want.selection_norms
    assert got.cube_norms == want.cube_norms


def _same_choice_from_structured_norms(got, want, entry):
    # selection's products are structured ones, which may round otherwise
    # than the dense path's: the choice and the ledger are the dense
    # path's, the reported norms yield that choice again, and each is
    # within 4 ulps of the dense path's norm
    assert got.scheme_used == want.scheme_used
    assert got.scaling_exponent == want.scaling_exponent
    assert got.total_products == want.total_products
    norms, cubes = got.selection_norms, got.cube_norms
    if entry == "wave_cos_sin":
        again = select_scheme(norms[0], DOUBLE_WAVE, None, norms[1],
                              cube_norms=cubes)
    else:
        table = DOUBLE_PADE if entry == "pade_cos_sin" else DOUBLE_TAYLOR
        again = select_scheme(norms[0], table, *norms[1:], cube_norms=cubes)
    assert again == (got.scheme_used, got.scaling_exponent)
    for x, ref in zip(norms + cubes, want.selection_norms + want.cube_norms,
                      strict=True):
        assert abs(x - ref) <= 4 * math.ulp(ref)


@pytest.mark.parametrize("entry", ["cos_sin", "pade_cos_sin"])
def test_an_unscaled_pair_reads_the_input_itself(monkeypatch, entry):
    # at s = 0, A 2^-0 = A: the pair reads the checked input, not a copy,
    # and leaves it as it was; at s > 0 it reads the scaled copy
    seen = []

    def spied(scheme, odd, alg, powers, _pair=driver._pair):
        seen.append(odd)
        return _pair(scheme, odd, alg, powers)

    monkeypatch.setattr(driver, "_pair", spied)
    a = np.random.default_rng(5).standard_normal((6, 6))
    for norm, scaled in ((0.05, False), (40.0, True)):
        a *= norm / norm1(a)
        before = a.copy()
        report = _ENTRY_POINTS[entry](a)
        assert (report.scaling_exponent > 0) is scaled
        assert (seen.pop() is a) is not scaled
        assert a.tobytes() == before.tobytes()


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("form", ["dense", "triu"])
@pytest.mark.parametrize("n", [6, 3 * matcore._PANEL])
def test_input_layout_moves_no_bit(entry, form, n):
    # numpy sums a Fortran-ordered column in another order (selection's
    # 1-norm moved by an ulp at n = 192 before as_matrix took input to C
    # order), and the triangular kernels read transposed views, so other
    # layouts must reach every norm and product as the C-ordered copy does
    rng = np.random.default_rng(11)
    big = rng.standard_normal((2 * n, 2 * n))
    if form == "triu":
        big = np.triu(big)
    big *= 40.0 / norm1(big[::2, ::2])
    strided = big[::2, ::2]
    c_order = np.ascontiguousarray(strided)
    fortran = np.asfortranarray(c_order)
    assert not (strided.flags.c_contiguous or fortran.flags.c_contiguous)
    call = _ENTRY_POINTS[entry]
    want = call(c_order)
    assert want.scaling_exponent > 0
    for a in (fortran, strided):
        got = call(a)
        _same_choice(got, want)
        assert _same_bits(got.result, want.result)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("kind", ["jordan", "triu"])
def test_upper_triangular_input_takes_the_triangular_kernels(
        monkeypatch, entry, kind):
    # at a multiple of the tile, and at an n whose last tile is short
    for n in (4 * matcore._PANEL, 6 * matcore._PANEL + 17):
        a = _triangular_inputs(n)[kind]
        call = _ENTRY_POINTS[entry]
        want = _dense_path(monkeypatch, call, a)
        with monkeypatch.context() as m:
            calls = _structured_kernel_spy(m)
            got = call(a)
        # every product is a triangular one, selection's included, and the
        # Pade pair's solves (charged 1/3 + 2) are one triangular solve pair
        pairs = 1 if entry == "pade_cos_sin" else 0
        assert calls == {
            "matmul": got.total_products - Fraction(7, 3) * pairs,
            "lu_solve_pair": pairs}
        assert got.structure == "upper" and want.structure == "dense"
        _same_choice_from_structured_norms(got, want, entry)
        tol = 1e3 * n * 4.0 ** got.scaling_exponent * 2.0 ** -53
        for x, ref in ((got.result.cos_part, want.result.cos_part),
                       (got.result.sin_part, want.result.sin_part)):
            assert norm1(x - ref) <= tol * norm1(ref)
            assert not np.tril(x, -1).any()


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("kind", ["negdef", "spd"])
def test_symmetric_input_takes_the_symmetric_kernels(
        monkeypatch, entry, kind):
    # at the crossover, whose row panels are even, and at an n that is not
    # a multiple of 4, whose last panel is shorter
    for n in (matcore._SYMMETRIC_MIN_N, matcore._SYMMETRIC_MIN_N + 3):
        a = _symmetric_inputs(n)[kind]
        call = _ENTRY_POINTS[entry]
        want = _dense_path(monkeypatch, call, a)
        with monkeypatch.context() as m:
            calls = _structured_kernel_spy(m)
            kernels = _blas_spy(m)
            got = call(a)
        # every product is a symmetric one, and the Pade pair's solves are
        # one Cholesky factorization; every square (A^2 and y^2, or B^2,
        # and one per doubling step at least) is one dsyrk
        s = got.scaling_exponent
        pairs = 1 if entry == "pade_cos_sin" else 0
        assert calls == {
            "matmul": got.total_products - Fraction(7, 3) * pairs,
            "lu_solve_pair": pairs}
        assert kernels["dpotrf"] == pairs
        assert kernels["dsyrk"] >= (1 if entry == "wave_cos_sin" else 2) + s
        assert kernels["dtrsm"] == 0
        assert got.structure == "symmetric" and want.structure == "dense"
        _same_choice_from_structured_norms(got, want, entry)
        tol = 1e3 * n * 4.0 ** s * 2.0 ** -53
        for x, ref in ((got.result.cos_part, want.result.cos_part),
                       (got.result.sin_part, want.result.sin_part)):
            assert norm1(x - ref) <= tol * norm1(ref)
            assert np.array_equal(x, x.T)
            assert x.flags.c_contiguous


def _nearly_upper(n):
    a = _triangular_inputs(n)["triu"]
    a[n - 1, 0] = 1e-3
    return a


def _nearly_symmetric(n):
    # one entry of the last row panel, past the first row and column
    a = _symmetric_inputs(n)["negdef"]
    a[n - 1, n - 2] *= 1.0 + 2.0 ** -52
    return a


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("a", [
    _nearly_upper(2 * matcore._TRIANGULAR_MIN_N),
    _triangular_inputs(matcore._TRIANGULAR_MIN_N - 1)["triu"],
    _nearly_symmetric(matcore._SYMMETRIC_MIN_N),
    _symmetric_inputs(matcore._SYMMETRIC_MIN_N - 1)["negdef"],
], ids=["one-entry-below", "below-crossover", "one-entry-off-symmetric",
        "symmetric-below-crossover"])
def test_other_input_keeps_the_dense_path_bit_for_bit(monkeypatch, entry, a):
    call = _ENTRY_POINTS[entry]
    want = _dense_path(monkeypatch, call, a)
    calls = _blas_spy(monkeypatch)
    got = call(a)
    assert calls == {"dtrsm": 0, "dsyrk": 0, "dpotrf": 0}
    assert got.structure == "dense"
    _same_choice(got, want)
    assert got.result.cos_part.tobytes() == want.result.cos_part.tobytes()
    assert got.result.sin_part.tobytes() == want.result.sin_part.tobytes()


def _power_norms(a):
    """(||A||, ||A^2||^(1/2), ||A^4||^(1/4)), formed independently."""
    y = a @ a
    return (norm1(a), math.sqrt(norm1(y)),
            math.sqrt(math.sqrt(norm1(y @ y))))


def _shifted(a, q):
    """A - q (pi/2) I, formed as the driver forms it."""
    b = a.copy()
    b[np.diag_indices(a.shape[0])] -= q * (math.pi / 2)
    return b


def test_cost_law_total_is_pi_plus_2s(rng):
    for target in (0.004, 0.07, 0.6, 2.0, 55.0, 900.0):
        a = rng.standard_normal((5, 5))
        a *= target / norm1(a)
        report = cos_sin(a)
        # selection reads the shifted operand's norms
        norm, beta, delta = _power_norms(_shifted(a, report.shift))
        if norm > DOUBLE_TAYLOR.floor:
            assert report.selection_norms == (norm, beta, delta)
        scheme, s = select_scheme(norm, DOUBLE_TAYLOR, beta, delta,
                                  cube_norms=report.cube_norms)
        assert report.scheme_used == scheme
        assert report.scaling_exponent == s
        assert report.total_products == Fraction(scheme.k_products) + 2 * s


def test_pade_cost_law(rng):
    a = rng.standard_normal((4, 4))
    a *= 2.0 / norm1(a)
    report = pade_cos_sin(a)
    assert report.total_products == Fraction(22, 3) + 2 * report.scaling_exponent


def test_double_angle_scalar_formulas():
    # one recovery step applied to exact values loses at most a few ulp
    for x in (0.3, 0.8, 1.1):
        c, s = math.cos(x), math.sin(x)
        assert abs((2.0 * c * c - 1.0) - math.cos(2 * x)) <= 5e-16
        assert abs((1.0 - 2.0 * s * s) - math.cos(2 * x)) <= 5e-16
        assert abs(2.0 * s * c - math.sin(2 * x)) <= 5e-16


def test_driver_scalar_accuracy_through_doubling():
    # traceless, so no quarter-period shift takes 2.7 to 2.7 - pi
    report = cos_sin(np.diag([2.7, -2.7]))
    assert report.shift == 0
    assert report.scaling_exponent >= 1
    for x, c, s in zip((2.7, -2.7), np.diag(report.result.cos_part),
                       np.diag(report.result.sin_part)):
        assert c == pytest.approx(math.cos(x), abs=1e-15)
        assert s == pytest.approx(math.sin(x), abs=1e-15)


def test_pythagorean_identity(rng):
    # symmetric draw: real spectrum keeps cos and sin order one, so the
    # absolute defect measures the pipeline instead of e^|Im eig|
    b = rng.standard_normal((8, 8))
    a = b + b.T
    a *= 50.0 / norm1(a)
    report = cos_sin(a)
    c, s = report.result.cos_part, report.result.sin_part
    assert norm1(c @ c + s @ s - np.eye(8)) <= 1e-12


def test_wave_diagonal_example():
    report = wave_cos_sin(np.diag([4.0, 4.0]), 2.0)
    # ||B|| = t^2 * norm = 16 needs two quarterings of B: 16 / 16 = 1 is
    # under the top entry's thresholds (6.59, 3.64), 16 / 4 = 4 is not
    assert report.scheme_used.k_products == 5
    assert report.scaling_exponent == 2
    assert np.max(np.abs(report.result.cos_part - math.cos(4.0) * np.eye(2))
                  ) <= 1e-13
    assert np.max(np.abs(report.result.sin_part - (math.sin(4.0) / 2.0)
                         * np.eye(2))) <= 1e-13


def test_wave_small_norm_unscaled():
    report = wave_cos_sin(np.diag([0.25, 0.01]), 1.0)
    assert report.scaling_exponent == 0
    assert report.result.cos_part[0, 0] == pytest.approx(
        math.cos(0.5), abs=1e-15)
    assert report.result.sin_part[0, 0] == pytest.approx(
        math.sin(0.5) / 0.5, abs=1e-15)


def test_wave_block_identity_on_spd(rng):
    """[[c, s], [-A s, c]] equals the half-angle assembled exponential."""
    b = rng.standard_normal((3, 3))
    a = b @ b.T + 0.5 * np.eye(3)
    t = 1.3
    wave = wave_cos_sin(a, t)
    vals, vecs = np.linalg.eigh(a)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    trig = cos_sin(t * root)
    sin_scaled = np.linalg.solve(root, trig.result.sin_part)
    block_wave = np.block([
        [wave.result.cos_part, wave.result.sin_part],
        [-a @ wave.result.sin_part, wave.result.cos_part],
    ])
    block_trig = np.block([
        [trig.result.cos_part, sin_scaled],
        [-a @ sin_scaled, trig.result.cos_part],
    ])
    num = np.linalg.norm(block_wave - block_trig, 2)
    assert num / np.linalg.norm(block_trig, 2) <= 1e-11


def test_pade_small_norm_unscaled():
    report = pade_cos_sin(np.diag([0.1, -0.1]))
    assert report.scaling_exponent == 0
    assert report.total_products == Fraction(22, 3)
    assert report.result.cos_part[0, 0] == pytest.approx(
        math.cos(0.1), abs=1e-15)


def test_taylor_beats_pade_on_products(rng):
    a = rng.standard_normal((6, 6))
    a *= 2.0 / norm1(a)
    taylor = cos_sin(a)
    pade = pade_cos_sin(a)
    assert taylor.total_products < pade.total_products


def test_single_precision_selection(rng):
    # single-precision thresholds admit larger norms unscaled
    a = rng.standard_normal((4, 4))
    a *= 0.15 / norm1(a)
    single = cos_sin(a, Precision.SINGLE)
    double = cos_sin(a, Precision.DOUBLE)
    assert single.scaling_exponent <= double.scaling_exponent
    assert single.total_products <= double.total_products
    err = np.max(np.abs(single.result.cos_part - double.result.cos_part))
    assert err <= 1e-7


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_precision_is_a_precision_or_its_value(entry):
    a = np.diag([0.3, -1.2])
    call = {"cos_sin": cos_sin, "pade_cos_sin": pade_cos_sin,
            "wave_cos_sin": lambda m, p: wave_cos_sin(m, 1.5, p)}[entry]
    want, got = call(a, Precision.SINGLE), call(a, "single")
    _same_choice(got, want)
    assert _same_bits(got.result, want.result)
    for bad in ("bogus", "Single", None):
        with pytest.raises(ValueError):
            call(a, bad)


def test_wave_rejects_bad_input():
    # the matrix is checked whatever the time step is
    for t in (1.0, 0.0, -2.5):
        for a in _BAD_INPUTS:
            with pytest.raises(MatrixInputError):
                wave_cos_sin(a, t)
        for a in _NONFINITE:
            with pytest.raises(MatrixInputError,
                               match="^matrix entries must be finite$"):
                wave_cos_sin(a, t)


# ------------------------------------------------- selection on powers


def _pair_cost(table, scheme):
    return next(e.cost for e in table.entries if e.scheme == scheme)


def _three_calls(a, t):
    """(report, table, ||operand||) for each public call on a."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            (cos_sin(a), DOUBLE_TAYLOR, norm1(a)),
            (pade_cos_sin(a), DOUBLE_PADE, norm1(a)),
            (wave_cos_sin(a, t), DOUBLE_WAVE, norm1(t * t * a)),
        )


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(count_per_class=(64, 88, 39, 9),
                      norm_range=(1e-4, 1e4), seed=3)
    return [m for m, _tag in generate_corpus(spec)]


def test_no_call_takes_more_steps_than_the_norm_rule(corpus):
    assert len(corpus) == 200
    rng = np.random.default_rng(5)
    fewer = 0
    for a in corpus:
        t = float(rng.uniform(0.5, 2.0))
        for report, table, norm in _three_calls(a, t):
            old_scheme, old_s = select_scheme(norm, table)
            s = report.scaling_exponent
            assert s <= old_s
            assert report.total_products == \
                _pair_cost(table, report.scheme_used) + 2 * s
            assert report.total_products <= \
                _pair_cost(table, old_scheme) + 2 * old_s
            fewer += s < old_s
    # the corpus holds nonnormal matrices, which the norm rule overscales
    assert fewer >= 100


def test_select_on_powers_hand_computed():
    taylor7 = SchemeId(SchemeFamily.COS_SIN_TAYLOR, 7)
    # sine: x = delta (a beta^2 / delta^3)^(1/23) = 1e6^(1/23) = 1.82,
    # under 1.855; 1e7^(1/23) = 2.02 is not
    assert select_scheme(1e6, DOUBLE_TAYLOR, 1.0, 1.0) == (taylor7, 0)
    assert select_scheme(1e7, DOUBLE_TAYLOR, 1.0, 1.0) == (taylor7, 1)
    # cosine 2 * 5^(2/26) = 2.26 fits 2.567; sine 2 * 125^(1/23) = 2.47
    # needs one halving of 1.855; the norm alone needs three
    assert select_scheme(10.0, DOUBLE_TAYLOR, 10.0, 2.0) == (taylor7, 1)
    assert select_scheme(10.0, DOUBLE_TAYLOR) == (taylor7, 3)
    # wave: 100 * 100^(1/13) / 6.59 = 21.6 and 100 * 100^(1/11) / 3.64
    # = 41.8 both need three quarterings (log4 41.8 = 2.7)
    assert select_scheme(1e4, DOUBLE_WAVE, delta=100.0) == (
        SchemeId(SchemeFamily.WAVE_KERNEL, 5), 3)
    # Pade sine: 1e3^(1/9) / 0.1121 = 19.2 needs five halvings
    assert select_scheme(1e3, DOUBLE_PADE, 1.0, 1.0) == (PADE8, 5)
    # an omitted beta is the norm: sine 2 (1e3 1e6 / 8)^(1/23) = 4.50
    # needs two halvings of 1.855, as the true beta = 500 does; taking
    # beta = delta, 2 * 500^(1/23) = 2.62 would need one
    assert select_scheme(1e3, DOUBLE_TAYLOR, delta=2.0) == (taylor7, 2)
    assert select_scheme(1e3, DOUBLE_TAYLOR, 500.0, 2.0) == (taylor7, 2)
    assert select_scheme(1e3, DOUBLE_TAYLOR, 2.0, 2.0) == (taylor7, 1)
    for bad in (-1.0, math.inf, math.nan):
        for given in ({"beta": bad, "delta": 2.0}, {"delta": bad}):
            with pytest.raises(ValueError):
                select_scheme(1e3, DOUBLE_TAYLOR, **given)


def test_power_selection_never_needs_more_steps(rng):
    """Any consistent (a, beta, delta) selects no more steps or products."""
    tables = [t[p] for t in (TAYLOR_TABLE, PADE_TABLE, WAVE_TABLE)
              for p in Precision]
    for table in tables:
        wave = table is WAVE_TABLE[table.precision]
        for _ in range(2000):
            a = 10.0 ** rng.uniform(-4.0, 8.0)
            beta = a * 10.0 ** -rng.uniform(0.0, 6.0)
            delta = (a if wave else beta) * 10.0 ** -rng.uniform(0.0, 6.0)
            scheme, s = select_scheme(a, table, beta, delta)
            old_scheme, old_s = select_scheme(a, table)
            assert s <= old_s
            assert _pair_cost(table, scheme) + 2 * s <= \
                _pair_cost(table, old_scheme) + 2 * old_s


def _signed_circulant(rng, n, norm):
    # symmetric, every column sum of |entries| equal: ||A^k||_1 = ||A||_1^k;
    # its diagonal is 0, so no quarter-period shift moves it (a shifted one
    # would mix the signs of the circulant's entries, and the rule fails)
    half = rng.uniform(0.1, 1.0, n // 2 + 1)
    half[0] = 0.0
    row = np.concatenate([half, half[1:(n + 1) // 2][::-1]])
    c = np.array([np.roll(row, i) for i in range(n)])
    signs = np.diag(rng.choice([-1.0, 1.0], n))
    return signs @ c @ signs * (norm / row.sum())


def test_normal_inputs_select_as_on_the_norm(rng):
    for norm in np.logspace(-3.0, 4.0, 23):
        n = int(rng.integers(2, 7))
        d = rng.uniform(-1.0, 1.0, n)
        d[0] = 1.0
        diagonal = np.diag(d * (norm / np.abs(d).max()))
        for a in (diagonal, _signed_circulant(rng, n, norm)):
            assert a == pytest.approx(a.T, abs=0.0)
            for report, table, b in _three_calls(a, 1.3):
                if report.shift:
                    # a shifted diagonal is diagonal too
                    b = norm1(_shifted(a, report.shift))
                assert (report.scheme_used, report.scaling_exponent) == \
                    select_scheme(b, table)


def test_involutory_family_takes_no_steps():
    # A^2 = I: beta = delta = 1 however far ||A||_1 = 1 + lam reaches
    for j in range(7):
        lam = 10.0 ** j
        a = np.array([[1.0, lam], [0.0, -1.0]])
        report = cos_sin(a)
        assert report.scheme_used.k_products == 7
        assert report.scaling_exponent == 0
        assert report.total_products == 7
        assert report.selection_norms == (1.0 + lam, 1.0, 1.0)
        assert relative_error_2(report.result.cos_part,
                                math.cos(1.0) * np.eye(2)) <= 1e-15
        assert relative_error_2(report.result.sin_part,
                                math.sin(1.0) * a) <= 1e-15


def test_vanishing_fourth_power_takes_the_cheapest_scheme():
    a = np.array([[0.0, 300.0, -7.0], [0.0, 0.0, 450.0], [0.0, 0.0, 0.0]])
    y = a @ a                      # nonzero, but y^2 = A^4 = 0
    report = cos_sin(a)
    assert (report.scheme_used.k_products, report.scaling_exponent) == (3, 0)
    assert report.selection_norms[2] == 0.0
    assert np.array_equal(report.result.cos_part, np.eye(3) - 0.5 * y)
    assert np.array_equal(report.result.sin_part, a)
    pade = pade_cos_sin(a)
    assert pade.scaling_exponent == 0
    assert pade.total_products == Fraction(22, 3)
    b = np.array([[0.0, 5e3], [0.0, 0.0]])       # B^2 = 0
    wave = wave_cos_sin(b, 2.0)
    assert (wave.scheme_used.k_products, wave.scaling_exponent) == (3, 0)
    assert wave.selection_norms == (2e4, 0.0)
    assert np.array_equal(wave.result.cos_part, np.eye(2) - 0.5 * 4.0 * b)
    assert wave.result.sin_part == pytest.approx(
        2.0 * (np.eye(2) - 4.0 * b / 6.0), rel=1e-15)
    assert select_scheme(5.0, DOUBLE_TAYLOR, 1.0, 0.0) == (
        SchemeId(SchemeFamily.COS_SIN_TAYLOR, 3), 0)


def test_huge_norm_selection_raises_no_overflow_warning(rng):
    big = 2.0 ** 520
    involutory = np.array([[1.0, big], [0.0, -1.0]])
    dense = rng.standard_normal((6, 6))
    dense *= 2.0 ** 510 / norm1(dense)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cos_sin(involutory)
        for table in (DOUBLE_TAYLOR, DOUBLE_PADE):
            alg = MatrixAlgebra(CostLedger(), Structure.DENSE)
            _scheme, _s, basis, norms, _ = driver._selection(
                dense, table, alg, None)
            # A^2 is formed from A 2^-11; its norm is too large to square
            # before selection, so y^2 is formed from y once s is chosen,
            # and y^3, which both pairs read, from those two
            assert alg.ledger.products == 3
            assert np.isfinite(basis[:4]).all()
            assert all(math.isfinite(x) for x in norms)
        wave = wave_cos_sin(np.array([[0.0, big], [0.0, 0.0]]), 1.0)
    assert report.selection_norms == (1.0 + big, 1.0, 1.0)
    assert report.scaling_exponent <= select_scheme(1.0 + big,
                                                    DOUBLE_TAYLOR)[1]
    assert report.total_products == 7 + 2 * report.scaling_exponent
    assert np.isfinite(report.result.cos_part).all()
    assert np.isfinite(report.result.sin_part).all()
    # B is prescaled by 4^-11 like A, so B^2 = 0 is formed: the cheapest
    # scheme with the 11 prescale steps, and the exact outputs
    assert wave.selection_norms == (big, 0.0)
    assert (wave.scheme_used.k_products, wave.scaling_exponent) == (3, 11)
    assert np.array_equal(wave.result.cos_part, [[1.0, -big / 2], [0.0, 1.0]])
    assert np.array_equal(wave.result.sin_part, [[1.0, -big / 6], [0.0, 1.0]])
    assert wave.total_products == \
        wave.scheme_used.k_products + 2 * wave.scaling_exponent
    with np.errstate(over="ignore", invalid="ignore"):
        for run, table in ((cos_sin, DOUBLE_TAYLOR),
                           (pade_cos_sin, DOUBLE_PADE)):
            out = run(dense)
            assert out.scaling_exponent <= select_scheme(norm1(dense),
                                                         table)[1]
            assert out.total_products == \
                _pair_cost(table, out.scheme_used) + 2 * out.scaling_exponent
    assert out.scheme_used == PADE8


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("norm", [1e-6, 0.5, 40.0, 2.0 ** 400, 2.0 ** 600])
def test_selection_forms_its_powers_in_the_pair_basis(monkeypatch, entry,
                                                      norm):
    # the driver makes the call's workspace before any product, forms y
    # and y^2 = y y straight into its slabs 1 and 2, and hands it to
    # _basis, whose basis the pair starts from is a prefix of it: at the
    # floor, unscaled, scaled, with y^2 formed once s is chosen, and
    # prescaled by 2^-p
    outs, made, seen = [], [], []

    def counted(*args, _matmul=schemes.matmul, **kwargs):
        outs.append(kwargs["out"])
        return _matmul(*args, **kwargs)

    def workspace(n, _workspace=driver._workspace):
        made.append((len(outs), _workspace(n)))
        return made[-1][1]

    def spied(scheme, alg, stack, _basis=driver._basis):
        seen.append((stack, _basis(scheme, alg, stack)))
        return seen[-1][1]

    monkeypatch.setattr(schemes, "matmul", counted)
    monkeypatch.setattr(driver, "_workspace", workspace)
    monkeypatch.setattr(driver, "_basis", spied)
    a = np.random.default_rng(6).standard_normal((6, 6))
    _ENTRY_POINTS[entry](a * (norm / norm1(a)))
    ((products_before, stack),) = made
    ((handed, basis),) = seen
    assert products_before == 0 and handed is stack
    assert basis.base is stack
    assert (basis.__array_interface__["data"]
            == stack.__array_interface__["data"])
    assert np.array_equal(basis[0], np.eye(6))
    assert basis[2].tobytes() == (basis[1] @ basis[1]).tobytes()
    written = {out.__array_interface__["data"][0] for out in outs
               if out is not None}
    assert stack[2].__array_interface__["data"][0] in written
    if entry != "wave_cos_sin":
        assert stack[1].__array_interface__["data"][0] in written


@pytest.mark.parametrize("n", [1, 16, 64, 512])
def test_square_norms_are_norm1_bit_for_bit(n):
    # one pass over slabs 1 and 2, their magnitudes in slabs 3 and 4, reads
    # the norms two norm1 calls read, and leaves y and y^2 as they were
    rng = np.random.default_rng(n)
    stack = np.full((5, n, n), np.nan)
    stack[1] = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(
        -8, 8, (n, n))
    np.matmul(stack[1], stack[1], out=stack[2])
    y, y2 = stack[1].copy(), stack[2].copy()
    assert driver._square_norms(stack) == (norm1(y), norm1(y2))
    assert stack[1].tobytes() == y.tobytes()
    assert stack[2].tobytes() == y2.tobytes()


@pytest.mark.parametrize("entry", ["cos_sin", "pade_cos_sin"])
def test_square_norms_are_read_together_up_to_two_to_the_250(
        monkeypatch, entry):
    # up to ||A||_1 = 2^250 both norms come from one pass, and above it
    # from two norm1 calls, ||y^2|| only where ||y|| <= 2^500; either way
    # selection reads ||y||_1 and ||y^2||_1 exactly
    paired = []

    def spied(stack, _square_norms=driver._square_norms):
        paired.append(stack)
        return _square_norms(stack)

    monkeypatch.setattr(driver, "_square_norms", spied)
    a = np.random.default_rng(7).standard_normal((6, 6))
    a *= driver._PAIRED_NORMS_LIMIT / norm1(a)
    for scale, one_pass in ((1.0 - 2.0 ** -30, True),
                            (1.0 + 2.0 ** -30, False)):
        b = a * scale
        report = _ENTRY_POINTS[entry](b)
        assert len(paired) == one_pass
        paired.clear()
        y = b @ b
        beta = math.sqrt(norm1(y))
        assert report.selection_norms[:2] == (norm1(b), beta)
        if norm1(y) <= 2.0 ** 500:
            assert report.selection_norms[2] == math.sqrt(math.sqrt(
                norm1(y @ y)))


def test_wave_huge_norm_is_prescaled_like_cos_sin():
    # ||B||_1 = 1e307 is finite but 1e307 / theta is not; B is first taken
    # to B 4^-260, as cos_sin takes A to A 2^-p, so selection stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = wave_cos_sin(np.array([[1e307]]), 1.0)
    assert report.selection_norms == (1e307, 1e307)
    rest = select_scheme(math.ldexp(1e307, -520), DOUBLE_WAVE,
                         delta=math.ldexp(1e307, -520))
    assert (report.scheme_used, report.scaling_exponent) == \
        (rest[0], 260 + rest[1])
    assert (report.scheme_used.k_products, report.scaling_exponent) == \
        (5, 509)
    assert report.total_products == 5 + 2 * 509
    assert np.isfinite(report.result.cos_part).all()
    assert np.isfinite(report.result.sin_part).all()


# ------------------------------------------- overflow, huge norms, structure


_ROTATION = np.array([[0.0, 800.0], [-800.0, 0.0]])


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_overflow_is_reported_in_the_report_not_warned(entry):
    # cos(800 J) = cosh(800) I overflows; so does the wave pair at t = 40,
    # whose c(t^2 A) grows like e^(40 * 20)
    call = {"wave_cos_sin": lambda a: wave_cos_sin(a, 40.0)}.get(
        entry, _ENTRY_POINTS[entry])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = call(_ROTATION)
        tame = call(_ROTATION / 800.0)
    assert report.nonfinite
    assert not (np.isfinite(report.result.cos_part).all()
                and np.isfinite(report.result.sin_part).all())
    assert not tame.nonfinite


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_finite_input_whose_norm_overflows_is_prescaled(entry):
    # every entry is finite, but ||A||_1 = 2e308 is not: selection sizes
    # A from A 2^-q and counts q among the prescale steps.  The trace is 0
    # here, so no quarter-period shift moves either call below
    a = np.array([[1e308, 1e308], [1e308, -1e308]])
    wave = entry == "wave_cos_sin"
    call = (lambda m: wave_cos_sin(m, 1.0)) if wave else _ENTRY_POINTS[entry]
    table = {"cos_sin": DOUBLE_TAYLOR, "pade_cos_sin": DOUBLE_PADE,
             "wave_cos_sin": DOUBLE_WAVE}[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = call(a)
    assert report.selection_norms[0] == math.inf
    s = report.scaling_exponent
    # the operand is brought under 2^500 first: A by 2^-p, B by 4^-p
    assert s >= (1024 - driver._SQUARE_LIMIT_BITS) // (2 if wave else 1)
    assert report.total_products == \
        _pair_cost(table, report.scheme_used) + 2 * s
    # the same choice as for half the input, one step (or for B, a quarter
    # of it) further out
    smaller = call(a / (4.0 if wave else 2.0))
    assert math.isfinite(smaller.selection_norms[0])
    assert report.scheme_used == smaller.scheme_used
    assert s == smaller.scaling_exponent + 1


@pytest.mark.parametrize("entry", ["cos_sin", "pade_cos_sin"])
@pytest.mark.parametrize("a", [np.diag([1e308, 1e308]),
                               np.full((2, 2), 1e308)])
def test_finite_input_whose_trace_overflows_is_not_shifted(entry, a):
    # tr A = 2e308 is inf, though every entry is finite (and for the
    # diagonal, ||A||_1 too): no q is read from it, and nothing raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _ENTRY_POINTS[entry](a)
    assert report.shift == 0
    with np.errstate(over="ignore"):
        assert report.selection_norms[0] == norm1(a)


@pytest.mark.parametrize("entry", ["cos_sin", "pade_cos_sin"])
@pytest.mark.parametrize("q", range(-5, 6))
def test_a_quarter_period_shift_is_taken_and_reported(entry, q):
    # A = B + q (pi/2) I with ||B||_1 = 0.5 and tr B = 0: the driver takes
    # q back off, selects on B's norms, and turns B's pair by q mod 4
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 4))
    b -= np.trace(b) / 4 * np.eye(4)
    b *= 0.5 / norm1(b)
    a = b + q * (math.pi / 2) * np.eye(4)
    report = _ENTRY_POINTS[entry](a)
    assert report.shift == q
    shifted = _shifted(a, q)
    assert report.selection_norms == _power_norms(shifted)
    want = _ENTRY_POINTS[entry](shifted)
    assert want.shift == 0
    assert (report.scheme_used, report.scaling_exponent,
            report.total_products) == (want.scheme_used,
                                       want.scaling_exponent,
                                       want.total_products)
    for got, turned in zip(
            (report.result.cos_part, report.result.sin_part),
            quarter_turn(want.result.cos_part, want.result.sin_part, q)):
        assert np.array_equal(got, turned)


def test_a_shift_that_raises_the_norm_is_not_taken():
    # q = round(4 / pi) = 1, but B = A - (pi/2) I has column 0 summing to
    # 12.57 > ||A||_1 = 11: A is evaluated as it is
    a = np.array([[-1.0, 0.0], [10.0, 5.0]])
    report = cos_sin(a)
    assert report.shift == 0
    assert report.selection_norms == _power_norms(a)


def test_the_wave_pair_is_never_shifted():
    a = np.diag([math.pi, math.pi, 2.0])
    assert wave_cos_sin(a, 1.0).shift == 0


@pytest.mark.parametrize("t", [
    math.inf, -math.inf, math.nan, pytest.param(10 ** 400, id="int-1e400"),
    pytest.param(Fraction(10 ** 400), id="fraction-1e400")])
def test_wave_rejects_a_nonfinite_time(t):
    # an int or a Fraction past the largest double, which float() refuses
    # with a bare OverflowError, is not finite either
    with pytest.raises(MatrixInputError, match="t must be finite"):
        wave_cos_sin(np.eye(2), t)


@pytest.mark.parametrize("t", ["1.5", b"2", 1 + 0j, np.complex64(1), None,
                               [1.0], np.array([1.5])])
def test_wave_rejects_a_time_that_is_not_a_real_number(t):
    # float() parses a str or bytes, and refuses a complex t, None, a list
    # or a 1-element 1-D array with a bare TypeError
    with pytest.raises(MatrixInputError, match="t must be a real number"):
        wave_cos_sin(np.eye(2), t)


@pytest.mark.parametrize("t", [2, True, Fraction(3, 2), np.float32(1.5),
                               np.int64(2), np.array(1.5)])
def test_wave_reads_every_real_time_as_its_float(t):
    a = np.array([[1.0, 2.0], [0.5, -1.0]])
    got, want = wave_cos_sin(a, t).result, wave_cos_sin(a, float(t)).result
    assert np.array_equal(got.cos_part, want.cos_part)
    assert np.array_equal(got.sin_part, want.sin_part)


@pytest.mark.parametrize("a, t", [
    (np.ones((2, 2)), 1e200),       # t^2 itself overflows
    (np.full((2, 2), 1e10), 1e154),  # t^2 is finite, t^2 A is not
    (np.zeros((2, 2)), 1e200),      # inf * 0
])
def test_wave_rejects_a_time_whose_operand_overflows(a, t):
    with pytest.raises(MatrixInputError, match="t\\^2 A overflows"):
        wave_cos_sin(a, t)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("kind", ["jordan", "triu", "negdef"])
def test_structure_is_tested_once_per_call(monkeypatch, entry, kind):
    if kind == "negdef":
        a = _symmetric_inputs(matcore._SYMMETRIC_MIN_N)[kind]
    else:
        a = _triangular_inputs(2 * matcore._TRIANGULAR_MIN_N)[kind]
    seen = []
    original = driver.structure_of

    def counted(m):
        seen.append(m.shape)
        return original(m)

    monkeypatch.setattr(driver, "structure_of", counted)
    # four times the norm, so that every call doubles: the estimate of
    # ||A^8|| takes the triangular cos_sin call (n = 224, norm 24) to s = 0
    a = 4.0 * a
    report = _ENTRY_POINTS[entry](a)
    assert report.scaling_exponent > 0
    assert report.structure == ("symmetric" if kind == "negdef" else "upper")
    assert seen == [a.shape]


# ------------------------------------------- tiny entries in the doubling


_FLUSH_N = 2 * driver._FLUSH_MIN_N


def _jordan(n, norm=12.0):
    rng = np.random.default_rng(8)
    a = np.diag(rng.uniform(-1.0, 1.0, n)) + np.eye(n, k=1)
    return a * (norm / norm1(a))


def _without_tiny_entries(n):
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    triu = np.triu(rng.standard_normal((n, n)))
    return {name: m * (norm / norm1(m)) for name, m, norm in (
        ("dense", dense, 30.0), ("negdef", -(b @ b.T), 30.0),
        ("triu", triu, 48.0))}


def _has_subnormal(m):
    magnitude = np.abs(m)
    return bool(((magnitude > 0.0)
                 & (magnitude < np.finfo(np.float64).tiny)).any())


def _flushed_at(monkeypatch, min_n, call, a):
    """call(a) with the crossover at min_n, and how many of its products
    (selection's, the chain's and the doubling's) read a subnormal entry."""
    reads = []

    def spied(p, q, *args, _matmul=matcore.matmul, **kwargs):
        reads.append(_has_subnormal(p) or _has_subnormal(q))
        return _matmul(p, q, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(driver, "_FLUSH_MIN_N", min_n)
        m.setattr(schemes, "matmul", spied)
        return call(a), sum(reads)


def test_doubling_reads_no_subnormal_entry(monkeypatch):
    # the Pade pair of a Jordan-type matrix is a full triangle whose
    # entries decay far below 2^-1022 away from the diagonal.  Zeroed, the
    # pair is banded, and its products run over narrower windows, which
    # round apart from the full ones; the zeroing alone is measured with
    # every operand's width pinned to the full n - 1 in both calls
    a = _jordan(_FLUSH_N)
    banded, banded_reads = _flushed_at(monkeypatch, driver._FLUSH_MIN_N,
                                       pade_cos_sin, a)
    assert banded_reads == 0
    monkeypatch.setattr(matcore, "_bandwidth", lambda m: m.shape[0] - 1)
    want, before = _flushed_at(monkeypatch, math.inf, pade_cos_sin, a)
    got, after = _flushed_at(monkeypatch, driver._FLUSH_MIN_N, pade_cos_sin,
                             a)
    assert want.scaling_exponent > 0 and before > 0
    assert after == 0
    _same_choice(got, want)
    assert not _same_bits(got.result, want.result)
    for x, ref in ((got.result.cos_part, want.result.cos_part),
                   (got.result.sin_part, want.result.sin_part)):
        assert norm1(x - ref) <= 2.0 ** -400 * norm1(ref)
    # the banded windows keep the choice and the rounding bound
    _same_choice(banded, want)
    tol = 1e3 * _FLUSH_N * 4.0 ** want.scaling_exponent * 2.0 ** -53
    for x, ref in ((banded.result.cos_part, want.result.cos_part),
                   (banded.result.sin_part, want.result.sin_part)):
        assert norm1(x - ref) <= tol * norm1(ref)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("a", [
    *_without_tiny_entries(_FLUSH_N).values(),
    _jordan(driver._FLUSH_MIN_N - 1),
], ids=["dense", "negdef", "triu", "jordan-below-crossover"])
def test_pairs_without_zeroing_double_bit_for_bit(monkeypatch, entry, a):
    call = _ENTRY_POINTS[entry]
    want, _ = _flushed_at(monkeypatch, math.inf, call, a)
    got = call(a)
    assert want.scaling_exponent > 0
    _same_choice(got, want)
    assert _same_bits(got.result, want.result)


def test_the_crossover_is_the_smallest_size_zeroed(monkeypatch):
    a = _jordan(driver._FLUSH_MIN_N - 1)
    forced, _ = _flushed_at(monkeypatch, a.shape[0], pade_cos_sin, a)
    want, _ = _flushed_at(monkeypatch, math.inf, pade_cos_sin, a)
    assert not _same_bits(forced.result, want.result)
    assert _same_bits(pade_cos_sin(a).result, want.result)


def test_zeroing_keeps_the_sign_symmetry_exact(monkeypatch):
    # compared as test_properties compares it, by value: entries that
    # underflow to zero come out +0 for A and -A alike, zeroing or not
    a = _jordan(_FLUSH_N)
    plus, minus = pade_cos_sin(a), pade_cos_sin(-a)
    want, _ = _flushed_at(monkeypatch, math.inf, pade_cos_sin, a)
    assert not _same_bits(plus.result, want.result)
    assert minus.result.cos_part.tobytes() == plus.result.cos_part.tobytes()
    assert np.array_equal(minus.result.sin_part, -plus.result.sin_part)


def test_a_pair_that_overflowed_doubles_as_before(monkeypatch):
    # the same entering pair is zeroed while it is finite, and left as it
    # is once an inf is in it, through either step formula
    part = run_pair(_jordan(_FLUSH_N) * 2.0 ** -7, PADE8, CostLedger())

    def doubled(min_n, cos, wave):
        with monkeypatch.context() as m, np.errstate(invalid="ignore"):
            m.setattr(driver, "_FLUSH_MIN_N", min_n)
            return CosSinResult(*driver._double_angle(
                cos.copy(), part.sin_part.copy(), 1,
                MatrixAlgebra(CostLedger(), Structure.DENSE), wave))

    for wave in (False, True):
        cos = part.cos_part.copy()
        assert not _same_bits(doubled(driver._FLUSH_MIN_N, cos, wave),
                              doubled(math.inf, cos, wave))
        cos[0, -1] = math.inf
        assert _same_bits(doubled(driver._FLUSH_MIN_N, cos, wave),
                          doubled(math.inf, cos, wave))


@pytest.mark.parametrize("w", [800.0, 1500.0])
def test_a_pair_that_overflows_while_doubling_keeps_its_infs(monkeypatch, w):
    # cos(A) for w J blocks grows like cosh(w): at w = 800 it overflows in
    # the last step, at 1500 one step earlier.  A step whose pair holds an
    # inf zeroes nothing in it, so the inf and NaN entries fall where they
    # did, and the finite ones move by the zeroing, amplified by the steps
    # as the rounding is
    n = _FLUSH_N
    a = np.eye(n, k=1) * 0.5 + np.diag(
        np.random.default_rng(3).uniform(-1.0, 1.0, n))
    for i in range(0, n, 2):
        a[i, i + 1], a[i + 1, i] = w, -w
    want, _ = _flushed_at(monkeypatch, math.inf, pade_cos_sin, a)
    got = pade_cos_sin(a)
    assert got.nonfinite and want.nonfinite
    for x, ref in ((got.result.cos_part, want.result.cos_part),
                   (got.result.sin_part, want.result.sin_part)):
        finite = np.isfinite(ref)
        assert (np.isfinite(x) == finite).all()
        assert np.array_equal(x[~finite], ref[~finite], equal_nan=True)
        if finite.any():
            bound = 4.0 ** got.scaling_exponent * 2.0 ** -400
            top = np.abs(ref[finite]).max()
            assert np.abs(x[finite] - ref[finite]).max() <= bound * top
