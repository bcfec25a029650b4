"""Selection's second read: the norm of y^3 and a bound on ||y^4||.

From driver._CUBE_MIN_N, a degree-12 chain or the Pade pair chosen at
s >= 1 has y^3 formed by the driver at that s; its 1-norm and the bound
max((e^T |y^3|) |y|) >= ||y^4||_1 are read (driver._cube_norms), and s is
recomputed for that scheme alone from alpha_2 = max(||y^2||^(1/2),
||y^3||^(1/3)) and alpha_3 = max(||y^3||^(1/3), ||y^4||^(1/4)), which
bound ||y^j||^(1/j) from j = 2 and j = 6 on.  Where no value of ||y^4||
at or below the bound could lower s further the bound stands; otherwise
the smaller of it and a block 1-norm estimate of ||y^4||_1
(driver._power_norm_estimate) is read.  The scheme never moves, s never
rises, and a call whose s stays keeps every output bit.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cossinm import driver, schemes
from cossinm.driver import cos_sin, pade_cos_sin, select_scheme, wave_cos_sin
from cossinm.matcore import norm1
from cossinm.theta_tables import (
    PADE_TABLE,
    TAYLOR_TABLE,
    WAVE_TABLE,
    Precision,
)

U = 2.0 ** -53
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
ENTRIES = {
    "cos_sin": cos_sin,
    "wave_cos_sin": lambda a: wave_cos_sin(a, 1.5),
    "pade_cos_sin": pade_cos_sin,
}
FORMS = ("dense", "nonnegative", "upper", "jordan", "symmetric",
         "strictly-upper")


def _form(name, n, rng):
    if name == "dense":
        return rng.standard_normal((n, n))
    if name == "nonnegative":
        return rng.uniform(0.0, 1.0, (n, n))
    if name == "upper":
        return np.triu(rng.standard_normal((n, n)))
    if name == "jordan":
        return np.diag(rng.uniform(-1.0, 1.0, n)) + np.eye(n, k=1)
    if name == "symmetric":
        b = rng.standard_normal((n, n))
        return b + b.T
    return np.triu(rng.standard_normal((n, n)), 1)


def _input(name, n, norm, seed=0):
    a = _form(name, n, np.random.default_rng(seed))
    return a * (norm / norm1(a))


@PROPERTY
@given(st.sampled_from(FORMS), st.integers(driver._CUBE_MIN_N, 130),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_the_bound_and_each_alpha_cover_their_powers(form, n, seed, wave):
    # in the roots the report keeps: ||y^j||^(1/(2j)) for y = A^2, and
    # ||y^j||^(1/j) for the wave pair's y = B
    a = _input(form, n, 1.0, seed)
    y = a if wave else a @ a
    powers = [None, y]
    for _ in range(11):
        powers.append(powers[-1] @ y)
    gamma, eps = driver._cube_norms(y, powers[3], np.empty_like(y), wave)
    per = 1 if wave else 2  # operand degrees per y-degree
    root = [None] + [norm1(powers[j]) ** (1.0 / (per * j))
                     for j in range(1, 13)]
    assert gamma == root[3]
    # eps^(4 per) >= ||y^4||, up to the rounding of the two computed sides
    assert eps * (1.0 + 1e-12) >= root[4]
    alphas = ((2, max(root[2], gamma)), (3, max(gamma, eps)))
    for p, alpha in alphas:
        for j in range(p * (p - 1), 13):
            assert root[j] <= alpha * (1.0 + 1e-12), (p, j)


@pytest.mark.parametrize("form", ["dense", "upper", "symmetric"])
@pytest.mark.parametrize("n", [driver._CUBE_MIN_N, 200])
def test_the_estimate_is_a_repeatable_lower_bound(form, n):
    # estimate <= ||y^3 y||_1 <= max((e^T |y^3|) |y|), each up to rounding:
    # every computed entry of a column of y^3 y (the estimate's, or the
    # exact norm's) is within n u (|y^3| |y|)_ij of its exact value, and
    # the bound, a sum of nonnegative terms, within 2 n u of its own; so
    # each side may pass the next by 3 n u times the bound
    a = _input(form, n, 8.0)
    y = a @ a
    y3 = y @ y @ y
    exact = norm1(y3 @ y)
    bound = float((np.add.reduce(np.abs(y3), axis=0) @ np.abs(y)).max())
    slack = 3 * n * U * bound
    estimate = driver._power_norm_estimate(y, y3)
    assert estimate <= exact + slack
    assert exact <= bound + slack
    # within the factor 3 Higham and Tisseur report, so not vacuous
    assert estimate >= exact / 3
    assert estimate.hex() == driver._power_norm_estimate(y, y3).hex()


_TABLES = [t[p] for t in (TAYLOR_TABLE, WAVE_TABLE, PADE_TABLE) for p in t]
_unit = st.floats(0.0, 1.0)


@PROPERTY
@given(st.sampled_from(_TABLES), st.floats(-3.0, 4.0), _unit, _unit, _unit,
       st.floats(0.0, 2.0))
def test_the_cube_norms_only_lower_s(table, log_norm, b, d, g, e):
    # whatever gamma and eps are, the choice keeps the scheme, and s and
    # with it the cost can only fall
    norm = 10.0 ** log_norm
    beta = norm * b
    delta = beta * d
    gamma, eps = norm * g, norm * g * e
    scheme, s = select_scheme(norm, table, beta, delta)
    again, refined = select_scheme(norm, table, beta, delta,
                                   cube_norms=(gamma, eps))
    assert again == scheme
    assert 0 <= refined <= s
    if gamma == 0.0:
        assert refined == s


def test_a_zero_cube_keeps_todays_s():
    # y^3 = 0 would end the scaling outright; the rule on norm, beta and
    # delta stands instead
    for tables in (TAYLOR_TABLE, WAVE_TABLE, PADE_TABLE):
        table = tables[Precision.DOUBLE]
        want = select_scheme(40.0, table, 30.0, 20.0)
        assert want[1] > 0
        assert select_scheme(40.0, table, 30.0, 20.0,
                             cube_norms=(0.0, 0.0)) == want


def test_bad_cube_norms_raise():
    table = TAYLOR_TABLE[Precision.DOUBLE]
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            select_scheme(40.0, table, 30.0, 20.0, cube_norms=(bad, 1.0))
    for wrong_length in ((1.0,), (1.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="cube_norms must hold 0 or 2"):
            select_scheme(40.0, table, 30.0, 20.0, cube_norms=wrong_length)


def _unrefined(monkeypatch, call, a):
    with monkeypatch.context() as m:
        m.setattr(driver, "_CUBE_MIN_N", math.inf)
        return call(a)


def _same_bits(x, y):
    return (x.cos_part.tobytes() == y.cos_part.tobytes()
            and x.sin_part.tobytes() == y.sin_part.tobytes())


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("form", ["dense", "upper", "jordan", "symmetric"])
def test_below_the_crossover_no_bit_moves(monkeypatch, entry, form):
    a = _input(form, driver._CUBE_MIN_N - 1, 40.0)
    call = ENTRIES[entry]
    got, want = call(a), _unrefined(monkeypatch, call, a)
    assert want.scaling_exponent > 0
    assert got.cube_norms == ()
    assert (got.scheme_used, got.scaling_exponent, got.total_products) == (
        want.scheme_used, want.scaling_exponent, want.total_products)
    assert _same_bits(got.result, want.result)


def _pair_cost(scheme):
    return schemes.SCHEMES[scheme.family, scheme.k_products].cost


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("form,norm", [
    ("dense", 16.0), ("dense", 40.0), ("upper", 16.0), ("upper", 64.0),
    ("jordan", 12.0), ("symmetric", 12.0), ("strictly-upper", 40.0)])
def test_refinement_keeps_the_scheme_and_the_bits_of_an_unmoved_s(
        monkeypatch, entry, form, norm):
    a = _input(form, driver._CUBE_MIN_N, norm)
    call = ENTRIES[entry]
    got, want = call(a), _unrefined(monkeypatch, call, a)
    assert got.scheme_used == want.scheme_used
    assert got.scaling_exponent <= want.scaling_exponent
    assert got.total_products <= want.total_products
    assert got.total_products == (_pair_cost(got.scheme_used)
                                  + 2 * got.scaling_exponent)
    assert got.selection_norms == want.selection_norms
    cubic = schemes.SCHEMES[got.scheme_used.family,
                            got.scheme_used.k_products].powers == 3
    assert bool(got.cube_norms) == (cubic and want.scaling_exponent > 0)
    if got.scaling_exponent == want.scaling_exponent:
        assert _same_bits(got.result, want.result)


@pytest.mark.parametrize("entry,form,norm,drops", [
    ("cos_sin", "upper", 16.0, True), ("cos_sin", "dense", 24.0, False),
    ("wave_cos_sin", "upper", 24.0, True),
    ("wave_cos_sin", "symmetric", 40.0, False),
    ("pade_cos_sin", "dense", 16.0, True),
    ("pade_cos_sin", "jordan", 12.0, False)])
def test_y3_is_formed_once(monkeypatch, entry, form, norm, drops):
    # every product's result is kept (each slab of a stacked doubling
    # step's); exactly one of them is the y^3 the pair's basis holds, up to
    # the power of two a lowered s rescales it by
    a = _input(form, driver._CUBE_MIN_N, norm)
    call = ENTRIES[entry]
    want = _unrefined(monkeypatch, call, a)
    results, handed = [], []

    def spied_matmul(*args, _matmul=schemes.matmul, **kwargs):
        product = _matmul(*args, **kwargs)
        results.extend(product.copy().reshape(-1, *product.shape[-2:]))
        return product

    def spied_pair(scheme, odd, alg, basis, _pair=driver._pair):
        handed.append(basis[3].copy())
        return _pair(scheme, odd, alg, basis)

    monkeypatch.setattr(schemes, "matmul", spied_matmul)
    monkeypatch.setattr(driver, "_pair", spied_pair)
    got = call(a)
    assert (got.scaling_exponent < want.scaling_exponent) is drops
    (cube,) = handed
    matches = 0
    for r in results:
        shift = round(math.log2(norm1(cube) / norm1(r)))
        matches += np.array_equal(np.ldexp(r, shift), cube)
    assert matches == 1
    assert len(results) == got.total_products - (
        _pair_cost(got.scheme_used) - got.scheme_used.k_products)
    assert got.total_products == (_pair_cost(got.scheme_used)
                                  + 2 * got.scaling_exponent)


def _triangular(name, n, rng):
    if name == "band-4":
        return np.triu(np.tril(rng.standard_normal((n, n)), 4))
    strict = np.triu(rng.standard_normal((n, n)), 1)
    if name == "strictly-upper":
        return strict
    return strict + np.diag(1e-3 * rng.standard_normal(n))


@pytest.mark.parametrize("n", [driver._CUBE_MIN_N, 200])
def test_triangular_input_that_loses_steps_stays_accurate(monkeypatch, n):
    # each output within the benchmark's 10^3 n 4^s u of expm(iA); at the
    # crossover some of these calls lose a step
    rng = np.random.default_rng(n)
    dropped = 0
    for name in ("strictly-upper", "band-4", "tiny-diagonal"):
        m = _triangular(name, n, rng)
        for norm in (16.0, 64.0):
            a = m * (norm / norm1(m))
            e = scipy.linalg.expm(1j * a)
            for call in (cos_sin, pade_cos_sin):
                got = call(a)
                want = _unrefined(monkeypatch, call, a)
                assert got.scaling_exponent <= want.scaling_exponent
                dropped += got.scaling_exponent < want.scaling_exponent
                tol = 1e3 * n * 4.0 ** got.scaling_exponent * U
                for x, ref in ((got.result.cos_part, e.real),
                               (got.result.sin_part, e.imag)):
                    assert norm1(x - ref) <= tol * norm1(ref)
    if n == driver._CUBE_MIN_N:
        assert dropped
