"""The dense fast path against plain arithmetic, and what tracers rely on.

The product path converts scheme constants to float64 once at import,
forms each chain stage's combinations in one call over a shared basis
stack, writes products straight into that stack, doubles in place and
calls LAPACK directly.  None of that may change a product, a ledger total
or an output bit: the chains are replayed here through a naive algebra (a
list of separate matrices for a basis, explicit identity, float(c) per
term, every sum started from zeros, scipy's LU wrappers) and compared bit
for bit.
"""

import ast
import importlib.util
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import cossinm
from cossinm import driver, matcore, schemes
from cossinm.matcore import CostLedger, Structure, matmul
from cossinm.schemes import (
    PADE8_DEN,
    PADE8_NUM_COS,
    PADE8_NUM_SIN,
    MatrixAlgebra,
    SchemeFamily,
    SchemeId,
    SqrtCoeff,
    chain_deg2,
    chain_deg4,
    chain_deg8,
    chain_deg12,
)
from cossinm.theta_tables import (
    PADE_TABLE,
    TAYLOR_TABLE,
    WAVE_TABLE,
    Precision,
    ThetaEntry,
    ThetaTable,
)
from pairs import run_pair

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _dense(p, q, ledger):
    """One charged product on the dense path, np.matmul's bits."""
    return matmul(p, q, ledger, structure=Structure.DENSE)


class NaiveAlgebra:
    """The plain dense algebra: exact constants converted per term."""

    def __init__(self, n, ledger):
        self.one = np.eye(n)
        self.ledger = ledger

    def constants(self, table):
        return table.exact

    def basis(self, depth, *operands):
        slabs = [self.one, *operands]
        return slabs + [np.zeros(self.one.shape)
                        for _ in range(depth - len(slabs))]

    @staticmethod
    def _into(value, out):
        if out is not None:
            out[...] = value
        return value

    def mul(self, p, q, out=None):
        return self._into(_dense(p, q, self.ledger), out)

    def lin(self, basis, block):
        rows = []
        for row in block:
            out = np.zeros(basis[0].shape)
            for c, m in zip(row, basis, strict=True):
                out += float(c) * m
            rows.append(out)
        return rows

    def add(self, p, q, out=None):
        return self._into(np.zeros(p.shape) + p + q, out)


def _naive_double_angle(cos, sin, steps, ledger, wave):
    # both products read the old pair: C <- I - 2 S^2 for the trigonometric
    # pairs, C <- 2 C^2 - I for the wave pair, and S <- 2 S C
    eye = np.eye(cos.shape[0])
    for _ in range(steps):
        if wave:
            new_cos = np.zeros(cos.shape) + 2.0 * _dense(cos, cos, ledger) \
                + (-1.0) * eye
        else:
            new_cos = np.zeros(cos.shape) + (-2.0) * _dense(sin, sin, ledger) \
                + 1.0 * eye
        sin = np.zeros(sin.shape) + 2.0 * _dense(sin, cos, ledger)
        cos = new_cos
    return cos, sin


def _inputs():
    rng = np.random.default_rng(2718)
    dense = rng.standard_normal((6, 6))
    nilpotent = np.triu(rng.standard_normal((5, 5)), k=1)
    return {
        "random": dense * (0.9 / np.abs(dense).sum(axis=0).max()),
        "zero": np.zeros((4, 4)),
        "nilpotent": nilpotent * 3.0,
        # one entry per slab: linear_combination's own summation loop
        "scalar": np.array([[-0.83]]),
    }


INPUTS = _inputs()
TAYLOR_CHAINS = {3: chain_deg2, 4: chain_deg4, 6: chain_deg8, 7: chain_deg12}
WAVE_CHAINS = {3: chain_deg4, 4: chain_deg8, 5: chain_deg12}
# each chain's basis: I, y, y^2, (y^3,) then the slabs it fills
DEPTHS = {chain_deg2: 3, chain_deg8: 5, chain_deg12: 6}


def _naive_basis(alg, family, k, y, y2):
    """A chain's basis as separate matrices, y^3 = y^2 y formed for the
    degree-12 chain."""
    chain = (TAYLOR_CHAINS if family is SchemeFamily.COS_SIN_TAYLOR
             else WAVE_CHAINS)[k]
    exact = family is SchemeFamily.WAVE_KERNEL
    depth = (4 + exact) if chain is chain_deg4 else DEPTHS[chain]
    if chain is chain_deg12:
        return alg.basis(depth, y, y2, alg.mul(y2, y))
    return alg.basis(depth, y, y2)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("k", sorted(TAYLOR_CHAINS))
def test_taylor_chain_matches_naive_arithmetic(name, k):
    a = INPUTS[name]
    fast_ledger, naive_ledger = CostLedger(), CostLedger()
    fast = run_pair(a, SchemeId(SchemeFamily.COS_SIN_TAYLOR, k), fast_ledger)
    alg = NaiveAlgebra(a.shape[0], naive_ledger)
    y = alg.mul(a, a)
    y2 = alg.mul(y, y)
    chain = TAYLOR_CHAINS[k]
    basis = _naive_basis(alg, SchemeFamily.COS_SIN_TAYLOR, k, y, y2)
    if chain is chain_deg4:
        cos, core = chain(alg, basis, exact_sine=False)
    else:
        cos, core = chain(alg, basis)
    sin = alg.mul(a, core)
    assert _same_bits(fast.cos_part, cos)
    assert _same_bits(fast.sin_part, sin)
    assert fast_ledger.total_cost == naive_ledger.total_cost == k


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("k", sorted(WAVE_CHAINS))
def test_wave_chain_matches_naive_arithmetic(name, k):
    a, t = INPUTS[name], 1.3
    fast_ledger, naive_ledger = CostLedger(), CostLedger()
    fast = run_pair(a, SchemeId(SchemeFamily.WAVE_KERNEL, k), fast_ledger,
                    t=t)
    alg = NaiveAlgebra(a.shape[0], naive_ledger)
    y = t * t * a
    y2 = alg.mul(y, y)
    chain = WAVE_CHAINS[k]
    basis = _naive_basis(alg, SchemeFamily.WAVE_KERNEL, k, y, y2)
    if chain is chain_deg4:
        c, core = chain(alg, basis, exact_sine=True)
    else:
        c, core = chain(alg, basis)
    assert _same_bits(fast.cos_part, c)
    assert _same_bits(fast.sin_part, t * core)
    assert fast_ledger.total_cost == naive_ledger.total_cost == k


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_pade_pair_matches_naive_arithmetic(name):
    a = INPUTS[name]
    fast_ledger, naive_ledger = CostLedger(), CostLedger()
    fast = run_pair(a, schemes.PADE8, fast_ledger)
    alg = NaiveAlgebra(a.shape[0], naive_ledger)
    y = alg.mul(a, a)
    y2 = alg.mul(y, y)
    y3 = alg.mul(y, y2)
    y4 = alg.mul(y, y3)
    powers = [alg.one, y, y2, y3, y4]
    den, num_cos = alg.lin(powers, (PADE8_DEN, PADE8_NUM_COS))
    (num_sin_factor,) = alg.lin(powers[:4], (PADE8_NUM_SIN,))
    num_sin = alg.mul(a, num_sin_factor)
    factors = lu_factor(den, check_finite=False)
    assert _same_bits(fast.cos_part,
                      lu_solve(factors, num_cos, check_finite=False))
    assert _same_bits(fast.sin_part,
                      lu_solve(factors, num_sin, check_finite=False))
    naive_ledger.charge_lu(solves=2)
    assert fast_ledger.total_cost == naive_ledger.total_cost
    assert fast_ledger.total_cost == Fraction(22, 3)


def _scheme_pair(a, wave):
    if wave:
        part = run_pair(a, SchemeId(SchemeFamily.WAVE_KERNEL, 4),
                        CostLedger(), t=1.3)
    else:
        part = run_pair(a, SchemeId(SchemeFamily.COS_SIN_TAYLOR, 6),
                        CostLedger())
    return part.cos_part, part.sin_part


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("steps", [0, 1, 4])
def test_in_place_doubling_matches_naive_arithmetic(name, steps):
    for wave in (False, True):
        cos0, sin0 = _scheme_pair(INPUTS[name], wave)
        kept_cos, kept_sin = cos0.copy(), sin0.copy()
        fast_ledger, naive_ledger = CostLedger(), CostLedger()
        cos, sin = driver._double_angle(
            cos0, sin0, steps, MatrixAlgebra(fast_ledger, Structure.DENSE),
            wave)
        want_cos, want_sin = _naive_double_angle(kept_cos, kept_sin, steps,
                                                 naive_ledger, wave)
        assert np.array_equal(cos, want_cos)
        assert np.array_equal(sin, want_sin)
        assert fast_ledger.total_cost == naive_ledger.total_cost == 2 * steps
        # the scheme's own outputs are read, never overwritten
        assert _same_bits(cos0, kept_cos)
        assert _same_bits(sin0, kept_sin)


def _per_product_double_angle(cos, sin, steps, ledger, wave):
    # the step as two products of the old pair, each a fresh array scaled
    # in place: C <- I - 2 (S S), or C <- 2 (C C) - I for the wave pair,
    # and S <- 2 (S C)
    n = cos.shape[0]
    for _ in range(steps):
        if wave:
            square = _dense(cos, cos, ledger)
            square *= 2.0
            square.ravel()[:: n + 1] -= 1.0
        else:
            square = _dense(sin, sin, ledger)
            square *= -2.0
            square.ravel()[:: n + 1] += 1.0
        sin = _dense(sin, cos, ledger)
        sin *= 2.0
        cos = square
    return cos, sin


def _entering_pair(n, order, wave):
    # a degree-8 Taylor (wave) pair at n, C-ordered as the chains return
    # it, its cosine a slab of the pair's basis; or the same pair
    # Fortran-ordered, as the Pade pair's dgetrs solves below the GEMM
    # crossover return theirs
    a = np.random.default_rng(n).standard_normal((n, n))
    a *= 0.9 / matcore.norm1(a)
    part = _scheme_pair(a, wave)
    if order == "F":
        return tuple(map(np.asfortranarray, part))
    return part


def _holds_only_its_pair(cos, sin):
    """Whether each matrix owns its memory, or is a slab of one (2, n, n)
    array whose other slab is its partner: a returned pair keeps nothing
    else alive."""
    for m, partner in ((cos, sin), (sin, cos)):
        base = m.base
        if base is None:
            continue
        slabs = {base[0].ctypes.data, base[1].ctypes.data}
        if not (base.shape == (2, *m.shape) and partner.base is base
                and {m.ctypes.data, partner.ctypes.data} == slabs):
            return False
    return True


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 16, 17, 33, 63,
                               driver._BROADCAST_STEP_MIN_N - 1,
                               driver._BROADCAST_STEP_MIN_N])
@pytest.mark.parametrize("steps", [0, 1, 2, 3])
def test_stacked_doubling_step_matches_the_per_product_step(order, n, steps):
    # the one doubling loop, two (2, n, n) buffers: the first step (and
    # every wave step) writes the old pair's two products into a buffer,
    # every later trigonometric step is one stacked product S [S, C], the
    # buffers alternating between [S, C] and [C, S] (so s = 2 and 3 end in
    # either layout), against two products per step, for the
    # trigonometric and the wave step: the same bits, C- or
    # Fortran-ordered, on either side of the step's crossover (the cached
    # scale and shift below it, the broadcast scale and the diagonal update
    # from it), 2 charged per step, and a returned pair that holds nothing
    # else alive (at s = 0 the entering cosine, a basis slab, is copied)
    for wave in (False, True):
        cos0, sin0 = _entering_pair(n, order, wave)
        assert cos0.flags.c_contiguous is (order == "C" or n == 1)
        fast_ledger, want_ledger = CostLedger(), CostLedger()
        got = driver._double_angle(
            cos0, sin0, steps, MatrixAlgebra(fast_ledger, Structure.DENSE),
            wave)
        want = _per_product_double_angle(cos0, sin0, steps, want_ledger,
                                         wave)
        for m, ref in zip(got, want):
            assert _same_bits(m, ref)
            assert m.flags.c_contiguous or not steps
        assert _holds_only_its_pair(*got)
        assert fast_ledger.products == want_ledger.products == 2 * steps


def _special_pair(n, wave, kind):
    # the entering pair at n, owned and C-ordered, with entries the shift's
    # -0.0 must pass through unchanged: exact zeros of either sign, a
    # subnormal, an inf or a NaN
    cos, sin = (np.array(m) for m in _entering_pair(n, "C", wave))
    if kind == "zeros":
        lower = np.tril_indices(n, -1)
        cos[lower], sin[lower] = -0.0, 0.0
        sin[0, -1], cos[0, -1] = -0.0, 0.0
    elif kind == "subnormal":
        sin[0, 0], cos[-1, 0] = 5e-324, -2.5e-320
    elif kind == "inf":
        sin[0, -1] = math.inf
    else:
        cos[-1, 0] = math.nan
    return cos, sin


@pytest.mark.parametrize("kind", ["zeros", "subnormal", "inf", "nan"])
@pytest.mark.parametrize("n", [1, 4, driver._BROADCAST_STEP_MIN_N - 1,
                               driver._BROADCAST_STEP_MIN_N])
def test_doubling_keeps_the_bits_of_signed_zeros_and_special_entries(kind, n):
    # x + -0.0 is x for every x, so the cached shift's pass over the whole
    # new cosine keeps what the diagonal update alone kept: each entry's
    # bits against two products per step, for both families and s = 1-3
    for wave in (False, True):
        cos0, sin0 = _special_pair(n, wave, kind)
        for steps in (1, 2, 3):
            with np.errstate(over="ignore", invalid="ignore"):
                got = driver._double_angle(
                    cos0, sin0, steps,
                    MatrixAlgebra(CostLedger(), Structure.DENSE), wave)
                want = _per_product_double_angle(cos0, sin0, steps,
                                                 CostLedger(), wave)
            for m, ref in zip(got, want):
                assert _same_bits(m, ref), (wave, steps)


def test_step_stacks_are_cached_read_only_and_only_below_the_crossover():
    crossover = driver._BROADCAST_STEP_MIN_N
    driver._step_stacks.cache_clear()
    for n in (crossover, crossover + 1):
        for wave in (False, True):
            cos0, sin0 = _entering_pair(n, "C", wave)
            driver._double_angle(cos0, sin0, 3,
                                 MatrixAlgebra(CostLedger(), Structure.DENSE),
                                 wave)
    assert driver._step_stacks.cache_info().currsize == 0
    for wave in (False, True):
        first = driver._step_stacks(crossover - 1, wave)
        assert driver._step_stacks(crossover - 1, wave) is first
        (scale0, scale1), shift = first
        assert shift.shape == (crossover - 1,) * 2
        assert scale0.shape == scale1.shape == (
            () if wave else (2, *shift.shape))
        assert not any(a.flags.writeable for a in (scale0, scale1, shift))
    assert driver._step_stacks.cache_info().currsize == 2


def _held_arrays(value, path, seen):
    """(path, array) for each ndarray value holds, looking through tuples,
    lists, dicts, SimpleNamespaces and the attributes of instances of
    cossinm's own classes."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield path, value
        return
    if isinstance(value, (tuple, list)):
        items = enumerate(value)
    elif isinstance(value, dict):
        items = value.items()
    elif isinstance(value, SimpleNamespace) or (
            type(value).__module__.startswith("cossinm.")
            and hasattr(value, "__dict__")):
        items = vars(value).items()
    else:
        return
    for key, item in items:
        yield from _held_arrays(item, f"{path}[{key!r}]", seen)


def test_no_module_holds_a_writeable_array():
    # every call reads the library's module-level arrays; a stray in-place
    # write into one would change every later call
    held = {}
    for info in pkgutil.iter_modules(cossinm.__path__):
        module = importlib.import_module(f"cossinm.{info.name}")
        seen = set()
        for name, value in vars(module).items():
            if not (isinstance(value, ModuleType) or callable(value)):
                held.update(_held_arrays(value, f"{info.name}.{name}", seen))
    assert "matcore._STRICT_LOWER" in held
    assert any(path.startswith("driver._STEP_SCALES") for path in held)
    assert any(path.startswith("schemes.TAYLOR_CONSTANTS") for path in held)
    assert [path for path, a in held.items() if a.flags.writeable] == []


def _large_input(n, form, norm):
    # the benchmark's large inputs, at smaller n
    rng = np.random.default_rng(64)
    if form == "dense":
        a = rng.standard_normal((n, n))
    elif form == "jordan":
        a = np.diag(rng.uniform(-1.0, 1.0, n)) + np.eye(n, k=1)
    elif form == "triu":
        a = np.triu(rng.standard_normal((n, n)))
    else:
        b = rng.standard_normal((n, n))
        a = -(b @ b.T) / n
    return a * (norm / matcore.norm1(a))


# kind -> (form, 1-norm, t); the floor kinds sit below every table's floor,
# where selection forms y and y^2 for the chain without reading their norms
LARGE_KINDS = {"dense": ("dense", 1.5, 1.0), "jordan": ("jordan", 4.0, 0.5),
               "triu": ("triu", 24.0, 1.0), "negdef": ("negdef", 60.0, 1.5),
               "floor-dense": ("dense", 1e-3, 1.0),
               "floor-triu": ("triu", 1e-3, 1.0)}
TABLES = {"cos_sin": TAYLOR_TABLE, "wave_cos_sin": WAVE_TABLE,
          "pade_cos_sin": PADE_TABLE}


def _naive_call(entry, a, t):
    """One driver call replayed in the naive algebra: selection on norms
    of powers formed here, the chain at the scaled operand with those
    powers scaled to match, scipy's LU for the Pade pair, and the doubling
    from the old pair.  From the cube crossover, a degree-12 chain or Pade
    pair at s >= 1 has s recomputed from the norm of y^3 at that s and the
    bound max((e^T |y^3|) |y|) on ||y^4||, and its powers rescaled.
    Returns the report's fields and the pair."""
    table = TABLES[entry][Precision.DOUBLE]
    ledger = CostLedger()
    n = a.shape[0]
    alg = NaiveAlgebra(n, ledger)
    wave = entry == "wave_cos_sin"
    x = t * t * a if wave else a
    norm = matcore.norm1(x)
    y = x if wave else alg.mul(x, x)
    y2 = alg.mul(y, y)
    root = math.sqrt(matcore.norm1(y2))
    if wave:
        norms = (norm, root)
        beta, delta = None, root
    else:
        beta = math.sqrt(matcore.norm1(y))
        delta = math.sqrt(root)
        norms = (norm, beta, delta)
    scheme, s = driver.select_scheme(norm, table, beta, delta)
    y, y2 = y * 2.0 ** (-2 * s), y2 * 2.0 ** (-4 * s)
    y3, cubes = None, ()
    if scheme.k_products == (5 if wave else 7) or entry == "pade_cos_sin":
        y3 = alg.mul(y, y2) if entry == "pade_cos_sin" else alg.mul(y2, y)
        if s and n >= driver._CUBE_MIN_N:
            columns = np.abs(y3).sum(axis=0)
            d, e = (3, 4) if wave else (6, 8)
            step = 2.0 ** (table.step_bits * s)
            cubes = (matcore.norm1(y3) ** (1 / d) * step,
                     (columns @ np.abs(y)).max() ** (1 / e) * step)
            again, refined = driver.select_scheme(norm, table, beta, delta,
                                                  cube_norms=cubes)
            assert again == scheme and refined <= s
            y, y2, y3 = (m * 4.0 ** (k * (s - refined))
                         for k, m in enumerate((y, y2, y3), start=1))
            s = refined
    scaled = a * 2.0 ** -s
    if entry == "pade_cos_sin":
        powers = [alg.one, y, y2, y3, alg.mul(y, y3)]
        den, num_cos = alg.lin(powers, (PADE8_DEN, PADE8_NUM_COS))
        (num_sin_factor,) = alg.lin(powers[:4], (PADE8_NUM_SIN,))
        num_sin = alg.mul(scaled, num_sin_factor)
        factors = lu_factor(den, check_finite=False)
        cos = lu_solve(factors, num_cos, check_finite=False)
        sin = lu_solve(factors, num_sin, check_finite=False)
        ledger.charge_lu(solves=2)
    else:
        chain = schemes.SCHEMES[scheme.family, scheme.k_products].chain
        if y3 is None:
            basis = _naive_basis(alg, scheme.family, scheme.k_products, y,
                                 y2)
        else:
            basis = alg.basis(6, y, y2, y3)
        cos, core = chain(alg, basis)
        sin = float(t / 2.0 ** s) * core if wave else alg.mul(scaled, core)
    cos, sin = _naive_double_angle(cos, sin, s, ledger, wave)
    return (scheme, s, ledger.total_cost, norms, cubes), (cos, sin)


def _driver_call(entry, a, t):
    if entry == "wave_cos_sin":
        return cossinm.wave_cos_sin(a, t)
    return getattr(cossinm, entry)(a)


@pytest.mark.parametrize("entry", sorted(TABLES))
@pytest.mark.parametrize("kind", sorted(LARGE_KINDS))
@pytest.mark.parametrize("n", [17, 33, matcore._GEMM_MIN_N - 1,
                               matcore._GEMM_MIN_N, 2 * matcore._GEMM_MIN_N])
def test_large_calls_match_the_naive_replay(entry, kind, n):
    # from the GEMM crossover the combinations and the Pade solves round
    # differently: the choice and the ledger stay the replay's exactly and
    # the outputs stay within 10^3 n 4^s u of it.  Below it every value is
    # the replay's bit for bit; only a zero may differ in sign, as the
    # in-place C <- I - 2 S^2 scales a +0 by -2 where the replay's
    # zero-started sum keeps +0 (the doubling test compares values too).
    # At n = 17 and 33 the Pade pair's Fortran-ordered solves enter the
    # doubling, whose rounding depends on the operands' layout
    form, norm, t = LARGE_KINDS[kind]
    a = _large_input(n, form, norm)
    report = _driver_call(entry, a, t)
    choice, pair = _naive_call(entry, a, t)
    assert (report.scheme_used, report.scaling_exponent,
            report.total_products) == choice[:3]
    if kind.startswith("floor"):
        # no power's norm is read at the floor: each entry repeats the first
        assert report.selection_norms == (choice[3][0],) * len(choice[3])
    else:
        assert report.selection_norms == choice[3]
    assert report.cube_norms == choice[4]
    got = (report.result.cos_part, report.result.sin_part)
    if n < matcore._GEMM_MIN_N:
        assert all(map(np.array_equal, got, pair))
        return
    tol = 1e3 * n * 4.0 ** report.scaling_exponent * 2.0 ** -53
    for x, ref in zip(got, pair):
        assert matcore.norm1(x - ref) <= tol * matcore.norm1(ref)


def _triangular():
    rng = np.random.default_rng(96)
    n = 2 * matcore._TRIANGULAR_MIN_N
    a = np.triu(rng.standard_normal((n, n)))
    return a * (0.9 / np.abs(a).sum(axis=0).max())


@pytest.mark.parametrize("name", sorted(INPUTS) + ["triangular"])
def test_returned_pairs_are_not_views_into_a_stack(name):
    # a slab of a chain's basis stack, or a row of a stage's combinations,
    # would keep the whole stack alive as long as the result lives; the
    # doubling's last buffer holds the pair alone
    a = _triangular() if name == "triangular" else INPUTS[name]
    for scale in (0.1, 1.0, 40.0):
        for report in (cossinm.cos_sin(a * scale),
                       cossinm.wave_cos_sin(a * scale, 1.3),
                       cossinm.pade_cos_sin(a * scale)):
            part = report.result
            assert part.cos_part.shape == part.sin_part.shape == a.shape
            assert _holds_only_its_pair(part.cos_part, part.sin_part)


def test_no_exact_constant_is_converted_at_call_time(monkeypatch):
    conversions = []
    for cls in (Fraction, SqrtCoeff):
        original = cls.__float__

        def counted(self, original=original):
            conversions.append(self)
            return original(self)

        monkeypatch.setattr(cls, "__float__", counted)
    assert float(Fraction(1, 3)) == 1.0 / 3.0 and conversions
    conversions.clear()
    a = INPUTS["random"] * 40.0
    for report in (cossinm.cos_sin(a), cossinm.wave_cos_sin(a, 3.0),
                   cossinm.pade_cos_sin(a)):
        assert report.scaling_exponent > 0
    assert conversions == []


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"_cossinm_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_reads_the_result_arrays_themselves():
    calls = _load_perfbench("calls")
    a = INPUTS["random"]
    for report in (cossinm.cos_sin(a), cossinm.wave_cos_sin(a, 1.3),
                   cossinm.pade_cos_sin(a)):
        cos, sin = calls.pair(report.result)
        assert cos is report.result.cos_part
        assert sin is report.result.sin_part


def test_tracer_rebind_targets_still_resolve():
    tracing = _load_perfbench("tracing")
    for module, attribute, _span in tracing.REBIND:
        assert callable(getattr(module, attribute)), (module, attribute)


def _bound_names(statements):
    """(name, line) for each name the given top-level statements bind."""
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_no_unused_library_import_and_no_test_name_bound_twice():
    # an import the library never reads is allowed only where the tracer
    # rebinds it to record its spans
    rebound = {(module.__name__, attribute) for module, attribute, _span
               in _load_perfbench("tracing").REBIND}
    unused = []
    for path in sorted((ROOT / "src" / "cossinm").glob("*.py")):
        tree = ast.parse(path.read_text())
        module = ("cossinm" if path.stem == "__init__"
                  else f"cossinm.{path.stem}")
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and (
                    ast.unparse(node.targets[0]) == "__all__"):
                read |= set(ast.literal_eval(node.value))
        imports = [node for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        unused += [(path.name, name) for name, _line in _bound_names(imports)
                   if name not in read and (module, name) not in rebound]
    assert unused == []
    twice = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        first = {}
        for name, line in _bound_names(ast.parse(path.read_text()).body):
            if name in first:
                twice.append((path.name, name, first[name], line))
            first.setdefault(name, line)
    assert twice == []


# A crossover constant of matcore or driver: the size, or the ratio, at
# which a kernel or a step changes
_CROSSOVER = re.compile(r"_[A-Z0-9_]+_(?:MIN_N|MAX_RATIO)")


def test_readme_names_every_crossover_with_its_value():
    # each mention reads `module._NAME` = value, or = value (`module._NAME`)
    readme = (ROOT / "README.md").read_text()
    found, stale = [], []
    for module in (matcore, driver):
        prefix = module.__name__.rpartition(".")[2]
        for name, value in sorted(vars(module).items()):
            if not _CROSSOVER.fullmatch(name):
                continue
            found.append(name)
            number = re.escape(str(value))
            mentions = list(re.finditer(re.escape(f"`{prefix}.{name}`"),
                                        readme))
            if not mentions:
                stale.append((name, value, "missing"))
            for mention in mentions:
                after = readme[mention.end():mention.end() + 40]
                before = readme[max(0, mention.start() - 40):mention.start()]
                if not (re.match(rf" = {number}(?![\d.])", after)
                        or re.search(rf"= {number}\s*\($", before)):
                    line = readme.count("\n", 0, mention.start()) + 1
                    stale.append((name, value, f"README.md:{line}"))
    assert {"_TRIANGULAR_MIN_N", "_SYMMETRIC_MIN_N",
            "_GEMM_MIN_N", "_FLUSH_MIN_N"} <= set(found)
    assert stale == []


def _library_definitions(trees, public):
    """(called name, module, qualified name, arguments, positional offset)
    for each function, method and constructor not in public: a class is
    called by its own name for its __init__, a method past its self."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in public:
                yield node.name, module, node.name, node.args, 0
            if isinstance(node, ast.ClassDef) and node.name not in public:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(ast.unparse(d) == "staticmethod"
                                     for d in item.decorator_list)
                        called = (node.name if item.name == "__init__"
                                  else item.name)
                        yield (called, module, f"{node.name}.{item.name}",
                               item.args, 0 if static else 1)


def _overrides(call, index, name):
    # by position, by keyword, or through a * or ** argument
    return ((index is not None and index < len(call.args))
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(keyword.arg in (name, None) for keyword in call.keywords))


def test_no_library_default_that_every_library_call_overrides():
    # such a default serves only the tests; the public API (and cli.main)
    # may keep defaults for its callers
    public = set(cossinm.__all__) | {"main"}
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "cossinm").glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", 0))
                calls.setdefault(name, []).append(node)
    unused = []
    for called, module, qualname, args, offset in _library_definitions(
            trees, public):
        positional = (args.posonlyargs + args.args)[offset:]
        defaults = [(i, arg.arg) for i, arg in enumerate(positional)][
            len(positional) - len(args.defaults):]
        defaults += [(None, arg.arg) for arg, default
                     in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None]
        sites = calls.get(called, [])
        unused += [(module, qualname, name) for index, name in defaults
                   if sites and all(_overrides(call, index, name)
                                    for call in sites)]
    assert unused == []


def _methods(tree, cls):
    """The names of the methods class cls of a module defines."""
    (node,) = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == cls]
    return {item.name for item in node.body
            if isinstance(item, ast.FunctionDef)}


def test_every_algebra_operation_is_implemented_and_called():
    # an OperandAlgebra method that either algebra lacks, or that no
    # chain, pair or driver step calls, is a dead part of the protocol
    trees = {stem: ast.parse((ROOT / "src" / "cossinm" / f"{stem}.py")
                             .read_text())
             for stem in ("schemes", "driver", "verify")}
    declared = _methods(trees["schemes"], "OperandAlgebra")
    called = {node.func.attr for stem in ("schemes", "driver")
              for node in ast.walk(trees[stem])
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    assert declared
    assert declared - _methods(trees["schemes"], "MatrixAlgebra") == set()
    assert declared - _methods(trees["verify"], "PolyAlgebra") == set()
    assert declared - called == set()


def test_only_the_algebra_is_handed_the_structure_flag():
    # a call's one MatrixAlgebra holds its input's structure, so no other
    # function, method or lambda of the driver or the schemes takes
    # structure
    takers = []
    for stem in ("driver", "schemes"):
        tree = ast.parse((ROOT / "src" / "cossinm" / f"{stem}.py").read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owner.update((item, node.name) for item in node.body)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            qualname = f"{owner[node]}.{name}" if node in owner else name
            args = node.args
            if qualname != "MatrixAlgebra.__init__" and any(
                    arg.arg == "structure" for arg in (
                        *args.posonlyargs, *args.args, *args.kwonlyargs)):
                takers.append((stem, qualname))
    assert takers == []


def _calls_by_scope(tree):
    """(qualified name of the enclosing function or class, "" at module
    level, called name) for every call in a module."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                yield scope, getattr(func, "id", getattr(func, "attr", None))
            yield from visit(child, scope)

    return visit(tree, "")


def test_only_the_driver_dispatch_calls_the_pair_functions():
    # driver._pair is the one dispatch from a scheme's family to its pair;
    # the drivers, the oracle's replay and the tests all reach the pairs
    # through it, so the dispatch is not written twice
    pairs = {"taylor_cos_sin", "wave_kernels", "pade8_cos_sin"}
    paths = [*sorted((ROOT / "src" / "cossinm").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    callers = [(path.name, scope) for path in paths
               for scope, name in _calls_by_scope(ast.parse(path.read_text()))
               if name in pairs]
    assert callers == [("driver.py", "_pair")] * len(pairs)


# Chain stages, each one linear_combination call; the Pade pair has one.
STAGES = {chain_deg2: 1, chain_deg4: 2, chain_deg8: 3, chain_deg12: 2}


def _stages(scheme):
    if scheme.family is SchemeFamily.PADE8:
        return 1
    chain = schemes.SCHEMES[scheme.family, scheme.k_products].chain
    return STAGES[getattr(chain, "func", chain)]


def test_tracer_sees_linear_combination_terms(monkeypatch):
    tracing = _load_perfbench("tracing")
    seen, slabs = [], []
    original = schemes.linear_combination
    original_matmul = schemes.matmul

    def recording(basis, block):
        seen.append((basis, block))
        return original(basis, block)

    def counting(a, b, *args, **kwargs):
        # a stacked operand's products are charged one per slab
        slabs.append(b.shape[0] if b.ndim == 3 else 1)
        return original_matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(schemes, "linear_combination", recording)
    monkeypatch.setattr(schemes, "matmul", counting)
    a = INPUTS["random"] * 40.0
    tracer = tracing.Tracer()
    with tracer.installed():
        reports = [cossinm.cos_sin(a), cossinm.wave_cos_sin(a, 3.0),
                   cossinm.pade_cos_sin(a)]
    # one call per chain stage: every combination of the stage, one block
    # row each, over one basis stack with the identity first
    assert len(seen) == sum(_stages(r.scheme_used) for r in reports)
    for basis, block in seen:
        assert isinstance(basis, np.ndarray) and basis.ndim == 3
        assert basis.shape[1:] == a.shape
        assert np.array_equal(basis[0], np.eye(a.shape[0]))
        assert block.dtype == np.float64 and block.ndim == 2
        assert block.shape[1] == basis.shape[0]
    spans = tracer.arrays()
    names = np.array(tracing.NAMES)[spans["name"]]
    combos = names == "matcore.linear_combination"
    assert combos.sum() == len(seen)
    # every product is inside a matcore.matmul span, a stacked doubling
    # step's two in one span counted once per slab; the Pade LU is one
    # factorization (1/3) and two solves (2)
    assert (names == "matcore.matmul").sum() == len(slabs)
    assert any(count == 2 for count in slabs)
    charged = (sum(slabs)
               + Fraction(7, 3) * (names == "matcore.lu_solve_pair").sum())
    assert charged == sum(r.total_products for r in reports)
    # every input is above every floor, so each entry call selects once and
    # evaluates once, through the names the tracer rebinds
    entries = (names == tracing.ENTRY).sum()
    assert entries == len(reports)
    assert (names == "schemes.evaluate").sum() == entries
    assert (names == "driver.select_scheme").sum() == entries


def _exact_rule(norm, table):
    """Selection on the norm alone as specified: Fraction costs, theta_eff
    read per entry, and steps in log4 for the wave pair, whose operand
    quarters per step."""
    for entry in table.entries:
        if norm <= entry.theta_eff:
            return entry.scheme, 0
    wave = table.entries[0].scheme.family is SchemeFamily.WAVE_KERNEL
    best = None
    for entry in table.entries:
        bits = math.log2(norm / entry.theta_eff)
        s = max(0, math.ceil(bits / 2 if wave else bits))
        total = entry.cost + 2 * s
        if best is None or (total, s) < (best[0], best[1]):
            best = (total, s, entry.scheme)
    return best[2], best[1]


def _entry(k, theta, cost):
    return ThetaEntry(SchemeId(SchemeFamily.COS_SIN_TAYLOR, k), theta, theta,
                      cost)


# Thirds in the costs, and cost ties between entries one squaring apart.
TIED_THIRDS = ThetaTable(Precision.DOUBLE, (
    _entry(3, 1.0, Fraction(10, 3)),
    _entry(4, 2.0, Fraction(16, 3)),
    _entry(6, 3.0, Fraction(22, 3)),
))


@pytest.mark.parametrize("table", [
    *(TAYLOR_TABLE[p] for p in Precision),
    *(WAVE_TABLE[p] for p in Precision),
    *(PADE_TABLE[p] for p in Precision),
    TIED_THIRDS,
], ids=["taylor-double", "taylor-single", "wave-double", "wave-single",
        "pade-double", "pade-single", "tied-thirds"])
def test_precomputed_selection_matches_exact_rule(table):
    grid = np.logspace(-8, 8, 1601).tolist()
    grid += [e.theta_eff for e in table.entries]
    grid += [math.nextafter(e.theta_eff, math.inf) for e in table.entries]
    for norm in grid:
        assert driver.select_scheme(norm, table) == _exact_rule(norm, table)


def test_import_does_not_load_scipy_linalg():
    # nor mpmath: it serves cossinm.verify's coefficient extraction and
    # thresholds only, not its reference evaluator, which the benchmark's
    # set-up loads
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cossinm.__file__).resolve().parents[1])
    for module, call in (
            ("cossinm", ""), ("cossinm.cli", ""),
            ("cossinm.verify",
             "; cossinm.verify.reference_cos_sin([[0.5, 1.0], [0.0, 2.0]])")):
        code = (f"import sys, {module}{call}; print('scipy.linalg' in"
                " sys.modules, 'mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "False False", module


def test_dense_call_does_not_load_the_triangular_kernels():
    # scipy.linalg comes in on the first upper-triangular Pade call only,
    # whose solves end in dtrsm; the triangular products are numpy GEMMs,
    # and a dense call past the symmetric crossover, whose first row equals
    # its first column, has its structure tested in panels and stays dense
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cossinm.__file__).resolve().parents[1])
    n = matcore._SYMMETRIC_MIN_N
    code = (
        "import sys\nimport numpy as np\nimport cossinm\n"
        "rng = np.random.default_rng(0)\n"
        "a = rng.standard_normal((256, 256)) / 256\n"
        "cossinm.cos_sin(a)\n"
        f"b = rng.standard_normal(({n}, {n})) / {n}\n"
        "b[0] = b[:, 0]\n"
        "assert cossinm.cos_sin(b).structure == 'dense'\n"
        "print('scipy.linalg' in sys.modules)\n"
        "assert cossinm.cos_sin(np.triu(a)).structure == 'upper'\n"
        "print('scipy.linalg' in sys.modules)\n"
        "cossinm.pade_cos_sin(np.triu(a))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["False", "False", "True"]
