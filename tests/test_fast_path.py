"""The dense fast path against plain arithmetic, and what tracers rely on.

The product path converts scheme constants to float64 once at import,
puts identity terms on the diagonal, accumulates combinations into one
buffer, doubles in place and calls LAPACK directly.  None of that may
change a product, a ledger total or an output bit: the chains are replayed
here through a naive algebra (explicit identity, float(c) per term, sums
started from zeros, scipy's LU wrappers) and compared bit for bit.
"""

import importlib.util
import math
import os
import subprocess
import sys
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import cossinm
from cossinm import driver, schemes
from cossinm.matcore import CostLedger, matmul
from cossinm.schemes import (
    PADE8_CONSTANTS,
    SchemeFamily,
    SchemeId,
    SqrtCoeff,
    chain_deg2,
    chain_deg4,
    chain_deg8,
    chain_deg12,
    pade8_cos_sin,
    taylor_cos_sin,
    wave_kernels,
)
from cossinm.theta_tables import (
    PADE_TABLE,
    TAYLOR_TABLE,
    WAVE_TABLE,
    Precision,
    ThetaEntry,
    ThetaTable,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class NaiveAlgebra:
    """The plain dense algebra: exact constants converted per term."""

    def __init__(self, n, ledger):
        self.one = np.eye(n)
        self.ledger = ledger

    def constants(self, table):
        return table.exact

    def mul(self, p, q):
        return matmul(p, q, self.ledger)

    def lin(self, terms):
        out = np.zeros(terms[0][1].shape)
        for c, m in terms:
            out += float(c) * m
        return out


def _naive_double_angle(cos, sin, steps, ledger, wave):
    # both products read the old pair: C <- I - 2 S^2 for the trigonometric
    # pairs, C <- 2 C^2 - I for the wave pair, and S <- 2 S C
    eye = np.eye(cos.shape[0])
    for _ in range(steps):
        if wave:
            new_cos = np.zeros(cos.shape) + 2.0 * matmul(cos, cos, ledger) \
                + (-1.0) * eye
        else:
            new_cos = np.zeros(cos.shape) + (-2.0) * matmul(sin, sin, ledger) \
                + 1.0 * eye
        sin = np.zeros(sin.shape) + 2.0 * matmul(sin, cos, ledger)
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
    }


INPUTS = _inputs()
TAYLOR_CHAINS = {3: chain_deg2, 4: chain_deg4, 6: chain_deg8, 7: chain_deg12}
WAVE_CHAINS = {3: chain_deg4, 4: chain_deg8, 5: chain_deg12}


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("k", sorted(TAYLOR_CHAINS))
def test_taylor_chain_matches_naive_arithmetic(name, k):
    a = INPUTS[name]
    fast_ledger, naive_ledger = CostLedger(), CostLedger()
    fast = taylor_cos_sin(a, SchemeId(SchemeFamily.COS_SIN_TAYLOR, k),
                          fast_ledger)
    alg = NaiveAlgebra(a.shape[0], naive_ledger)
    y = alg.mul(a, a)
    chain = TAYLOR_CHAINS[k]
    if chain is chain_deg4:
        cos, core = chain(alg, y, exact_sine=False)
    else:
        cos, core = chain(alg, y)
    sin = alg.mul(a, core)
    assert _same_bits(fast.cos_part, cos)
    assert _same_bits(fast.sin_part, sin)
    assert fast_ledger.total_cost == naive_ledger.total_cost == k


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("k", sorted(WAVE_CHAINS))
def test_wave_chain_matches_naive_arithmetic(name, k):
    a, t = INPUTS[name], 1.3
    fast_ledger, naive_ledger = CostLedger(), CostLedger()
    fast = wave_kernels(a, t, SchemeId(SchemeFamily.WAVE_KERNEL, k),
                        fast_ledger)
    alg = NaiveAlgebra(a.shape[0], naive_ledger)
    y = t * t * a
    chain = WAVE_CHAINS[k]
    if chain is chain_deg4:
        c, core = chain(alg, y, exact_sine=True)
    else:
        c, core = chain(alg, y)
    assert _same_bits(fast.cos_part, c)
    assert _same_bits(fast.sin_part, t * core)
    assert fast_ledger.total_cost == naive_ledger.total_cost == k


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_pade_pair_matches_naive_arithmetic(name):
    a = INPUTS[name]
    fast_ledger, naive_ledger = CostLedger(), CostLedger()
    fast = pade8_cos_sin(a, fast_ledger)
    alg = NaiveAlgebra(a.shape[0], naive_ledger)
    k = alg.constants(PADE8_CONSTANTS)
    y = alg.mul(a, a)
    y2 = alg.mul(y, y)
    y3 = alg.mul(y, y2)
    y4 = alg.mul(y, y3)
    powers = [alg.one, y, y2, y3, y4]
    den = alg.lin(list(zip(k.den, powers)))
    num_cos = alg.lin(list(zip(k.num_cos, powers)))
    num_sin = alg.mul(a, alg.lin(list(zip(k.num_sin, powers))))
    factors = lu_factor(den, check_finite=False)
    assert _same_bits(fast.cos_part,
                      lu_solve(factors, num_cos, check_finite=False))
    assert _same_bits(fast.sin_part,
                      lu_solve(factors, num_sin, check_finite=False))
    naive_ledger.charge_lu(solves=2)
    assert fast_ledger.total_cost == naive_ledger.total_cost
    assert fast_ledger.total_cost == Fraction(22, 3)


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("s", [0, 3])
def test_handed_in_powers_match_the_chains_own(name, s):
    """Powers formed once and scaled by 2^-s per factor of A give the bits
    the chain forms at A 2^-s itself, with their products not charged."""
    a = INPUTS[name]
    y = matmul(a, a, CostLedger())
    y2 = matmul(y, y, CostLedger())
    powers = (np.ldexp(y, -2 * s), np.ldexp(y2, -4 * s))
    scaled = a * 2.0 ** -s
    for k in sorted(TAYLOR_CHAINS):
        scheme = SchemeId(SchemeFamily.COS_SIN_TAYLOR, k)
        own_ledger, handed_ledger = CostLedger(), CostLedger()
        own = taylor_cos_sin(scaled, scheme, own_ledger)
        handed = taylor_cos_sin(scaled, scheme, handed_ledger, powers=powers)
        assert _same_bits(handed.cos_part, own.cos_part)
        assert _same_bits(handed.sin_part, own.sin_part)
        assert handed_ledger.products == own_ledger.products - 2 == k - 2
        only_y = taylor_cos_sin(scaled, scheme, CostLedger(),
                                powers=(powers[0], None))
        assert _same_bits(only_y.sin_part, own.sin_part)
    own_ledger, handed_ledger = CostLedger(), CostLedger()
    own = pade8_cos_sin(scaled, own_ledger)
    handed = pade8_cos_sin(scaled, handed_ledger, powers=powers)
    assert _same_bits(handed.cos_part, own.cos_part)
    assert _same_bits(handed.sin_part, own.sin_part)
    assert handed_ledger.products == own_ledger.products - 2
    t = 1.3
    b = t * t * a
    b2 = matmul(b, b, CostLedger())
    wave_powers = (np.ldexp(b, -2 * s), np.ldexp(b2, -4 * s))
    for k in sorted(WAVE_CHAINS):
        scheme = SchemeId(SchemeFamily.WAVE_KERNEL, k)
        own_ledger, handed_ledger = CostLedger(), CostLedger()
        own = wave_kernels(a, t / 2.0 ** s, scheme, own_ledger)
        handed = wave_kernels(a, t / 2.0 ** s, scheme, handed_ledger,
                              powers=wave_powers)
        assert _same_bits(handed.cos_part, own.cos_part)
        assert _same_bits(handed.sin_part, own.sin_part)
        assert handed_ledger.products == own_ledger.products - 1 == k - 1


def _scheme_pair(a, wave):
    if wave:
        part = wave_kernels(a, 1.3, SchemeId(SchemeFamily.WAVE_KERNEL, 4),
                            CostLedger())
    else:
        part = taylor_cos_sin(a, SchemeId(SchemeFamily.COS_SIN_TAYLOR, 6),
                              CostLedger())
    return part.cos_part, part.sin_part


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("steps", [0, 1, 4])
def test_in_place_doubling_matches_naive_arithmetic(name, steps):
    for wave in (False, True):
        cos0, sin0 = _scheme_pair(INPUTS[name], wave)
        kept_cos, kept_sin = cos0.copy(), sin0.copy()
        fast_ledger, naive_ledger = CostLedger(), CostLedger()
        cos, sin = driver._double_angle(cos0, sin0, steps, fast_ledger,
                                        wave=wave)
        want_cos, want_sin = _naive_double_angle(kept_cos, kept_sin, steps,
                                                 naive_ledger, wave)
        assert np.array_equal(cos, want_cos)
        assert np.array_equal(sin, want_sin)
        assert fast_ledger.total_cost == naive_ledger.total_cost == 2 * steps
        # the scheme's own outputs are read, never overwritten
        assert _same_bits(cos0, kept_cos)
        assert _same_bits(sin0, kept_sin)


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


def test_tracer_sees_linear_combination_terms(monkeypatch):
    tracing = _load_perfbench("tracing")
    seen = []
    original = schemes.linear_combination

    def recording(terms, *args, **kwargs):
        seen.append(terms)
        return original(terms, *args, **kwargs)

    monkeypatch.setattr(schemes, "linear_combination", recording)
    a = INPUTS["random"] * 40.0
    tracer = tracing.Tracer()
    with tracer.installed():
        reports = [cossinm.cos_sin(a), cossinm.wave_cos_sin(a, 3.0),
                   cossinm.pade_cos_sin(a)]
    assert seen
    for terms in seen:
        assert isinstance(terms, Sequence) and terms
        coefficient, matrix = terms[0]
        assert isinstance(coefficient, float)
        assert isinstance(matrix, np.ndarray)
        assert matrix.shape == a.shape
    spans = tracer.arrays()
    names = np.array(tracing.NAMES)[spans["name"]]
    combos = names == "matcore.linear_combination"
    assert combos.sum() == len(seen)
    assert (spans["n"][combos] == a.shape[0]).all()
    assert (spans["terms"][combos] >= 1).all()
    # the Pade LU is one factorization (1/3) and two solves (2)
    charged = ((names == "matcore.matmul").sum()
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
    # nor mpmath: it serves cossinm.verify only, imported on its own
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cossinm.__file__).resolve().parents[1])
    for module in ("cossinm", "cossinm.cli"):
        code = (f"import sys, {module}; print('scipy.linalg' in sys.modules,"
                " 'mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "False False", module


def test_dense_call_does_not_load_the_triangular_kernels():
    # scipy.linalg comes in on the first upper-triangular call only
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cossinm.__file__).resolve().parents[1])
    code = (
        "import sys\nimport numpy as np\nimport cossinm\n"
        "a = np.random.default_rng(0).standard_normal((256, 256)) / 256\n"
        "cossinm.cos_sin(a)\n"
        "print('scipy.linalg' in sys.modules)\n"
        "cossinm.cos_sin(np.triu(a))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["False", "True"]
