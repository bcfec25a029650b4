"""Seeded workload inputs, their reference values, and the per-call check.

Each workload is a list of cases, one per (input, method) call, built from
the seed alone.  References are computed here, outside the timed loop:

* cos/sin on small-mixed and oracle-check: ``verify.reference_cos_sin``;
* cos/sin on large-dense: expm(iA) = cos(A) + i sin(A);
* the wave pair everywhere: expm(t [[0, I], [-A, 0]]), whose top row is
  [c(t^2 A), s(t, A)].

A call fails when its ledger total breaks the cost law (pair cost + 2s),
or when its reference is finite and an output is non-finite or off by more
than ``SCALING_FACTOR * n * 4**s * u + SPREAD_FACTOR * d`` in relative
1-norm.  The first term is the rounding that scaling by 2^-s and s doubling
steps can amplify; d is how far the two independent references for cos/sin
(the double-double oracle and expm(iA)) differ, which is large where the
input is ill-conditioned (d = 0 where there is one reference).  A reference
that overflows float64 makes no failure; a non-finite output is counted.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from cossinm import gallery, verify
from calls import ORACLE_METHOD, pair

UNIT_ROUNDOFF = 2.0 ** -53
# On twelve seeds of both corpora the library, as it stood when this
# benchmark was written, used at most 1/24 of the tolerance they give.
SCALING_FACTOR = 1e3
SPREAD_FACTOR = 1e4
PADE_PAIR_COST = Fraction(22, 3)

SMALL_COUNT = 200       # matrices in the small-mixed corpus
ORACLE_COUNT = 80       # matrices in the oracle-check corpus
DIMENSION_CAP = 16
OVERDRAW = 8            # gallery matrices drawn per corpus matrix kept,
MIN_DRAW = 1000         # and at least this many per class
FIXED_ORDER = 20260     # seeds the one order that pairs sizes with norms
# The gallery cycles, in stream order, through its 21 special constructions
# and its 3 entry distributions; the nilpotent class has one kind.
_CLASS_KINDS = ((gallery.CLASS_STRUCTURED, 21), (gallery.CLASS_RANDOM, 3),
                (gallery.CLASS_NILPOTENT, 1))

# large-dense inputs: (n, kind, 1-norm, t).  The norms are fixed so that
# every seed has the same scaling exponents (cos_sin s = 0..6); the seed
# draws the entries.
LARGE_POOL = (
    (256, "dense", 0.05, 1.0),
    (256, "jordan", 4.0, 0.5),
    (256, "triu", 24.0, 1.0),
    (256, "negdef", 60.0, 1.5),
    (512, "dense", 1.5, 1.0),
    (512, "jordan", 12.0, 0.5),
    (512, "triu", 3.0, 1.0),
    (512, "negdef", 30.0, 1.5),
)


@dataclass
class Case:
    key: int                                  # input index in the workload
    method: str
    a: np.ndarray
    t: float
    reference: tuple[np.ndarray, np.ndarray]  # (cos, sin) or (c, s)
    spread: float = 0.0     # difference between two independent references


@dataclass
class Workload:
    cases: list[Case]
    generate_s: float       # time inside gallery.generate_corpus
    reference_s: float      # time computing references


def norm1(m: np.ndarray) -> float:
    return float(np.abs(m).sum(axis=0).max()) if m.size else 0.0


def relative_error(x: np.ndarray, ref: np.ndarray) -> float:
    num = norm1(x - ref)
    den = norm1(ref)
    return num / den if den > 0.0 else num


def _finite(m: np.ndarray) -> bool:
    return bool(np.isfinite(m).all())


def _bench_counts(total: int) -> tuple[int, int, int, int]:
    """The class split of `cossinm bench`: 33 %, 45 %, the rest, nine 2x2s."""
    rest = total - 9
    structured = rest * 33 // 100
    random = rest * 45 // 100
    return structured, random, rest - structured - random, 9


def _stratified(lo: float, hi: float, count: int, log: bool) -> np.ndarray:
    """The midpoints of `count` equal strata of [lo, hi], in a fixed shuffle.

    With `log` the strata are equal in log scale.
    """
    centres = (np.arange(count) + 0.5) / count
    if log:
        values = 10.0 ** (np.log10(lo) + centres * np.log10(hi / lo))
    else:
        values = lo + centres * (hi - lo)
    return np.random.default_rng(FIXED_ORDER).permutation(values)


def _corpus(seed: int, total: int) -> tuple[list[np.ndarray], float]:
    """A gallery corpus for `seed` with one design of kinds, sizes and norms.

    The gallery draws each size and target norm at random.  Drawn afresh
    per seed, the mix of kinds, sizes and scaling exponents, and with it the
    cost and error percentiles, moves by up to a third between seeds.  So
    the gallery emits more matrices than needed, and slot j of a class
    takes, in stream order, a matrix of kind j mod (the class's kinds) and
    size 2 + j mod (cap - 1), or the closest size left of that kind.  Each is
    rescaled to one of a fixed set of norms spread evenly in log scale over
    the gallery's range, paired with the slots in one fixed order.  The seed
    still draws every matrix.  The nine involutory 2x2 matrices are kept
    verbatim, as the gallery emits them.
    """
    counts = _bench_counts(total)
    spec = gallery.CorpusSpec(
        dimension_cap=DIMENSION_CAP, seed=seed,
        count_per_class=tuple(max(c * OVERDRAW, MIN_DRAW) for c in counts[:3])
        + counts[3:])
    start = time.perf_counter()
    corpus = gallery.generate_corpus(spec)
    generate_s = time.perf_counter() - start
    sizes = range(2, DIMENSION_CAP + 1)
    chosen = []
    for (tag, kinds), count in zip(_CLASS_KINDS, counts):
        left: dict[tuple[int, int], list[np.ndarray]] = {}
        stream = (a for a, t in corpus if t == tag)
        for position, a in enumerate(stream):
            left.setdefault((position % kinds, a.shape[0]), []).append(a)
        for j in range(count):
            kind, n = j % kinds, sizes[j % len(sizes)]
            size = min((m for m in sizes if left.get((kind, m))),
                       key=lambda m: abs(m - n))
            chosen.append(left[(kind, size)].pop(0))
    targets = _stratified(*spec.norm_range, len(chosen), log=True)
    matrices = [a * (target / norm1(a)) for a, target in zip(chosen, targets)]
    matrices += [a for a, t in corpus if t == gallery.CLASS_OVERSCALING]
    return matrices, generate_s


def _dd_reference(a: np.ndarray):
    """The oracle's (cos, sin), and how far expm(iA) is from it."""
    ref = verify.reference_cos_sin(a)
    oracle = ref.cos_part, ref.sin_part
    other = _expm_reference(a)
    if not all(_finite(m) for m in oracle + other):
        return oracle, math.inf
    return oracle, max(relative_error(x, r) for x, r in zip(other, oracle))


def _expm_reference(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    e = scipy.linalg.expm(1j * a)
    return e.real.copy(), e.imag.copy()


def _wave_reference(a: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, n:] = np.eye(n)
    block[n:, :n] = -a
    e = scipy.linalg.expm(t * block)
    return e[:n, :n].copy(), e[:n, n:].copy()


def _large_input(rng: np.random.Generator, n: int, kind: str,
                 norm: float) -> np.ndarray:
    if kind == "dense":
        a = rng.standard_normal((n, n))
    elif kind == "jordan":
        a = np.diag(rng.uniform(-1.0, 1.0, n)) + np.eye(n, k=1)
    elif kind == "triu":
        a = np.triu(rng.standard_normal((n, n)))
    elif kind == "negdef":
        b = rng.standard_normal((n, n))
        a = -(b @ b.T) / n
    else:
        raise ValueError(kind)
    return a * (norm / norm1(a))


def build_small_mixed(seed: int) -> Workload:
    matrices, generate_s = _corpus(seed, SMALL_COUNT)
    times = _stratified(0.5, 2.0, len(matrices), log=False)
    cases = []
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for key, (a, t) in enumerate(zip(matrices, times.tolist())):
            trig, spread = _dd_reference(a)
            cases.append(Case(key, "cos_sin", a, t, trig, spread))
            cases.append(Case(key, "wave_cos_sin", a, t,
                              _wave_reference(a, t)))
            cases.append(Case(key, "pade_cos_sin", a, t, trig, spread))
    return Workload(cases, generate_s,
                    time.perf_counter() - start)


def build_large_dense(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    cases = []
    start = time.perf_counter()
    for key, (n, kind, norm, t) in enumerate(LARGE_POOL):
        a = _large_input(rng, n, kind, norm)
        trig = _expm_reference(a)
        cases.append(Case(key, "cos_sin", a, t, trig))
        cases.append(Case(key, "wave_cos_sin", a, t, _wave_reference(a, t)))
        cases.append(Case(key, "pade_cos_sin", a, t, trig))
    return Workload(cases, 0.0, time.perf_counter() - start)


def build_oracle_check(seed: int) -> Workload:
    matrices, generate_s = _corpus(seed, ORACLE_COUNT)
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        cases = [Case(key, ORACLE_METHOD, a, 0.0, *_dd_reference(a))
                 for key, a in enumerate(matrices)]
    return Workload(cases, generate_s,
                    time.perf_counter() - start)


BUILDERS = {
    "small-mixed": build_small_mixed,
    "large-dense": build_large_dense,
    "oracle-check": build_oracle_check,
}


def pair_cost(scheme) -> Fraction:
    """Ledger cost of one scheme evaluation, before doubling."""
    if scheme.family.value == "pade8":
        return PADE_PAIR_COST
    return Fraction(scheme.k_products)


@dataclass
class Tally:
    """Everything the checks and metrics need from a run's calls."""

    bare_matmul_s: dict[int, float]     # one bare a @ b, per n
    call_s: array = field(default_factory=lambda: array("d"))
    # sums over product-path calls; ideal_s is products x bare matmul time
    product_calls: int = 0
    products: Fraction = Fraction(0)
    doubling_steps: int = 0
    product_wall_s: float = 0.0
    ideal_s: float = 0.0
    errors: dict[tuple[int, str], float] = field(default_factory=dict)
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    nonfinite_calls: int = 0
    worst_tolerance_use: float = 0.0
    _call_failed: bool = False

    def _fail(self, case: Case, why: str) -> None:
        self._call_failed = True
        if len(self.failures) < 10:
            self.failures.append(f"input {case.key} {case.method}: {why}")

    def _compare(self, case: Case, method: str, outputs, s: int,
                 reported=None) -> bool:
        ref_cos, ref_sin = case.reference
        if not (_finite(ref_cos) and _finite(ref_sin)):
            return True
        x_cos, x_sin = outputs
        if not (_finite(x_cos) and _finite(x_sin)):
            return False
        n = case.a.shape[0]
        tol = (SCALING_FACTOR * n * 4.0 ** s * UNIT_ROUNDOFF
               + SPREAD_FACTOR * case.spread)
        err = max(relative_error(x_cos, ref_cos),
                  relative_error(x_sin, ref_sin))
        self.worst_tolerance_use = max(self.worst_tolerance_use, err / tol)
        if method != "reference":
            self.errors.setdefault((case.key, method), err)
        if reported is not None:
            # relative_error_2 is a 2-norm error: within n times the 1-norm one
            if not all(0.0 <= e <= n * tol for e in reported):
                return False
        return err <= tol

    def add(self, case: Case, value, call_s: float) -> None:
        """Check one call's outputs and record its figures."""
        self.call_s.append(call_s)
        self._call_failed = False
        if case.method == ORACLE_METHOD:
            reference, runs = value
            if not self._compare(case, "reference", pair(reference), 0):
                self._fail(case, "oracle differs from its precomputed value")
            calls = [(name, report, wall, (e_cos, e_sin))
                     for name, report, wall, e_cos, e_sin in runs]
        else:
            calls = [(case.method, value, call_s, None)]
        for method, report, wall, reported in calls:
            s = report.scaling_exponent
            total = report.total_products
            self.product_calls += 1
            self.products += total
            self.doubling_steps += s
            self.product_wall_s += wall
            self.ideal_s += float(total) * self.bare_matmul_s[case.a.shape[0]]
            expected = pair_cost(report.scheme_used) + 2 * s
            if total != expected:
                self._fail(case, f"{method} ledger {total} != cost law"
                                 f" {expected}")
            outputs = pair(report.result)
            if not all(_finite(m) for m in outputs):
                self.nonfinite_calls += 1
            if not self._compare(case, method, outputs, s, reported):
                self._fail(case, f"{method} output out of tolerance (s={s})")
        self.failed += self._call_failed
