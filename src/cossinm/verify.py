"""Independent oracles for the scheme library.

Three jobs live here, all deliberately outside the product path:

* coefficient extraction: replay any scheme's pair, through the driver's
  own dispatch and so on the code the product path runs, with
  extended-precision scalar polynomials instead of matrices, exposing the
  polynomial it computes so order conditions can be checked term by term;
* threshold computation: locate, by bisection on an absolute-error tail
  bound, the largest operand norm at which a scheme stays below a target
  unit roundoff (the source of the shipped threshold tables);
* a heavy-scaling reference evaluator used as the accuracy yardstick in
  tests and benchmarks.

The first two run in mpmath, which each function imports where it uses
it, so the reference evaluator and relative_error_2 load without it.

Threshold convention.  The tail bound at norm theta sums per-degree
absolute differences between a scheme's coefficients and the true series,
|c_deg - t_deg| * theta^deg, with the true series extended 150 terms past
the scheme's degree.  The decimal coefficient sets, stored to 45
significant digits, leave relative residuals near 1e-44 at degrees the
scheme matches; a relative gate of 1e-6 zeroes those, which is safe
because the smallest structural defect in any scheme here is about 1.8
relative.  Sine bounds
carry the leading odd power (theta^(2k+1)); wave bounds are in the even
variable directly, with the scalar t factor of the s kernel outside.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .driver import _basis, _pair
from .matcore import DenseMatrix, as_matrix, identity, norm1
from .schemes import (
    Constants,
    CosSinResult,
    ExactScalar,
    SchemeFamily,
    SchemeId,
    SqrtCoeff,
    chain_deg4,
)
from .theta_tables import UNIT_ROUNDOFF, Precision, ThetaTable, family_table

if TYPE_CHECKING:
    import mpmath

F = Fraction

# Decimal digits of every extended-precision coefficient and sum.
WORKING_DIGITS = 60

# True-series terms past a scheme's degree that a defect series covers.
TAIL_TERMS = 150

# Relative mismatch below which a scheme coefficient counts as matching the
# true series (printing noise), not as a structural defect.  See module
# docstring for the margin on either side.
NOISE_GATE = 1e-6


class Which(enum.Enum):
    COS = "cos"
    SIN = "sin"
    WAVE_C = "wave_c"
    WAVE_S = "wave_s"


def _mpf(value: ExactScalar | int | float) -> mpmath.mpf:
    import mpmath

    if isinstance(value, SqrtCoeff):
        return _mpf(value.rational) + _mpf(value.surd) * mpmath.sqrt(
            mpmath.mpf(36681)
        )
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
    return mpmath.mpf(value)


class ScalarPoly:
    """Dense polynomial with WORKING_DIGITS-digit coefficients, degree 0 up."""

    def __init__(self, coefficients: Sequence) -> None:
        import mpmath

        with mpmath.workdps(WORKING_DIGITS):
            coeffs = [_mpf(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = coeffs

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, deg: int) -> mpmath.mpf:
        if 0 <= deg < len(self.coefficients):
            return self.coefficients[deg]
        import mpmath

        return mpmath.mpf(0)

    def __add__(self, other: "ScalarPoly") -> "ScalarPoly":
        import mpmath

        with mpmath.workdps(WORKING_DIGITS):
            out = [
                self.coefficient(d) + other.coefficient(d)
                for d in range(max(len(self.coefficients),
                                   len(other.coefficients)))
            ]
        return ScalarPoly(out)

    def __mul__(self, other: "ScalarPoly") -> "ScalarPoly":
        if not self.coefficients or not other.coefficients:
            return ScalarPoly([])
        import mpmath

        with mpmath.workdps(WORKING_DIGITS):
            out = [mpmath.mpf(0)] * (
                len(self.coefficients) + len(other.coefficients) - 1
            )
            for i, a in enumerate(self.coefficients):
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return ScalarPoly(out)

    def scale(self, factor: ExactScalar | int | float) -> "ScalarPoly":
        import mpmath

        with mpmath.workdps(WORKING_DIGITS):
            f = _mpf(factor)
            out = [f * c for c in self.coefficients]
        return ScalarPoly(out)

    __rmul__ = scale


# Degree through which PolyAlgebra.solve divides: 160 even-variable terms,
# far past any that matters at an admissible norm.
_SOLVE_DEGREE = 319


class PolyAlgebra:
    """Operand algebra over ScalarPoly: replays pairs to expose coefficients.

    A basis is a list of polynomials, its unfilled slabs zero polynomials
    that out= overwrites in place; lin sums each row's exact coefficients
    term by term.  solve divides power series through degree _SOLVE_DEGREE.
    A replayed pair returns the polynomials it computed, as a matrix pair
    does; what a returned matrix may share (no stack but its partner's
    (2, n, n) buffer) is the driver's rule alone, and no polynomial here
    shares anything.
    """

    def constants(self, table: Constants) -> SimpleNamespace:
        return table.exact

    def basis(self, depth: int, *operands: ScalarPoly) -> list[ScalarPoly]:
        slabs = [ScalarPoly([1]), *operands]
        return slabs + [ScalarPoly([]) for _ in range(depth - len(slabs))]

    @staticmethod
    def _into(value: ScalarPoly, out: ScalarPoly | None) -> ScalarPoly:
        if out is None:
            return value
        out.coefficients = value.coefficients
        return out

    def mul(
        self, p: ScalarPoly, q: ScalarPoly, out: ScalarPoly | None = None
    ) -> ScalarPoly:
        return self._into(p * q, out)

    def lin(
        self, basis: Sequence[ScalarPoly], block: Sequence[Sequence]
    ) -> list[ScalarPoly]:
        rows = []
        for row in block:
            acc = ScalarPoly([])
            for coeff, poly in zip(row, basis, strict=True):
                acc = acc + poly.scale(coeff)
            rows.append(acc)
        return rows

    def add(
        self, p: ScalarPoly, q: ScalarPoly, out: ScalarPoly | None = None
    ) -> ScalarPoly:
        return self._into(p + q, out)

    def solve(
        self, den: ScalarPoly, rhs1: ScalarPoly, rhs2: ScalarPoly
    ) -> tuple[ScalarPoly, ScalarPoly]:
        return _quotient(rhs1, den), _quotient(rhs2, den)


def _quotient(num: ScalarPoly, den: ScalarPoly) -> ScalarPoly:
    # power-series long division through _SOLVE_DEGREE; den(0) != 0
    import mpmath

    out: list[mpmath.mpf] = []
    with mpmath.workdps(WORKING_DIGITS):
        for k in range(_SOLVE_DEGREE + 1):
            acc = num.coefficient(k)
            for j in range(1, min(k, den.degree) + 1):
                acc -= den.coefficients[j] * out[k - j]
            out.append(acc / den.coefficients[0])
    return ScalarPoly(out)


def extract_scheme_poly(scheme: SchemeId, which: Which) -> ScalarPoly:
    """The scalar polynomial a scheme computes, replayed through the
    driver's own dispatch (driver._pair): each sine's leading factor and
    the rational baseline's solve (through degree _SOLVE_DEGREE) included.

    COS/SIN are in the original variable x (even/odd degrees); WAVE_C and
    WAVE_S are in the even variable itself, at t = 1.
    """
    wave = which in (Which.WAVE_C, Which.WAVE_S)
    if wave != (scheme.family is SchemeFamily.WAVE_KERNEL):
        raise ValueError(f"{which.value} does not apply to {scheme.family.value}")
    x = ScalarPoly([0, 1])
    y = x if wave else x * x
    alg = PolyAlgebra()
    pair = _pair(scheme, 1 if wave else x, alg,
                 _basis(scheme, alg, y, y * y))
    sine = which in (Which.SIN, Which.WAVE_S)
    return pair.sin_part if sine else pair.cos_part


def extract_sin9_poly() -> ScalarPoly:
    """Scalar polynomial of the exact degree-9 sine variant."""
    x = ScalarPoly([0, 1])
    y = x * x
    alg = PolyAlgebra()
    # I, y, y^2, q, q9
    _, sin_core = chain_deg4(alg, alg.basis(5, y, y * y), exact_sine=True)
    return x * sin_core


def extract_wave_s34_poly() -> ScalarPoly:
    """Even-variable polynomial of the reduced wave sine variant."""
    y = ScalarPoly([0, 1])
    alg = PolyAlgebra()
    # I, y, y^2, q
    _, sin_core = chain_deg4(alg, alg.basis(4, y, y * y), exact_sine=False)
    return sin_core


def true_coefficient(which: Which, deg: int) -> mpmath.mpf:
    """Series coefficient of the target function at one degree.

    COS/SIN: cosine and sine series in the original variable.  WAVE_C and
    WAVE_S: the even-variable series whose term k is (-1)^k/(2k)! and
    (-1)^k/(2k+1)! respectively.
    """
    import mpmath

    if which is Which.COS:
        if deg % 2:
            return mpmath.mpf(0)
        k = deg // 2
        return mpmath.mpf(-1) ** k / mpmath.factorial(deg)
    if which is Which.SIN:
        if deg % 2 == 0:
            return mpmath.mpf(0)
        k = (deg - 1) // 2
        return mpmath.mpf(-1) ** k / mpmath.factorial(deg)
    if which is Which.WAVE_C:
        return mpmath.mpf(-1) ** deg / mpmath.factorial(2 * deg)
    return mpmath.mpf(-1) ** deg / mpmath.factorial(2 * deg + 1)


def difference_series(
    poly: ScalarPoly, which: Which
) -> list[tuple[int, mpmath.mpf]]:
    """Per-degree absolute defects |scheme - true|, gated against noise.

    Covers every degree of the scheme polynomial plus TAIL_TERMS further
    true-series terms.  Degrees whose relative mismatch is below the gate
    contribute nothing.
    """
    import mpmath

    step = 1 if which in (Which.WAVE_C, Which.WAVE_S) else 2
    top = max(poly.degree, 0) + step * TAIL_TERMS
    out: list[tuple[int, mpmath.mpf]] = []
    with mpmath.workdps(WORKING_DIGITS):
        for deg in range(top + 1):
            true = true_coefficient(which, deg)
            got = poly.coefficient(deg)
            delta = abs(got - true)
            if true != 0 and delta / abs(true) < NOISE_GATE:
                continue
            if delta != 0:
                out.append((deg, delta))
    return out


def _tail_bound(
    diffs: Sequence[tuple[int, mpmath.mpf]], theta: float
) -> mpmath.mpf:
    import mpmath

    th = mpmath.mpf(theta)
    return mpmath.fsum(c * th ** d for d, c in diffs)


def compute_theta(
    scheme: SchemeId,
    which: Which,
    target_u: float,
) -> float:
    """Largest norm at which the scheme's tail bound stays within target_u.

    Located by bisection in log space to better than 1e-7 relative; the
    bound is at most target_u at the returned value and exceeds it by
    1e-6 relative further out.
    """
    import mpmath

    poly = extract_scheme_poly(scheme, which)
    with mpmath.workdps(WORKING_DIGITS):
        diffs = difference_series(poly, which)
        u = mpmath.mpf(target_u)
        lo = 1e-8
        hi = 1000.0 if which in (Which.WAVE_C, Which.WAVE_S) else 100.0
        if _tail_bound(diffs, lo) > u:
            raise RuntimeError(
                f"tail bound already exceeds target at norm {lo}"
            )
        while hi / lo > 1.0 + 1e-8:
            mid = math.sqrt(lo * hi)
            if _tail_bound(diffs, mid) <= u:
                lo = mid
            else:
                hi = mid
    return lo


def leading_degree(scheme: SchemeId, which: Which) -> int:
    """First degree at which the scheme's polynomial leaves the true series.

    From there on the tail bound has only nonnegative terms, which is what
    lets selection use norms of powers (see theta_tables).
    """
    import mpmath

    with mpmath.workdps(WORKING_DIGITS):
        return difference_series(extract_scheme_poly(scheme, which),
                                 which)[0][0]


def generate_theta_table(
    family: SchemeFamily, precision: Precision
) -> ThetaTable:
    """Recompute one shipped threshold table from scratch, through the
    builder the shipped tables use."""
    if family is SchemeFamily.WAVE_KERNEL:
        cos_side, sin_side = Which.WAVE_C, Which.WAVE_S
    else:
        cos_side, sin_side = Which.COS, Which.SIN

    def sides(scheme: SchemeId, precision: Precision) -> tuple:
        u = UNIT_ROUNDOFF[precision]
        return (compute_theta(scheme, cos_side, u),
                compute_theta(scheme, sin_side, u),
                leading_degree(scheme, cos_side),
                leading_degree(scheme, sin_side))

    return family_table(family, precision, sides)


# --------------------------------------------------------------------------
# Reference evaluator (test oracle only, never in the product path).
#
# The doubling recovery amplifies rounding error by roughly 4 per step while
# the cosine iterate is near the identity, which after the ~20 extra steps
# this oracle takes would swamp plain binary64.  The chain therefore runs in
# compensated double-double arithmetic (~32 significant digits): each value
# is an unevaluated hi + lo pair of binary64 arrays, combined with
# error-free transformations, so the oracle's own error stays near 1e-15
# across the admissible norm range.

_REF_NORM_CAP = 2.0 ** -20
_REF_COS_CORE = [F((-1) ** k, math.factorial(2 * k)) for k in range(7)]
_REF_SIN_CORE = [F((-1) ** k, math.factorial(2 * k + 1)) for k in range(7)]

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    ac = _SPLITTER * a
    ah = ac - (ac - a)
    al = a - ah
    bc = _SPLITTER * b
    bh = bc - (bc - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    return _two_sum(s, e + xl + yl)


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    return _two_sum(p, e + xh * yl + xl * yh)


def _dd_matmul(xh, xl, yh, yl):
    n = xh.shape[1]
    out_h = np.zeros((xh.shape[0], yh.shape[1]))
    out_l = np.zeros_like(out_h)
    for k in range(n):
        ph, pl = _dd_mul(
            xh[:, k : k + 1], xl[:, k : k + 1],
            yh[k : k + 1, :], yl[k : k + 1, :],
        )
        out_h, out_l = _dd_add(out_h, out_l, ph, pl)
    return out_h, out_l


def _dd_const(value: Fraction) -> tuple[float, float]:
    hi = float(value)
    return hi, float(value - Fraction(hi))


def _dd_series(
    powers: list[tuple[DenseMatrix, DenseMatrix]],
    coefficients: Sequence[Fraction],
) -> tuple[DenseMatrix, DenseMatrix]:
    acc_h = np.zeros_like(powers[0][0])
    acc_l = np.zeros_like(acc_h)
    for coeff, (ph, pl) in zip(coefficients, powers):
        ch, cl = _dd_const(coeff)
        th, tl = _dd_mul(ph, pl, ch, cl)
        acc_h, acc_l = _dd_add(acc_h, acc_l, th, tl)
    return acc_h, acc_l


def reference_cos_sin(a: DenseMatrix) -> CosSinResult:
    """Reference values by heavy scaling: series at norm <= 2^-20, then doubling.

    The degree-12 series at that norm is exact to far below unit roundoff,
    and the double-double doubling chain keeps the recovery's own rounding
    near 1e-15 for norms through 1e4 (the amplification only outruns the
    extra digits beyond roughly 1e7).  It takes the drivers' input
    (matcore.as_matrix).  Test oracle only, never in the product path.
    """
    a = as_matrix(a)
    norm = norm1(a)
    s = 0
    if norm > _REF_NORM_CAP:
        s = math.ceil(math.log2(norm / _REF_NORM_CAP))
    zero = np.zeros_like(a)
    bh = a * (2.0 ** -s)
    # Inputs with large imaginary eigenvalue parts overflow during doubling;
    # let the infs propagate silently rather than warn on every product.
    with np.errstate(over="ignore", invalid="ignore"):
        yh, yl = _dd_matmul(bh, zero, bh, zero)
        powers = [(identity(a.shape[0]), zero), (yh, yl)]
        for _ in range(5):
            ph, pl = _dd_matmul(*powers[-1], yh, yl)
            powers.append((ph, pl))
        cos_h, cos_l = _dd_series(powers, _REF_COS_CORE)
        sin_h, sin_l = _dd_matmul(bh, zero, *_dd_series(powers, _REF_SIN_CORE))
        eye = identity(a.shape[0])
        for _ in range(s):
            sh, sl = _dd_matmul(sin_h, sin_l, cos_h, cos_l)
            sin_h, sin_l = 2.0 * sh, 2.0 * sl
            ch, cl = _dd_matmul(cos_h, cos_l, cos_h, cos_l)
            cos_h, cos_l = _dd_add(2.0 * ch, 2.0 * cl, -eye, zero)
    return CosSinResult(cos_h + cos_l, sin_h + sin_l)


def relative_error_2(approx: DenseMatrix, reference: DenseMatrix) -> float:
    """Spectral-norm relative error of an approximation."""
    # A cosine with eigenvalue imaginary parts beyond ~709 overflows float64;
    # report such comparisons as inf instead of feeding nan to the SVD.
    if not (np.all(np.isfinite(approx)) and np.all(np.isfinite(reference))):
        return math.inf
    denom = float(np.linalg.norm(reference, 2))
    num = float(np.linalg.norm(approx - reference, 2))
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom
