"""Factored polynomial schemes for the matrix cosine/sine and wave kernels.

Each scheme evaluates a high-degree polynomial approximation of cos/sin (or
of the wave kernels c(t^2 A), s(t, A)) using far fewer matrix products than
the degree suggests.  The cosine part of every scheme is a polynomial in the
even variable y (y = A^2 for the trigonometric family, y = t^2 A for the
wave family), and the sine part is that same even-variable core times a
leading factor (A, or the scalar t).

Because the two families share their even-variable cores, the chains here
are written once over an abstract operand algebra: the driver runs them with
dense matrices (charging a cost ledger per product), and the verification
oracle replays the identical code path with exact scalar polynomials to
extract every coefficient a scheme actually computes.  SCHEMES, the one
registry, maps each scheme to its chain and its cost.

Coefficient sets are stored exactly: as ``Fraction`` where rational, as
``SqrtCoeff`` (p + q*sqrt(36681)) for the closed-form irrational set of the
degree-8 core, and as exactly-parsed decimal ``Fraction`` values for the
degree-12 core, whose constants are roots of a nonlinear system, stored to
45 significant digits.  Each chain reads its constants through the algebra
it runs in: the exact values for the oracle, float64 copies made once at
import for the dense path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Callable, Protocol, Sequence, TypeVar

from .matcore import (
    CostLedger,
    DenseMatrix,
    MatrixInputError,
    identity,
    linear_combination,
    lu_solve_pair,
    matmul,
)

F = Fraction


@dataclass(frozen=True)
class SqrtCoeff:
    """Exact coefficient of the form rational + rational * sqrt(36681)."""

    rational: Fraction
    surd: Fraction

    def __float__(self) -> float:
        return float(self.rational) + float(self.surd) * math.sqrt(36681.0)


ExactScalar = Fraction | SqrtCoeff


class SchemeFamily(enum.Enum):
    COS_SIN_TAYLOR = "cos_sin_taylor"
    WAVE_KERNEL = "wave_kernel"
    PADE8 = "pade8"


@dataclass(frozen=True)
class SchemeId:
    """Identifies one scheme: family plus total products for the cos+sin pair.

    Valid pairs are the keys of SCHEMES.
    """

    family: SchemeFamily
    k_products: int

    def __post_init__(self) -> None:
        if (self.family, self.k_products) not in SCHEMES:
            valid = tuple(k for f, k in SCHEMES if f is self.family)
            raise ValueError(
                f"k_products for {self.family.value} must be one of {valid},"
                f" got {self.k_products}"
            )


@dataclass
class CosSinResult:
    cos_part: DenseMatrix
    sin_part: DenseMatrix
    cost: CostLedger


@dataclass
class WaveResult:
    c_part: DenseMatrix
    s_part: DenseMatrix
    cost: CostLedger


# --------------------------------------------------------------------------
# Coefficient sets.

# Degree-8 core (cos order 16 / wave order 8).  The irrational entries are
# exact closed forms; several come from a nonlinear system with a free
# parameter fixed to minimize the coefficient norm.
X_DEG8: dict[int, ExactScalar] = {
    1: F(7, 500),
    2: F(-7, 60000),
    3: SqrtCoeff(F(-1533, 2500), F(7, 2500)),
    4: SqrtCoeff(F(-622905, 10594584), F(-1955, 10594584)),
    5: F(9775, 10594584),
    6: SqrtCoeff(F(-5005, 508540032), F(-5, 508540032)),
    7: F(3125, 889945056),
    8: SqrtCoeff(F(1549211, 63063000), F(3246, 63063000)),
}

# Sine companion of the degree-8 core (order 17 / wave order 8).  Index 5
# multiplies both the identity and the y term of the inner factor: the
# structure ties those two slots to a single constant, and the nine values
# solve the nine order conditions exactly.
Z_DEG8: dict[int, Fraction] = {
    0: F(8887, 4794),
    1: F(-1897, 3196),
    2: F(25259, 575280),
    3: F(-965093875, 9674368704),
    4: F(-4093, 4794),
    5: F(25698275, 29023106112),
    6: F(-3907675, 348277273344),
    7: F(11865625, 3656911370112),
    8: F(25, 308756448),
}


def _dec(s: str) -> Fraction:
    """Exact Fraction from a decimal literal (optionally with exponent)."""
    if "e" in s:
        mantissa, exponent = s.split("e")
        return F(mantissa) * F(10) ** int(exponent)
    return F(s)


# Degree-12 core (cos order 24 / wave order 12): four cubic-in-y factors.
# The 13 free slots solve the 13 order conditions y^0..y^12, a square
# nonlinear system, by Newton iteration in 100-digit arithmetic started
# from the earlier 20-digit prints (none moved by more than 1e-20).  Stored
# to 45 significant digits, they leave order-condition residuals near
# 1e-44 relative.
A_DEG12: dict[tuple[int, int], Fraction] = {
    (0, 1): F(0),
    (1, 1): F(0),
    (2, 1): _dec("0.0226497981120603951989981729352961695626776599"),
    (3, 1): _dec("-0.000131109241421357550255379993100572954154085054"),
    (0, 2): _dec("0.557514438099904080290956475443165685406198084"),
    (1, 2): _dec("-0.615779246834583864558620532355987093830005634"),
    (2, 2): _dec("0.00747198841446687051435656614746349365742270713"),
    (3, 2): _dec("-3.36244442047601259843720872187110267520588839e-5"),
    (0, 3): _dec("0.759368778684649992487904893859012779907240321"),
    (1, 3): _dec("-0.0156033397981381712999014296730208877210626305"),
    (2, 3): _dec("0.000109369895919083969346715546625221827139359719"),
    (3, 3): _dec("-1.03893360877457159499522559157983751806140622e-6"),
    (0, 4): F(0),
    (1, 4): _dec("-0.039649968743474473091376751859224656040526682"),
    (2, 4): _dec("0.00015549007350382146310343824258519472957069287"),
    (3, 4): _dec("-1.12673966307117002248868291728401977949777442e-6"),
}

# Sine companion of the degree-12 core.  The outer index-5 slot and the
# inner index-6 slot both multiply the cosine core, so only their sum is
# structurally determined; index 6 = 1 is the normalization that fixes the
# split.  The other eleven solve the order conditions through degree 21 (in
# the odd variable), which are linear in them once the core is fixed, and
# are stored like the core; the degree-23 condition is unsatisfiable for
# this chain shape and is off by 6.906e-23 in absolute terms.
Z_DEG12: dict[int, Fraction] = {
    0: _dec("0.100908083751098855986929764990652527728928482"),
    1: _dec("-0.0766875354644529931698042071605142373046209178"),
    2: _dec("0.000849248469932432576790671507188982320947721159"),
    3: _dec("-1.22040690446439110125880943208860754545105921e-5"),
    4: _dec("0.984997031593188600271654716515056645343668296"),
    5: _dec("-0.849252336481553987561120701092882644798964372"),
    6: F(1),
    7: _dec("0.000955441382809257990309670019928793312386529319"),
    8: _dec("4.5633710937715427063306624931188634361430486e-6"),
    9: _dec("2.73461259403000427141331633380435994012622696e-8"),
    10: _dec("0.000485502884748424774498033901104937446162727333"),
    11: _dec("-4.15891109384923342531341350542264633915779989e-7"),
}

# Order-8 diagonal Pade of the exponential, split into cos/sin parts.
# Polynomials in y = A^2; the two numerators share one denominator, so a
# single LU factorization serves both solves.
PADE8_DEN: tuple[Fraction, ...] = (
    F(1), F(1, 28), F(3, 3920), F(1, 70560), F(1, 2822400),
)
PADE8_NUM_COS: tuple[Fraction, ...] = (
    F(1), F(-13, 28), F(289, 11760), F(-19, 70560), F(1, 2822400),
)
PADE8_NUM_SIN: tuple[Fraction, ...] = (
    F(1), F(-11, 84), F(37, 11760), F(-1, 70560),
)


@dataclass(frozen=True)
class CoefficientSet:
    """Every stored scheme constant, bundled for inspection and testing."""

    x_deg8: dict[int, ExactScalar]
    z_deg8: dict[int, Fraction]
    a_deg12: dict[tuple[int, int], Fraction]
    z_deg12: dict[int, Fraction]
    pade_den: tuple[Fraction, ...]
    pade_num_cos: tuple[Fraction, ...]
    pade_num_sin: tuple[Fraction, ...]


COEFFICIENTS = CoefficientSet(
    x_deg8=X_DEG8,
    z_deg8=Z_DEG8,
    a_deg12=A_DEG12,
    z_deg12=Z_DEG12,
    pade_den=PADE8_DEN,
    pade_num_cos=PADE8_NUM_COS,
    pade_num_sin=PADE8_NUM_SIN,
)


# Truncated series terms: COS_SERIES[k] = (-1)^k / (2k)! and
# SIN_SERIES[k] = (-1)^k / (2k+1)!, the coefficients of y^k in the even
# cores of cos and sin.
COS_SERIES: tuple[Fraction, ...] = tuple(
    F((-1) ** k, math.factorial(2 * k)) for k in range(5)
)
SIN_SERIES: tuple[Fraction, ...] = tuple(
    F((-1) ** k, math.factorial(2 * k + 1)) for k in range(5)
)


def _as_floats(value):
    if isinstance(value, dict):
        return {key: float(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(float(v) for v in value)
    return float(value)


class Constants:
    """Named groups of exact scheme constants, with float64 copies.

    A group is one exact scalar, or a tuple or dict of them; its float64
    copy has the same shape and is made once, when the module is imported,
    so no exact value is converted during an evaluation.
    """

    def __init__(self, **groups) -> None:
        self.exact = SimpleNamespace(**groups)
        self.floats = SimpleNamespace(
            **{name: _as_floats(value) for name, value in groups.items()}
        )


# The constants each chain reads.  Coefficients that are exact in binary
# (1, -1/2) are written in the chains as float literals.
TAYLOR_CONSTANTS = Constants(
    cos=COS_SERIES, sin=SIN_SERIES, sin_from_cos=F(720, 5040)
)
DEG8_CONSTANTS = Constants(x=X_DEG8, z=Z_DEG8)
DEG12_CONSTANTS = Constants(a=A_DEG12, z=Z_DEG12)
PADE8_CONSTANTS = Constants(
    den=PADE8_DEN, num_cos=PADE8_NUM_COS, num_sin=PADE8_NUM_SIN
)


# --------------------------------------------------------------------------
# Operand algebra and the shared even-variable chains.

T = TypeVar("T")


class OperandAlgebra(Protocol[T]):
    """Operations a chain needs: identity, charged product, free lin. comb.,
    and the chain's constants in the algebra's own scalar type."""

    @property
    def one(self) -> T: ...

    def constants(self, table: Constants) -> SimpleNamespace: ...

    def mul(self, p: T, q: T) -> T: ...

    def lin(self, terms: Sequence[tuple[object, T]]) -> T: ...


class MatrixAlgebra:
    """Dense-matrix operand algebra; every mul is charged to the ledger.

    Chains read the float64 constants.  A combination whose first term is
    the identity hands that coefficient to linear_combination as its
    diagonal start value, so no identity multiple is formed; every chain
    puts its identity term first.
    """

    def __init__(self, n: int, ledger: CostLedger) -> None:
        self._one = identity(n)
        self._ledger = ledger

    @property
    def one(self) -> DenseMatrix:
        return self._one

    def constants(self, table: Constants) -> SimpleNamespace:
        return table.floats

    def mul(self, p: DenseMatrix, q: DenseMatrix) -> DenseMatrix:
        return matmul(p, q, self._ledger)

    def lin(self, terms: Sequence[tuple[float, DenseMatrix]]) -> DenseMatrix:
        c, m = terms[0]
        if m is self._one and len(terms) > 1:
            return linear_combination(terms[1:], c)
        return linear_combination(terms)


def _square(alg: OperandAlgebra[T], y: T, y2: T | None) -> T:
    """y^2, which every chain starts from, unless the caller formed it
    already and passed it as y2: then the chain charges one product less."""
    return alg.mul(y, y) if y2 is None else y2


def chain_deg2(
    alg: OperandAlgebra[T], y: T, *, y2: T | None = None
) -> tuple[T, T]:
    """Degree-2 pair: cos core 1 - y/2 + y^2/24, sine core 1 - y/6 + y^2/120.

    One product (y^2).  Trigonometric instantiation: T4c and T5s.
    """
    k = alg.constants(TAYLOR_CONSTANTS)
    c, s = k.cos, k.sin
    y2 = _square(alg, y, y2)
    cos = alg.lin([(c[0], alg.one), (c[1], y), (c[2], y2)])
    sin_core = alg.lin([(s[0], alg.one), (s[1], y), (s[2], y2)])
    return cos, sin_core


def chain_deg4(
    alg: OperandAlgebra[T], y: T, exact_sine: bool, *, y2: T | None = None
) -> tuple[T, T]:
    """Degree-4 pair built from two products (three with the exact sine).

    The cosine core matches its series through y^4.  With exact_sine=False
    the sine core reuses the cosine's inner product scaled by 6!/7! and
    matches through y^3 only (its y^4 coefficient lands on 1/282240 instead
    of 1/9!); with exact_sine=True one extra product buys the exact
    degree-4 sine core.
    Trigonometric instantiation: T8c with T7,9s or T9s; wave instantiation:
    P4c with P3,4s or P4s.
    """
    k = alg.constants(TAYLOR_CONSTANTS)
    c, s = k.cos, k.sin
    y2 = _square(alg, y, y2)
    q = alg.mul(y2, alg.lin([(c[3], y), (c[4], y2)]))
    cos = alg.lin([(c[0], alg.one), (c[1], y), (c[2], y2), (1.0, q)])
    base = [(s[0], alg.one), (s[1], y), (s[2], y2)]
    if exact_sine:
        q9 = alg.mul(y2, alg.lin([(s[3], y), (s[4], y2)]))
        sin_core = alg.lin(base + [(1.0, q9)])
    else:
        sin_core = alg.lin(base + [(k.sin_from_cos, q)])
    return cos, sin_core


def chain_deg8(
    alg: OperandAlgebra[T], y: T, *, y2: T | None = None
) -> tuple[T, T]:
    """Degree-8 cos core (order 16 in A) and its degree-12 sine core.

    Four products.  Trigonometric instantiation: T16c and T17,25s; wave
    instantiation: P8c and P8,12s.
    """
    k = alg.constants(DEG8_CONSTANTS)
    x, z = k.x, k.z
    y2 = _square(alg, y, y2)
    p8 = alg.mul(y2, alg.lin([(x[1], y), (x[2], y2)]))
    p16 = alg.mul(
        alg.lin([(x[3], y2), (1.0, p8)]),
        alg.lin([(x[4], alg.one), (x[5], y), (x[6], y2), (x[7], p8)]),
    )
    cos = alg.lin([(1.0, alg.one), (-0.5, y), (x[8], y2), (1.0, p16)])
    inner = alg.lin(
        [(z[5], alg.one), (z[5], y), (z[6], y2), (z[7], p8), (z[8], cos)]
    )
    tail = alg.mul(inner, p8)
    sin_core = alg.lin(
        [(z[0], alg.one), (z[1], y), (z[2], y2), (z[3], p8), (z[4], cos),
         (1.0, tail)]
    )
    return cos, sin_core


def chain_deg12(
    alg: OperandAlgebra[T], y: T, *, y2: T | None = None
) -> tuple[T, T]:
    """Degree-12 cos core (order 24 in A) and its degree-24 sine core.

    Five products.  Trigonometric instantiation: T24c and T23,49s; wave
    instantiation: P12c and P11,24s.  The sine core satisfies its order
    conditions through y^10; the y^11 condition cannot be met by this chain
    shape (see Z_DEG12).
    """
    k = alg.constants(DEG12_CONSTANTS)
    a, z = k.a, k.z
    y2 = _square(alg, y, y2)
    y3 = alg.mul(y2, y)
    c1, c2, c3, c4 = (
        alg.lin(
            [(a[(0, j)], alg.one), (a[(1, j)], y), (a[(2, j)], y2),
             (a[(3, j)], y3)]
        )
        for j in (1, 2, 3, 4)
    )
    mid = alg.lin([(1.0, c3), (1.0, alg.mul(c4, c4))])
    cos = alg.lin(
        [(1.0, c1), (1.0, alg.mul(alg.lin([(1.0, c2), (1.0, mid)]), mid))]
    )
    inner = alg.lin(
        [(z[6], alg.one), (z[7], y), (z[8], y2), (z[9], y3), (z[10], mid),
         (z[11], cos)]
    )
    tail = alg.mul(inner, cos)
    sin_core = alg.lin(
        [(z[0], alg.one), (z[1], y), (z[2], y2), (z[3], y3), (z[4], mid),
         (z[5], cos), (1.0, tail)]
    )
    return cos, sin_core


# --------------------------------------------------------------------------
# The scheme registry.


@dataclass(frozen=True)
class RegisteredScheme:
    """One scheme's even-variable chain and its cost in products.

    chain(alg, y, y2=None) returns the (cosine core, sine core) pair; the
    rational baseline has none, its cores being series quotients.
    """

    chain: Callable[..., tuple] | None
    cost: Fraction


_TAYLOR, _WAVE = SchemeFamily.COS_SIN_TAYLOR, SchemeFamily.WAVE_KERNEL

# Every scheme, keyed by (family, k_products), each family in ascending
# cost.  The wave family uses the trigonometric chains one step down: its
# even variable needs no product, and its degree-4 sine is the exact one.
SCHEMES: dict[tuple[SchemeFamily, int], RegisteredScheme] = {
    (_TAYLOR, 3): RegisteredScheme(chain_deg2, F(3)),
    (_TAYLOR, 4): RegisteredScheme(partial(chain_deg4, exact_sine=False),
                                   F(4)),
    (_TAYLOR, 6): RegisteredScheme(chain_deg8, F(6)),
    (_TAYLOR, 7): RegisteredScheme(chain_deg12, F(7)),
    (_WAVE, 3): RegisteredScheme(partial(chain_deg4, exact_sine=True), F(3)),
    (_WAVE, 4): RegisteredScheme(chain_deg8, F(4)),
    (_WAVE, 5): RegisteredScheme(chain_deg12, F(5)),
    (SchemeFamily.PADE8, 5): RegisteredScheme(None, F(22, 3)),
}

PADE8 = SchemeId(SchemeFamily.PADE8, 5)


def _require_square(a: DenseMatrix) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixInputError(f"matrix must be square, got shape {a.shape}")
    return a.shape[0]


Powers = tuple[DenseMatrix, DenseMatrix | None]


def taylor_cos_sin(
    a: DenseMatrix,
    scheme: SchemeId,
    ledger: CostLedger,
    *,
    powers: Powers | None = None,
) -> CosSinResult:
    """Evaluate one trigonometric pair scheme at a.

    Total products charged: exactly scheme.k_products (one for A^2, the
    chain's internal products, one for the leading sine factor), less the
    ones the caller formed: powers = (A^2, A^4) or (A^2, None).
    """
    if scheme.family is not SchemeFamily.COS_SIN_TAYLOR:
        raise ValueError(f"not a trigonometric scheme: {scheme}")
    n = _require_square(a)
    alg = MatrixAlgebra(n, ledger)
    y, y2 = (alg.mul(a, a), None) if powers is None else powers
    cos, sin_core = SCHEMES[scheme.family, scheme.k_products].chain(
        alg, y, y2=y2)
    sin = alg.mul(a, sin_core)
    return CosSinResult(cos_part=cos, sin_part=sin, cost=ledger)


def taylor_sin9(a: DenseMatrix, ledger: CostLedger) -> DenseMatrix:
    """Degree-9 sine alone: the exact-sine variant of the degree-4 chain.

    Costs 2 products beyond the 3 shared with the paired cosine when the
    intermediates are reused; evaluated standalone it charges 5.
    """
    n = _require_square(a)
    alg = MatrixAlgebra(n, ledger)
    y = alg.mul(a, a)
    _, sin_core = chain_deg4(alg, y, exact_sine=True)
    return alg.mul(a, sin_core)


def wave_kernels(
    a: DenseMatrix,
    t: float,
    scheme: SchemeId,
    ledger: CostLedger,
    *,
    powers: Powers | None = None,
) -> WaveResult:
    """Evaluate one wave-kernel pair scheme: c(t^2 A) and s(t, A).

    No square root of A is ever formed: both kernels are polynomials in
    B = t^2 A.  The s part is the even-variable sine core times the scalar
    t, so the pair costs exactly scheme.k_products products, less one when
    the caller formed B^2: powers = (B, B^2), or (B, None).
    """
    if scheme.family is not SchemeFamily.WAVE_KERNEL:
        raise ValueError(f"not a wave-kernel scheme: {scheme}")
    n = _require_square(a)
    alg = MatrixAlgebra(n, ledger)
    y, y2 = (float(t) * float(t) * a, None) if powers is None else powers
    c, s_core = SCHEMES[scheme.family, scheme.k_products].chain(alg, y, y2=y2)
    return WaveResult(c_part=c, s_part=float(t) * s_core, cost=ledger)


def wave_sin34(a: DenseMatrix, t: float, ledger: CostLedger) -> DenseMatrix:
    """Cheaper wave sine variant: order 3 in B, reusing the c-chain products.

    Standalone cost is 2 products; alongside the matching c kernel it is
    free.  The highest-order pair stays the default in the driver.
    """
    n = _require_square(a)
    alg = MatrixAlgebra(n, ledger)
    y = float(t) * float(t) * a
    _, s_core = chain_deg4(alg, y, exact_sine=False)
    return float(t) * s_core


def pade8_cos_sin(
    a: DenseMatrix, ledger: CostLedger, *, powers: Powers | None = None
) -> CosSinResult:
    """Order-8 Pade baseline: shared-denominator rational cos/sin pair.

    Five products (A^2, A^4, A^6, A^8 and the odd numerator's leading
    factor) plus one LU factorization shared by two solves: 7 + 1/3
    product-equivalents total, less the powers the caller formed:
    powers = (A^2, A^4) or (A^2, None).
    """
    n = _require_square(a)
    alg = MatrixAlgebra(n, ledger)
    y, y2 = (alg.mul(a, a), None) if powers is None else powers
    y2 = _square(alg, y, y2)
    y3 = alg.mul(y, y2)
    y4 = alg.mul(y, y3)
    k = alg.constants(PADE8_CONSTANTS)
    powers = [alg.one, y, y2, y3, y4]
    den = alg.lin(list(zip(k.den, powers)))
    num_cos = alg.lin(list(zip(k.num_cos, powers)))
    num_sin = alg.mul(a, alg.lin(list(zip(k.num_sin, powers))))
    cos, sin = lu_solve_pair(den, num_cos, num_sin, ledger)
    return CosSinResult(cos_part=cos, sin_part=sin, cost=ledger)
