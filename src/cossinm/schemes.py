"""Factored polynomial schemes for the matrix cosine/sine and wave kernels.

Each scheme evaluates a high-degree polynomial approximation of cos/sin (or
of the wave kernels c(t^2 A), s(t, A)) using far fewer matrix products than
the degree suggests.  The cosine part of every scheme is a polynomial in the
even variable y (y = A^2 for the trigonometric family, y = t^2 A for the
wave family), and the sine part is that same even-variable core times a
leading factor (A, or the scalar t).

Because the two families share their even-variable cores, the chains here
are written once, with the three pairs that run them (taylor_cos_sin,
wave_kernels, pade8_cos_sin), over an abstract operand algebra.  SCHEMES,
the one registry, maps each scheme to its chain, its cost and its basis
stack's depth.  The driver reaches a pair through its one dispatch
(driver._pair) and owns every fact it reads: it checks the input, scales
it, forms the even variable y and its square y^2 and, for the pairs that
read it (the degree-12 chain and the Pade pair), y^3 once, and hands them
in as the first slabs of the pair's basis stack (driver._basis), with the
one MatrixAlgebra of the call.  A pair returns one CosSinResult and runs
the products past those, and the Pade solves, through that algebra, which
charges them to the call's ledger and alone knows the structure
(triangular, symmetric or neither) they keep.  The verification oracle
replays the same dispatch over 60-digit scalar polynomials, each sine's
leading factor and the Pade solve included, to extract every coefficient
a scheme computes.

A chain works in stages over that basis stack: the identity, the powers it
is handed, then the products and sums the chain forms, each written
straight into its slab.  A stage forms all its combinations with one lin
call, a coefficient block (one row per combination, one column per slab)
against a prefix of the stack; on dense matrices that is one
matcore.linear_combination, one GEMM from n = matcore._GEMM_MIN_N and
below it in the rounding order of the plain term-by-term sum.  There the
two-term sums between stages (alg.add) always start from a stage's
combination, which a sum started from zero never leaves at -0, so they too
round as the plain sums 0 + p + q do.

Coefficient sets are stored exactly: as ``Fraction`` where rational, as
``SqrtCoeff`` (p + q*sqrt(36681)) for the closed-form irrational set of the
degree-8 core, and as exactly-parsed decimal ``Fraction`` values for the
degree-12 core, whose constants are roots of a nonlinear system, stored to
45 significant digits.  Each chain reads its stage blocks through the
algebra it runs in: the exact values for the oracle, float64 arrays made
once at import for the dense path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np

from .matcore import (
    CostLedger,
    DenseMatrix,
    Structure,
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
    """Identifies one scheme: its family and its matrix-product count.

    k_products counts the matrix products one evaluation of the pair
    charges, the even variable's own included.  The Pade pair's LU
    factorization and its two solves are charged apart, so PADE8 has
    k_products = 5 and a ledger total of 22/3.  Valid pairs are the keys of
    SCHEMES.
    """

    family: SchemeFamily
    k_products: int

    def __post_init__(self) -> None:
        registered = SCHEMES.get((self.family, self.k_products))
        if registered is None:
            valid = tuple(k for f, k in SCHEMES if f is self.family)
            raise ValueError(
                f"k_products for {self.family.value} must be one of {valid},"
                f" got {self.k_products}"
            )
        # the registry entry, kept so that a call reads it without a lookup
        # (hashing the family, a Python-level Enum hash, took about a third
        # of a microsecond per lookup); not a field, so not compared
        object.__setattr__(self, "_registered", registered)


@dataclass
class CosSinResult:
    """One computed pair: cos(A) and sin(A), or wave c(t^2 A) and s(t, A).

    A pair the driver returns holds nothing else alive: each matrix owns
    its memory, or the two are the slabs of one (2, n, n) buffer.
    """

    cos_part: DenseMatrix
    sin_part: DenseMatrix


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


# Degree-12 core (cos order 24 / wave order 12): four cubic-in-y factors.
# The 13 free slots solve the 13 order conditions y^0..y^12, a square
# nonlinear system, by Newton iteration in 100-digit arithmetic started
# from the earlier 20-digit prints (none moved by more than 1e-20).  Stored
# to 45 significant digits, they leave order-condition residuals near
# 1e-44 relative.
A_DEG12: dict[tuple[int, int], Fraction] = {
    (0, 1): F(0),
    (1, 1): F(0),
    (2, 1): F("0.0226497981120603951989981729352961695626776599"),
    (3, 1): F("-0.000131109241421357550255379993100572954154085054"),
    (0, 2): F("0.557514438099904080290956475443165685406198084"),
    (1, 2): F("-0.615779246834583864558620532355987093830005634"),
    (2, 2): F("0.00747198841446687051435656614746349365742270713"),
    (3, 2): F("-3.36244442047601259843720872187110267520588839e-5"),
    (0, 3): F("0.759368778684649992487904893859012779907240321"),
    (1, 3): F("-0.0156033397981381712999014296730208877210626305"),
    (2, 3): F("0.000109369895919083969346715546625221827139359719"),
    (3, 3): F("-1.03893360877457159499522559157983751806140622e-6"),
    (0, 4): F(0),
    (1, 4): F("-0.039649968743474473091376751859224656040526682"),
    (2, 4): F("0.00015549007350382146310343824258519472957069287"),
    (3, 4): F("-1.12673966307117002248868291728401977949777442e-6"),
}

# Sine companion of the degree-12 core.  The outer index-5 slot and the
# inner index-6 slot both multiply the cosine core, so only their sum is
# structurally determined; index 6 = 1 is the normalization that fixes the
# split.  The other eleven solve the order conditions through degree 21 (in
# the odd variable), which are linear in them once the core is fixed, and
# are stored like the core; the degree-23 condition is unsatisfiable for
# this chain shape and is off by 6.906e-23 in absolute terms.
Z_DEG12: dict[int, Fraction] = {
    0: F("0.100908083751098855986929764990652527728928482"),
    1: F("-0.0766875354644529931698042071605142373046209178"),
    2: F("0.000849248469932432576790671507188982320947721159"),
    3: F("-1.22040690446439110125880943208860754545105921e-5"),
    4: F("0.984997031593188600271654716515056645343668296"),
    5: F("-0.849252336481553987561120701092882644798964372"),
    6: F(1),
    7: F("0.000955441382809257990309670019928793312386529319"),
    8: F("4.5633710937715427063306624931188634361430486e-6"),
    9: F("2.73461259403000427141331633380435994012622696e-8"),
    10: F("0.000485502884748424774498033901104937446162727333"),
    11: F("-4.15891109384923342531341350542264633915779989e-7"),
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


# Truncated series terms: COS_SERIES[k] = (-1)^k / (2k)! and
# SIN_SERIES[k] = (-1)^k / (2k+1)!, the coefficients of y^k in the even
# cores of cos and sin.
COS_SERIES: tuple[Fraction, ...] = tuple(
    F((-1) ** k, math.factorial(2 * k)) for k in range(5)
)
SIN_SERIES: tuple[Fraction, ...] = tuple(
    F((-1) ** k, math.factorial(2 * k + 1)) for k in range(5)
)


def _as_floats(block: tuple[tuple, ...]) -> np.ndarray:
    floats = np.array([[float(c) for c in row] for row in block])
    floats.flags.writeable = False
    return floats


class Constants:
    """Named stage blocks of exact scheme constants, with float64 copies.

    A block is a tuple of rows, one per combination a chain stage forms,
    each holding one exact scalar per basis slab; its float64 copy is a
    read-only array of the same shape, made once, when the module is
    imported, so no exact value is converted during an evaluation.
    """

    def __init__(self, **blocks: tuple[tuple, ...]) -> None:
        self.exact = SimpleNamespace(**blocks)
        self.floats = SimpleNamespace(
            **{name: _as_floats(block) for name, block in blocks.items()}
        )


_C, _S = COS_SERIES, SIN_SERIES
_X, _Z = X_DEG8, Z_DEG8

# The stage blocks each chain reads, named after what their rows form; the
# comment over each gives the basis its columns multiply.
TAYLOR_CONSTANTS = Constants(
    # [I, y, y^2] -> both degree-2 cores
    deg2=(_C[:3], _S[:3]),
    # [I, y, y^2] -> the inner factor c3 y + c4 y^2 of q, and with the exact
    # sine that of q9 too
    deg4_inner=((F(0), _C[3], _C[4]),),
    deg4_exact_inner=((F(0), _C[3], _C[4]), (F(0), _S[3], _S[4])),
    # [I, y, y^2, q] -> both cores, the sine reusing q scaled by 6!/7!
    deg4=((*_C[:3], F(1)), (*_S[:3], F(720, 5040))),
    # [I, y, y^2, q, q9] -> both cores
    deg4_exact=((*_C[:3], F(1), F(0)), (*_S[:3], F(0), F(1))),
)
DEG8_CONSTANTS = Constants(
    # [I, y, y^2] -> p8's factor and the cosine's part below p16
    low=((F(0), _X[1], _X[2]), (F(1), F(-1, 2), _X[8])),
    # [I, y, y^2, p8] -> the two factors of p16
    p16=((F(0), F(0), _X[3], F(1)), (_X[4], _X[5], _X[6], _X[7])),
    # [I, y, y^2, p8, cos] -> the tail's factor and the sine's part below it
    sin=((_Z[5], _Z[5], _Z[6], _Z[7], _Z[8]),
         (_Z[0], _Z[1], _Z[2], _Z[3], _Z[4])),
)
DEG12_CONSTANTS = Constants(
    # [I, y, y^2, y^3] -> the cubic factors c1..c4
    c=tuple(tuple(A_DEG12[(i, j)] for i in range(4)) for j in (1, 2, 3, 4)),
    # [I, y, y^2, y^3, mid, cos] -> the tail's factor and the sine's part
    # below it
    sin=(tuple(Z_DEG12[i] for i in range(6, 12)),
         tuple(Z_DEG12[i] for i in range(6))),
)
PADE8_CONSTANTS = Constants(
    # [I, y, ..., y^4] -> the denominator, the cosine numerator and the
    # even factor of the sine numerator
    block=(PADE8_DEN, PADE8_NUM_COS, (*PADE8_NUM_SIN, F(0))),
)


# --------------------------------------------------------------------------
# Operand algebra and the shared even-variable chains.

T = TypeVar("T")


class OperandAlgebra(Protocol[T]):
    """Operations a chain needs: a basis stack, charged products, free
    combinations and sums, and the stage blocks in the algebra's own
    scalar type.

    basis(depth, *operands) is a stack of depth slabs: the identity, the
    operands, then slabs for the chain to fill, which mul and add write
    through out= (the slab itself, as numpy's out does).  lin(basis, block)
    returns one combination of the basis's slabs per row of block.
    solve(den, rhs1, rhs2) is the pair den^-1 rhs1, den^-1 rhs2.  A pair
    returns what it computed, a slab of its basis or a row of a stage
    among them; the driver decides what a returned pair may hold alive.
    """

    def constants(self, table: Constants) -> SimpleNamespace: ...

    def basis(self, depth: int, *operands: T) -> Sequence[T]: ...

    def mul(self, p: T, q: T, out: T | None = None) -> T: ...

    def solve(self, den: T, rhs1: T, rhs2: T) -> tuple[T, T]: ...

    def lin(self, basis: Sequence[T], block) -> Sequence[T]: ...

    def add(self, p: T, q: T, out: T | None = None) -> T: ...


class MatrixAlgebra:
    """One call's dense-matrix algebra; every mul is charged to its ledger.

    Chains read the float64 blocks.  A basis is one C-contiguous
    (depth, n, n) array, so a stage's combinations are one
    linear_combination over a prefix of it, and its rows (views into one
    result array) are returned as they are.  The driver makes the call's
    basis stack before it forms any power (workspace) and forms y and y^2
    in its slabs 1 and 2, so basis hands back a prefix of it and copies
    nothing.  structure is what every operand keeps from the call's input,
    as every rational function of an upper-triangular (symmetric) matrix
    is upper triangular (symmetric), and each product and solve takes the
    kernels for it; no other layer reads it.
    """

    def __init__(self, ledger: CostLedger, structure: Structure) -> None:
        self.ledger = ledger
        self._structure = structure
        self._workspace: np.ndarray | None = None

    def constants(self, table: Constants) -> SimpleNamespace:
        return table.floats

    def workspace(self, depth: int, n: int) -> np.ndarray:
        """The call's basis stack, made before its powers are: (depth, n, n),
        the identity in slab 0 and the rest unwritten.  The caller forms
        the operands of basis straight into slabs 1, 2, ..., in order, and
        basis then returns the first depth slabs of this stack."""
        stack = self._workspace = np.empty((depth, n, n))
        stack[0] = 0.0
        stack.ravel()[: n * n : n + 1] = 1.0  # slab 0's diagonal
        return stack

    def basis(self, depth: int, *operands: DenseMatrix) -> np.ndarray:
        # the operands are the workspace's slabs 1, 2, ... already
        return self._workspace[:depth]

    def mul(
        self, p: DenseMatrix, q: DenseMatrix, out: DenseMatrix | None = None
    ) -> DenseMatrix:
        return matmul(p, q, self.ledger, structure=self._structure,
                      out=out)

    def solve(
        self, den: DenseMatrix, rhs1: DenseMatrix, rhs2: DenseMatrix
    ) -> tuple[DenseMatrix, DenseMatrix]:
        return lu_solve_pair(den, rhs1, rhs2, self.ledger,
                             structure=self._structure)

    def lin(self, basis: np.ndarray, block: np.ndarray) -> np.ndarray:
        return linear_combination(basis, block)

    def add(
        self, p: DenseMatrix, q: DenseMatrix, out: DenseMatrix | None = None
    ) -> DenseMatrix:
        return np.add(p, q, out=out)


def chain_deg2(alg: OperandAlgebra[T], basis: Sequence[T]) -> tuple[T, T]:
    """Degree-2 pair: cos core 1 - y/2 + y^2/24, sine core 1 - y/6 + y^2/120.

    One product (y^2).  basis: I, y, y^2.  Trigonometric instantiation:
    T4c and T5s.
    """
    k = alg.constants(TAYLOR_CONSTANTS)
    cos, sin_core = alg.lin(basis, k.deg2)
    return cos, sin_core


def chain_deg4(
    alg: OperandAlgebra[T], basis: Sequence[T], exact_sine: bool
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
    inner, cores = ((k.deg4_exact_inner, k.deg4_exact) if exact_sine
                    else (k.deg4_inner, k.deg4))
    # basis: I, y, y^2, then q = y^2 (c3 y + c4 y^2) and, with the exact
    # sine, q9 = y^2 (s3 y + s4 y^2)
    for slab, factor in enumerate(alg.lin(basis[:3], inner), start=3):
        alg.mul(basis[2], factor, out=basis[slab])
    cos, sin_core = alg.lin(basis, cores)
    return cos, sin_core


def chain_deg8(alg: OperandAlgebra[T], basis: Sequence[T]) -> tuple[T, T]:
    """Degree-8 cos core (order 16 in A) and its degree-12 sine core.

    Four products.  basis: I, y, y^2, then p8 and cos.  Trigonometric
    instantiation: T16c and T17,25s; wave instantiation: P8c and P8,12s.
    """
    k = alg.constants(DEG8_CONSTANTS)
    p8_factor, cos_low = alg.lin(basis[:3], k.low)
    p8 = alg.mul(basis[2], p8_factor, out=basis[3])
    left, right = alg.lin(basis[:4], k.p16)
    cos = alg.add(cos_low, alg.mul(left, right), out=basis[4])
    inner, sin_low = alg.lin(basis, k.sin)
    sin_core = alg.add(sin_low, alg.mul(inner, p8))
    return cos, sin_core


def chain_deg12(alg: OperandAlgebra[T], basis: Sequence[T]) -> tuple[T, T]:
    """Degree-12 cos core (order 24 in A) and its degree-24 sine core.

    Five products, y^3 = y^2 y among them, which the caller forms.  basis:
    I, y, y^2, y^3, then mid and cos.  Trigonometric instantiation: T24c
    and T23,49s; wave instantiation: P12c and P11,24s.  The sine core
    satisfies its order conditions through y^10; the y^11 condition cannot
    be met by this chain shape (see Z_DEG12).
    """
    k = alg.constants(DEG12_CONSTANTS)
    c1, c2, c3, c4 = alg.lin(basis[:4], k.c)
    mid = alg.add(c3, alg.mul(c4, c4), out=basis[4])
    cos = alg.add(c1, alg.mul(alg.add(c2, mid), mid), out=basis[5])
    inner, sin_low = alg.lin(basis, k.sin)
    sin_core = alg.add(sin_low, alg.mul(inner, cos))
    return cos, sin_core


# --------------------------------------------------------------------------
# The scheme registry.


@dataclass(frozen=True)
class RegisteredScheme:
    """One scheme's even-variable chain, its cost in products, and the
    basis stack its pair starts from.

    The stack has depth slabs: the identity, then powers = 2 or 3 powers
    of y (y, y^2 and, for the degree-12 chain and the Pade pair, y^3),
    which the caller forms, then the slabs the pair fills.
    chain(alg, basis) returns the (cosine core, sine core) pair; the
    rational baseline has none, its cores being series quotients.
    """

    chain: Callable[..., tuple] | None
    cost: Fraction
    depth: int
    powers: int = 2


_TAYLOR, _WAVE = SchemeFamily.COS_SIN_TAYLOR, SchemeFamily.WAVE_KERNEL

# Every scheme, keyed by (family, k_products), each family in ascending
# cost.  The wave family uses the trigonometric chains one step down: its
# even variable needs no product, and its degree-4 sine is the exact one.
SCHEMES: dict[tuple[SchemeFamily, int], RegisteredScheme] = {
    (_TAYLOR, 3): RegisteredScheme(chain_deg2, F(3), 3),
    (_TAYLOR, 4): RegisteredScheme(partial(chain_deg4, exact_sine=False),
                                   F(4), 4),
    (_TAYLOR, 6): RegisteredScheme(chain_deg8, F(6), 5),
    (_TAYLOR, 7): RegisteredScheme(chain_deg12, F(7), 6, powers=3),
    (_WAVE, 3): RegisteredScheme(partial(chain_deg4, exact_sine=True), F(3),
                                 5),
    (_WAVE, 4): RegisteredScheme(chain_deg8, F(4), 5),
    (_WAVE, 5): RegisteredScheme(chain_deg12, F(5), 6, powers=3),
    (SchemeFamily.PADE8, 5): RegisteredScheme(None, F(22, 3), 5, powers=3),
}

PADE8 = SchemeId(SchemeFamily.PADE8, 5)


def taylor_cos_sin(
    a: T, scheme: SchemeId, alg: OperandAlgebra[T], basis: Sequence[T]
) -> CosSinResult:
    """Evaluate one trigonometric pair scheme at a.

    basis starts with I, A^2, A^4, and A^6 for the degree-12 chain, formed
    by the caller (see RegisteredScheme); the pair charges the rest of
    scheme.k_products: the chain's products past those and the leading
    sine factor.
    """
    cos, sin_core = scheme._registered.chain(alg, basis)
    return CosSinResult(cos, alg.mul(a, sin_core))


def wave_kernels(
    t: float, scheme: SchemeId, alg: OperandAlgebra[T], basis: Sequence[T]
) -> CosSinResult:
    """Evaluate one wave-kernel pair scheme: c(t^2 A) and s(t, A).

    No square root of A is ever formed: both kernels are polynomials in
    B = t^2 A.  basis starts with I, B, B^2, and B^3 for the degree-12
    chain, formed by the caller; the s part is the even-variable sine core
    times the scalar t, so the pair charges scheme.k_products less the
    caller's products.
    """
    c, s_core = scheme._registered.chain(alg, basis)
    return CosSinResult(c, t * s_core)


def pade8_cos_sin(
    a: T, alg: OperandAlgebra[T], basis: Sequence[T]
) -> CosSinResult:
    """Order-8 Pade baseline: shared-denominator rational cos/sin pair.

    Five products (A^2, A^4, A^6 = A^2 A^4, A^8 and the odd numerator's
    leading factor) plus one LU factorization shared by two solves: 7 + 1/3
    product-equivalents total.  basis holds I, A^2, A^4 and A^6, formed by
    the caller, and a slab for A^8, so the pair charges the other two
    products and the LU.
    """
    alg.mul(basis[1], basis[3], out=basis[4])
    k = alg.constants(PADE8_CONSTANTS)
    den, num_cos, num_sin_factor = alg.lin(basis, k.block)
    return CosSinResult(*alg.solve(den, num_cos, alg.mul(a, num_sin_factor)))
