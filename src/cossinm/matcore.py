"""Dense real matrix arithmetic with product-cost instrumentation.

Every matrix-matrix product in this package flows through :func:`matmul` so
that the cost of a computation can be read off a :class:`CostLedger`
afterwards.  Additions and scalar multiplications are free, matching the
usual convention of counting only O(n^3) operations: one product costs 1,
an LU factorization 1/3, and each triangular solve against n right-hand
sides 1 (so a full inverse comes to 4/3).  The free work is done in bulk:
linear_combination forms all the combinations of one chain stage in one
call over a (k, n, n) basis stack, and matmul can write a product straight
into a slab of such a stack (out=).  matmul also takes a (k, n, n) stack as
its second operand, k products in one call (the driver's doubling step
S [S, C]), and charges them k.

From n = _GEMM_MIN_N that free work, and the dense Pade solves, run in
level-3 BLAS: a stage's combinations are one GEMM (the r x k block against
the stack read as k x n^2), and the two solves are two products with the
inverse formed from the LU factors.  A combination then keeps the error
bound of the plain sum but not its bits, and the solves are still charged
1/3 + 2, although the inverse adds about 2/3 of a product in flops.  Below
_GEMM_MIN_N every combination has the bits of the plain zero-started sum,
and every solve those of dgetrs.

The ledger counts products, not flops.  Two structures of an input survive
in every polynomial and rational function of it: an upper-triangular A (the
form a Schur factor takes) keeps every such matrix upper triangular, and a
symmetric A keeps every such matrix symmetric, all of them commuting.  The
driver tests its input once (structure_of) into the call's one
schemes.MatrixAlgebra, which passes the Structure to the kernels: matmul
and lu_solve_pair then skip what the structure makes redundant, each still
charged as before.

UPPER: a product of two upper triangles needs n^3 / 3 flops against a
dense product's 2 n^3, and a solve with an upper-triangular right-hand
side n^3 / 3 against n^3.  Both are one tiled kernel over square tiles of
_PANEL rows and columns on and above the diagonal (_upper_product,
_upper_solve), each tile one GEMM over the inner range where neither
operand is zero, and +0 below the diagonal tiles.  That range also skips
what lies past an operand's bandwidth, the most columns any nonzero lies
right of its diagonal (_bandwidth; a full triangle's is read at once from
its top-right tile): a Jordan-type input's powers and chains are banded,
and so are its doubling pairs, whose far corner the driver's zeroing of
tiny entries keeps at exact zeros, and a solve's update is bounded by its
denominator's bandwidth.  Each panel of a solve ends in one dtrsm.  Below
_TRIANGULAR_MIN_N the tiles save too little, and no input takes the
triangular path.

SYMMETRIC (from _SYMMETRIC_MIN_N): a square is one dsyrk (n^3 flops), and
a product of two different operands, which commute, forms only its upper
triangle in four row panels (5 n^3 / 4 flops); both then mirror the upper
triangle into the lower one, so every product is exactly symmetric.  The
Pade denominator p(y), with positive coefficients and y = A^2 positive
semidefinite, is symmetric positive definite, so its two solves are a
Cholesky factorization (dpotrf), the inverse from it (dpotri) and two
symmetric products, still charged 1/3 + 2.

Input is checked once, at the public boundary: as_matrix in every
evaluator (shape, real entries, finiteness), and read_matrix for the CLI's
matrix files (a header line ``rows cols``, then ``rows`` lines of ``cols``
finite decimal reals).  The kernels (matmul, linear_combination,
lu_solve_pair) take the shapes the chains build and do not test them
again; numpy or LAPACK raises on a bug.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import TypeAlias

import numpy as np

DenseMatrix: TypeAlias = np.ndarray

_EPS = float(np.finfo(np.float64).eps)
_FLOAT64 = np.dtype(np.float64)

# Smallest n whose upper-triangular input takes the triangular kernels.  On
# a 2-core Xeon VM with one OpenBLAS thread (best of 21 interleaved runs),
# whole cos_sin, wave_cos_sin and pade_cos_sin calls on a full triangle
# (norm 24) and a Jordan-type matrix (norm 12), in multiples of the same
# call on the dense path: the median of the six and their range, through
# the tiles at three sizes (_PANEL), and through the kernels they replaced
# (one triangular BLAS call per product or solve below n = 192, half-block
# splits and a banded product from there):
#
#     n          96    104   112   128   160   256   512
#     tile 64    1.18  0.97  0.92  0.94  0.79  0.63  0.46
#       lowest   1.08  0.84  0.80  0.75  0.66  0.54  0.34
#       highest  1.20  1.02  0.96  0.98  0.88  0.74  0.67
#     tile 32    1.25  1.12  1.02  0.96  0.85  0.64  0.47
#     tile 96    1.23  1.09  1.01  1.01  0.81  0.67  0.45
#     replaced   1.09  0.92  0.92  0.91  0.85  0.65  0.46
#
# At 96 every call lost to the dense path, and at 104 two of the six did;
# the replaced single BLAS calls did better there than the tiles do.
_TRIANGULAR_MIN_N = 112

# Rows and columns of the square tiles of the triangular product and solve
# (the table above), and of the top-right tile _bandwidth reads first; rows
# per block of its scan (64 and 256 were slower at n = 512).
_PANEL = 64
_SCAN_ROWS = 128

# Smallest n whose symmetric input takes the symmetric kernels.  On a 2-core
# Xeon VM with one OpenBLAS thread (best of 31 interleaved runs), in
# multiples of one a @ b at the same n: a square (dsyrk), a product of two
# symmetric matrices (four upper row panels), each with its mirror, and a
# Pade solve pair through dpotrf and dpotri against dgetrf and dgetri, each
# with its two products:
#
#     n         128   192   256   320   384   512   1024
#     square    1.11  0.89  0.89  0.76  0.64  0.60  0.62
#     panels    1.07  0.95  1.01  0.85  0.69  0.69  0.76
#     Cholesky  5.20  4.32  4.98  4.04  3.64  3.14  2.84
#     LU        6.43  5.79  6.18  5.38  4.81  4.39  4.31
#
# At 256 the squares and panels were 0.89-1.10 over repeated runs, and
# whole symmetric calls 0.76-1.14 of the dense ones; the structure test
# costs 0.11-0.13 of a product from 384 up.
_SYMMETRIC_MIN_N = 320

# Smallest n whose stage combinations are one GEMM and whose Pade solves go
# through one inverse.  On a 2-core Xeon VM with one OpenBLAS thread (best
# of 7), a 4 x 4 stage took 2.3 us as a GEMM at n = 2 against 3.7 as an
# einsum, and 0.26 against 0.66 of a product at n = 512.  A solve pair took
# 6.9, 7.6 and 8.7 us through the inverse at n = 2, 4 and 8 against 3.6,
# 3.9 and 6.0 with dgetrf and two dgetrs; the inverse wins from n = 16
# (14.3 against 15.0) and took 4.0 products against 6.8 at n = 512.  Below
# 64 the acceptance corpus and the small benchmark (n <= 16) keep their
# bits: a GEMM at every n dropped criterion 5 to 440/500, below its gate.
_GEMM_MIN_N = 64


class Structure(enum.Enum):
    """What every matrix of a call keeps from its input: nothing (DENSE),
    a zero strict lower triangle (UPPER), or symmetry (SYMMETRIC)."""

    DENSE = "dense"
    UPPER = "upper"
    SYMMETRIC = "symmetric"


# The members as module names: reading one as a class attribute took 0.13
# us on CPython 3.11, and matmul reads one per product, which at n <= 16
# costs about as much as the product itself
_DENSE, _UPPER, _SYMMETRIC = (
    Structure.DENSE, Structure.UPPER, Structure.SYMMETRIC)


class MatrixInputError(ValueError):
    """Malformed input at the public boundary: as_matrix, the wave driver's
    t checks, read_matrix, and the CLI's square-file check."""


class SingularMatrixError(RuntimeError):
    """Raised when an LU pivot falls below the singularity threshold."""


@dataclass
class CostLedger:
    """Running cost account for one computation.

    All three counters are plain ints, so charging a product is one integer
    add; products counts matrix-matrix products, lu_factorizations and
    lu_solves the Pade baseline's solver work.  The rational
    product-equivalent total (for instance 22/3 for the Pade pair) is built
    only when total_cost is read.
    """

    products: int = 0
    lu_factorizations: int = 0
    lu_solves: int = 0

    def charge_lu(self, solves: int) -> None:
        """Charge one factorization plus `solves` full solves against it."""
        if solves < 0:
            raise ValueError("cost counters only increase")
        self.lu_factorizations += 1
        self.lu_solves += solves

    @property
    def total_cost(self) -> Fraction:
        """Product-equivalent total: products + fact/3 + one per solve."""
        return Fraction(3 * (self.products + self.lu_solves)
                        + self.lu_factorizations, 3)


def as_matrix(a) -> DenseMatrix:
    """The one input rule of every evaluator: nonempty, square, real, finite.

    a is an array or nested sequences of real entries.  Ragged rows,
    anything not 2-D square, an empty matrix, complex, object or string
    entries, and an inf or NaN entry raise MatrixInputError.  The result
    is binary64: a bool matmul is logical, an int64 one wraps and a float32
    one rounds to single, so bool, integer and other float entries are
    converted.  It is C-ordered: numpy sums a Fortran-ordered column in
    another order, so norm1, and with it selection, would read another last
    bit.  C-ordered float64 input is returned itself, with no conversion
    step.  Finiteness is tested on the binary64 result.
    """
    ready = (type(a) is np.ndarray and a.dtype is _FLOAT64
             and a.flags.c_contiguous)
    if not ready:
        try:
            a = np.asarray(a)
        except ValueError as exc:
            raise MatrixInputError(
                f"ragged or non-numeric rows: {exc}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixInputError(f"matrix must be square, got shape {a.shape}")
    if a.dtype.kind not in "biuf":
        raise MatrixInputError(f"matrix entries must be real, got {a.dtype}")
    if a.size == 0:
        raise MatrixInputError(f"matrix must not be empty, got {a.shape}")
    if not ready:
        # a wider float past binary64 casts to inf, which the finiteness
        # test rejects; numpy's overflow warning would come first
        with np.errstate(over="ignore"):
            a = a.astype(np.float64, order="C", copy=False)
    if not np.isfinite(a).all():
        raise MatrixInputError("matrix entries must be finite")
    return a


def identity(n: int) -> DenseMatrix:
    return np.eye(n, dtype=np.float64)


def is_upper_triangular(a: DenseMatrix) -> bool:
    """True when square a, n >= _TRIANGULAR_MIN_N, is zero below its diagonal.

    The first subdiagonal is read first, so most dense input is turned down
    without a pass over its lower triangle.  The rest is read in panels of
    64 columns, each the strict lower triangle of its diagonal block and
    the rectangle below that block, so no n x n temporary is made.
    """
    n = a.shape[0]
    if n < _TRIANGULAR_MIN_N or np.diagonal(a, -1).any():
        return False
    for j in range(0, n, 64):
        if (np.tril(a[j:j + 64, j:j + 64], -1).any()
                or a[j + 64:, j:j + 64].any()):
            return False
    return True


def is_symmetric(a: DenseMatrix) -> bool:
    """True when square a, n >= _SYMMETRIC_MIN_N, equals its transpose.

    The first row is compared with the first column first, so most
    nonsymmetric input is turned down after 2n reads.  The rest is read in
    panels of 64 rows, each against the matching 64 columns, so no n x n
    temporary is made.
    """
    n = a.shape[0]
    if n < _SYMMETRIC_MIN_N or not np.array_equal(a[0], a[:, 0]):
        return False
    for j in range(0, n, 64):
        if not np.array_equal(a[j:j + 64, j:], a[j:, j:j + 64].T):
            return False
    return True


def structure_of(a: DenseMatrix) -> Structure:
    """The structure a call's kernels may use: UPPER when is_upper_triangular,
    else SYMMETRIC when is_symmetric, else DENSE."""
    if is_upper_triangular(a):
        return _UPPER
    if is_symmetric(a):
        return _SYMMETRIC
    return _DENSE


def matmul(
    a: DenseMatrix,
    b: DenseMatrix,
    ledger: CostLedger,
    *,
    structure: Structure,
    out: DenseMatrix | None = None,
) -> DenseMatrix:
    """Matrix product, charged to the ledger as one product unit per slab.

    b is one n x n matrix or a (k, n, n) stack, whose k products a @ b[i]
    are charged k and returned as one stack.  With out, the product is
    written there and out is returned.  DENSE is np.matmul: a stack is one
    call whose every slab has the bits of its own a @ b[i] (and with out,
    the same bits as without).  Otherwise a and b have the structure, and
    so does the product; it is charged 1 per slab all the same.  UPPER is
    _upper_product and SYMMETRIC _symmetric_product, written straight into
    an out that overlaps neither operand and copied into any other; a
    stack takes them slab by slab, a slab that is a itself as a square.
    """
    ledger.products += 1 if b.ndim == 2 else len(b)
    if structure is _DENSE:
        return np.matmul(a, b, out=out)
    if b.ndim == 2:
        return _structured(a, b, out, structure)
    if out is None:
        out = np.empty(b.shape)
    for slab, into in zip(b, out):
        _structured(a, a if _same_view(slab, a) else slab, into, structure)
    return out


def _structured(
    a: DenseMatrix, b: DenseMatrix, out: DenseMatrix | None,
    structure: Structure,
) -> DenseMatrix:
    # one product through structure's kernel, into out as matmul says
    kernel = _upper_product if structure is _UPPER else _symmetric_product
    if out is not None and (np.shares_memory(out, a)
                            or np.shares_memory(out, b)):
        out[...] = kernel(a, b, None)
        return out
    return kernel(a, b, out)


def _same_view(p: DenseMatrix, q: DenseMatrix) -> bool:
    # whether p and q read the same entries in the same layout
    return (p.__array_interface__["data"][0]
            == q.__array_interface__["data"][0]
            and p.strides == q.strides and p.shape == q.shape)


def _upper_product(
    a: DenseMatrix, b: DenseMatrix, out: DenseMatrix | None
) -> DenseMatrix:
    """a @ b for upper-triangular a and b, in out when given (out is then
    returned, and overlaps neither operand).

    The bandwidths of a product of band matrices add, so with w_a and w_b
    the operands' bandwidths (_bandwidth; a square's is read once), the
    rows r0:r1 of each panel of _PANEL rows end before column
    j = r1 + w_a + w_b.  Each square tile (r0:r1, c0:c1) from the diagonal
    (c0 = r0) up to j, the last one cut at j, is one GEMM,
    a[r0:r1, lo:hi] @ b[lo:hi, c0:c1], over the inner range
    lo = max(r0, c0 - w_b), hi = min(r1 + w_a, c1) outside which every
    term holds a zero of an operand, and the rest of the rows is +0.  A
    full triangle thus costs about n^3 / 3 flops, and no entry below the
    diagonal tiles is read.  Written straight into a C-contiguous out; any
    other out takes a copy, so every layout gets the same bits.
    """
    n = a.shape[0]
    width_a = _bandwidth(a)
    width_b = width_a if b is a else _bandwidth(b)
    c = out if out is not None and out.flags.c_contiguous else np.empty(
        a.shape)
    for r0 in range(0, n, _PANEL):
        r1 = min(n, r0 + _PANEL)
        i = min(n, r1 + width_a)
        j = min(n, i + width_b)
        c[r0:r1, :r0] = 0.0
        for c0 in range(r0, j, _PANEL):
            c1 = min(j, c0 + _PANEL)
            lo, hi = max(r0, c0 - width_b), min(i, c1)
            np.matmul(a[r0:r1, lo:hi], b[lo:hi, c0:c1], out=c[r0:r1, c0:c1])
        c[r0:r1, j:] = 0.0
    if out is not None and c is not out:
        out[...] = c
        return out
    return c


def _bandwidth(a: DenseMatrix) -> int:
    # The largest c - r over the nonzero entries a[r, c] of upper-triangular
    # a, or n - 1 at once when a is not C-contiguous or, from n = 2 _PANEL,
    # the top-right _PANEL x _PANEL tile holds a nonzero, as a full
    # triangle's does (below that n the tile reaches the diagonal, which
    # every banded matrix fills): a width past the true one only adds terms
    # that hold a zero to the tiled kernels' GEMMs.
    # The rest is read as one sheared view of row stride n + 1 whose column
    # j holds diagonal j: row r's entries from its diagonal on, followed by
    # row r + 1's zeros left of its diagonal, are n contiguous words.  It
    # stops one row short of the end of a, as the last row holds only
    # diagonal 0.  Each block of _SCAN_ROWS rows is ORed over its rows as
    # int64 words, as many columns as its first row has diagonals.  A word
    # other than +0 and -0 keeps a bit past the sign bit, so an inf or a
    # NaN counts as nonzero and -0.0 as zero.
    n = a.shape[0]
    if not a.flags.c_contiguous or (
            n >= 2 * _PANEL and a[:_PANEL, n - _PANEL:].any()):
        return n - 1
    step = (n + 1) * 8
    found = np.zeros(n, dtype=np.int64)
    for r0 in range(0, n - 1, _SCAN_ROWS):
        sheared = np.ndarray((min(_SCAN_ROWS, n - 1 - r0), n - r0), np.int64,
                             a, r0 * step, (step, 8))
        found[:n - r0] |= np.bitwise_or.reduce(sheared, axis=0)
    found <<= 1
    found[0] = 1  # a zero matrix has bandwidth 0
    return n - 1 - int(np.argmax(found[::-1] != 0))


def _symmetric_product(
    a: DenseMatrix, b: DenseMatrix, out: DenseMatrix | None
) -> DenseMatrix:
    """a @ b, exactly symmetric, for symmetric a and b that commute: a new
    C-contiguous array, or out when given (out overlaps neither operand).

    A square (a is b) is one dsyrk: a^T a on the transposed view, whose
    lower triangle in Fortran order is the upper one in C order, written
    straight into a C-contiguous out (as its Fortran-ordered transpose,
    with beta = 0, so what out held is not read) and copied into any other.
    Any other product forms its upper triangle in four row panels,
    a[i:i+h] @ b[:, i:], straight into out.  Either way _mirror_upper then
    copies the upper triangle into the lower one.
    """
    if a is b:
        from scipy.linalg.blas import dsyrk

        if out is not None and out.flags.c_contiguous:
            dsyrk(1.0, a.T, beta=0.0, c=out.T, lower=1, overwrite_c=1)
            c = out
        else:
            c = dsyrk(1.0, a.T, lower=1).T
            if out is not None:
                out[...] = c
                c = out
    else:
        n = a.shape[0]
        c = np.empty(a.shape) if out is None else out
        h = -(-n // 4)
        for i in range(0, n, h):
            np.matmul(a[i:i + h], b[:, i:], out=c[i:i + h, i:])
    _mirror_upper(c)
    return c


_MIRROR_LEAF = 64
_STRICT_LOWER = np.tri(_MIRROR_LEAF, k=-1, dtype=bool)


def _mirror_upper(m: DenseMatrix) -> None:
    # m's strict upper triangle copied into its strict lower one: the
    # off-diagonal half block as one transposed copy, the diagonal blocks
    # recursively, and a block of at most _MIRROR_LEAF through a mask
    # (copyto copies an overlapping source first)
    n = m.shape[0]
    if n <= _MIRROR_LEAF:
        np.copyto(m, m.T, where=_STRICT_LOWER[:n, :n])
        return
    h = n // 2
    m[h:, :h] = m[:h, h:].T
    _mirror_upper(m[:h, :h])
    _mirror_upper(m[h:, h:])


def norm1(a: DenseMatrix) -> float:
    """Induced 1-norm: max over columns of the sum of absolute entries."""
    if a.size == 0:
        return 0.0
    return float(np.maximum.reduce(np.add.reduce(np.abs(a), axis=0)))


def linear_combination(basis: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Every row of combinations of one basis stack, in one pass.

    basis is a (k, n, n) stack whose slab 0 is, by convention, the
    identity; block is an r x k float64 coefficient array.  Row i of the
    (r, n, n) result is the sum block[i, 0] basis[0] + ... +
    block[i, k-1] basis[k-1].  Never charged.

    From n = _GEMM_MIN_N the r rows are one GEMM, block against the stack
    read as a k x n^2 matrix.  BLAS may fuse and reorder the k terms of an
    entry, so each entry is within gamma_k sum_j |block[i, j]| |basis[j]|
    of the exact sum, gamma_k = k u / (1 - k u) with u = 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 3.1): the error
    bound the plain sum has too, though not its bits.

    Below _GEMM_MIN_N row i is the plain sum 0 + block[i, 0] basis[0] + ...,
    each product rounded and added in basis order, bit for bit, signed
    zeros included (a sum started from +0 never ends at -0).  One einsum
    forms all r rows: over a C-contiguous stack numpy's einsum walks the
    entries of a slab innermost and the basis index outside them, so it
    adds the terms of every entry in basis order with an unfused multiply
    and add.  A stack whose basis index is not outermost in memory is
    copied first: einsum would walk that index innermost, with its
    dot-product kernel, in another order.  So would it for n = 1, where a
    slab has one entry; there the terms are added one slab at a time.
    """
    basis = np.ascontiguousarray(basis)
    k, n = basis.shape[:2]
    if n >= _GEMM_MIN_N:
        return (block @ basis.reshape(k, n * n)).reshape(-1, n, n)
    if n == 1:
        out = np.zeros((block.shape[0], 1, 1))
        for j in range(k):
            out += block[:, j, None, None] * basis[j]
        return out
    return np.einsum("rk,kij->rij", block, basis)


def lu_solve_pair(
    denominator: DenseMatrix,
    rhs1: DenseMatrix,
    rhs2: DenseMatrix,
    ledger: CostLedger,
    *,
    structure: Structure,
) -> tuple[DenseMatrix, DenseMatrix]:
    """Solve denominator @ X_i = rhs_i for both right-hand sides.

    One LU factorization with partial pivoting is shared by the two solves,
    so the ledger is charged 1/3 + 2 = 2 + 1/3 product-equivalents.  A pivot
    smaller than 1e3 * eps * norm1(denominator) signals a denominator that is
    singular to working precision.

    LAPACK's dgetrf/dgetrs are called directly (the same routines, on the
    same arguments, as scipy.linalg.lu_factor/lu_solve, without their
    wrapper overhead), from scipy's LAPACK module as _lapack resolves it
    once, on the first solve, so that importing the package does not load
    scipy.linalg.  From n = _GEMM_MIN_N the factors
    are instead inverted in place by a blocked dgetri, given the optimal
    workspace (its default one runs unblocked), and each solve is one
    product with that inverse, charged as the solve it is.  The Pade
    denominator at the scaled operand is I + y/28 + ..., with
    ||y^2||^(1/2) at most about 0.02, close to the identity, so its inverse
    is as accurate as the two triangular solves (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 14).

    With UPPER, the C-contiguous denominator and both right-hand sides are
    upper triangular, and the denominator is not factored: partial
    pivoting never swaps the rows of an upper-triangular matrix, so its
    pivots are its diagonal.  Each solve is _upper_solve, both bounded by
    the denominator's bandwidth, read once.

    With SYMMETRIC, the denominator is symmetric positive definite and
    commutes with both symmetric right-hand sides.  It is factored by
    dpotrf, whose pivots are the squares of the Cholesky factor's
    diagonal (a pivot that is not positive stops it, and is the one
    read), inverted by dpotri, mirrored, and each solve is one
    _symmetric_product with that inverse.  Either way the ledger is
    charged as for the LU.
    """
    n = denominator.shape[0]
    threshold = 1e3 * _EPS * norm1(denominator)
    lapack = _lapack()
    if structure is _UPPER:
        small = np.abs(np.diagonal(denominator)).min()
    elif structure is _SYMMETRIC:
        # the Fortran-ordered lower factor of the transposed view is the
        # upper one of the C-ordered denominator
        factor, info = lapack.dpotrf(denominator.T, lower=1, clean=0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
        small = (factor[info - 1, info - 1] if info
                 else np.diagonal(factor).min() ** 2)
    else:
        lu, piv, info = lapack.dgetrf(denominator)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrf")
        small = np.abs(lu.diagonal()).min()
    if small <= threshold:
        raise SingularMatrixError(
            f"denominator singular to working precision (pivot {small:.3e}"
            f" <= {threshold:.3e})"
        )
    ledger.charge_lu(solves=2)
    if structure is _UPPER:
        width = _bandwidth(denominator)
        return (_upper_solve(denominator, rhs1, width),
                _upper_solve(denominator, rhs2, width))
    if structure is _SYMMETRIC:
        inverse, info = lapack.dpotri(factor, lower=1, overwrite_c=1)
        if info:
            raise ValueError(f"dpotri failed (info {info})")
        inverse = inverse.T
        _mirror_upper(inverse)
        return (_symmetric_product(inverse, rhs1, None),
                _symmetric_product(inverse, rhs2, None))
    if n >= _GEMM_MIN_N:
        work, _ = lapack.dgetri_lwork(n)
        inverse, info = lapack.dgetri(lu, piv, lwork=int(work),
                                      overwrite_lu=1)
        if info:
            raise ValueError(f"dgetri failed (info {info})")
        return np.matmul(inverse, rhs1), np.matmul(inverse, rhs2)
    x1, info1 = lapack.dgetrs(lu, piv, rhs1)
    x2, info2 = lapack.dgetrs(lu, piv, rhs2)
    if info1 or info2:
        raise ValueError(f"illegal argument to dgetrs (info {info1 or info2})")
    return x1, x2


@functools.cache
def _lapack():
    # scipy's LAPACK wrappers, imported on the first solve that needs them
    from scipy.linalg import lapack

    return lapack


def _upper_solve(d: DenseMatrix, r: DenseMatrix, width: int) -> DenseMatrix:
    """d^-1 r for upper-triangular d and r, as a new C-contiguous array.

    A blocked back-substitution on _upper_product's tiles, bottom panel
    first: each tile (r0:r1, c0:c1) right of the panel's diagonal tile
    takes r[r0:r1, c0:c1] - d[r0:r1, r1:hi] @ x[r1:hi, c0:c1], one GEMM
    over the rows of x below the panel that the tile's columns have, up to
    hi = min(c1, r1 + width) with width d's bandwidth (_bandwidth); then one
    dtrsm with d's diagonal block solves the whole panel.  It is backward
    stable as the unblocked substitution is (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 8).  d is read only in its upper triangle
    and r only from its diagonal tiles on; the rows left of the panel's
    diagonal tile are +0.
    """
    from scipy.linalg.blas import dtrsm

    n = d.shape[0]
    x = np.empty(d.shape)
    for r0 in reversed(range(0, n, _PANEL)):
        r1 = min(n, r0 + _PANEL)
        panel = r[r0:r1, r0:].copy()
        for c0 in range(r1, n, _PANEL):
            c1 = min(n, c0 + _PANEL)
            hi = min(c1, r1 + width)
            panel[:, c0 - r0:c1 - r0] -= d[r0:r1, r1:hi] @ x[r1:hi, c0:c1]
        # the transposed views: X^T D^T = P^T with D^T lower triangular,
        # solved in place on the Fortran-contiguous panel.T
        x[r0:r1, r0:] = dtrsm(1.0, d[r0:r1, r0:r1].T, panel.T, side=1,
                              lower=1, overwrite_b=1).T
        x[r0:r1, :r0] = 0.0
    return x


def read_matrix(path: str) -> DenseMatrix:
    """Read a matrix file: "rows cols" header, then one finite row a line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise MatrixInputError(f"{path}: empty file (line 1: missing header)")
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixInputError(
            f"{path}: line 1: header must be 'rows cols', got {lines[0]!r}"
        )
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixInputError(
            f"{path}: line 1: non-integer dimensions {lines[0]!r}"
        ) from None
    if rows <= 0 or cols <= 0:
        raise MatrixInputError(f"{path}: line 1: dimensions must be positive")
    if len(lines) - 1 != rows:
        raise MatrixInputError(
            f"{path}: expected {rows} data lines, found {len(lines) - 1}"
        )
    data = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != cols:
            raise MatrixInputError(
                f"{path}: line {i}: expected {cols} entries, found {len(parts)}"
            )
        try:
            data.append([float(p) for p in parts])
        except ValueError:
            raise MatrixInputError(
                f"{path}: line {i}: non-numeric entry"
            ) from None
        if not np.isfinite(data[-1]).all():
            raise MatrixInputError(f"{path}: line {i}: non-finite entry")
    return np.array(data)


def write_matrix(path: str, a: DenseMatrix) -> None:
    """Write a matrix in the same format read_matrix accepts."""
    rows, cols = a.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows} {cols}\n")
        for r in range(rows):
            fh.write(" ".join(repr(float(v)) for v in a[r]) + "\n")
