"""Dense real matrix arithmetic with product-cost instrumentation.

Every matrix-matrix product in this package flows through :func:`matmul` so
that the cost of a computation can be read off a :class:`CostLedger`
afterwards.  Additions and scalar multiplications are free, matching the
usual convention of counting only O(n^3) operations: one product costs 1,
an LU factorization 1/3, and each triangular solve against n right-hand
sides 1 (so a full inverse comes to 4/3).  The free work is done in bulk:
linear_combination forms all the combinations of one chain stage in one
call over a (k, n, n) basis stack, and matmul can write a product straight
into a slab of such a stack (out=).

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
side n^3 / 3 against n^3.  Below _SPLIT_MIN_N the product is one dtrmm,
which skips the left operand's zero triangle only (n^3 flops), and each
solve one dtrsm, which reads the right-hand side as dense (n^3 flops).
From _SPLIT_MIN_N both split at h = n // 2 into half blocks, the diagonal
blocks recursively and the off-diagonal block by dtrmm and dtrsm on the
halves, so they skip both operands' zero triangles (n^3 / 2 flops at one
split, tending to n^3 / 3 as the split deepens).  Below
_TRIANGULAR_MIN_N the triangular product saves too little, and no input
takes the triangular path.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import TypeAlias

import numpy as np

DenseMatrix: TypeAlias = np.ndarray

_EPS = float(np.finfo(np.float64).eps)

# Smallest n whose upper-triangular input takes the triangular kernels.  On
# a 2-core Xeon VM with one OpenBLAS thread (best of 15), a dtrmm took 0.98
# of an a @ b at n = 64, 0.93 at 80, 0.81 at 96 and 0.58-0.62 from 112 up;
# below 96 the saving does not repay the structure test.
_TRIANGULAR_MIN_N = 96

# Smallest n whose upper-triangular products and solves split into half
# blocks (_upper_product, _upper_solve); at 2 * _TRIANGULAR_MIN_N every
# block that does not split again is at least _TRIANGULAR_MIN_N.  On a
# 2-core Xeon VM with one OpenBLAS thread (best of 15 to 400 alternating
# runs), in multiples of one a @ b at the same n, one dtrmm against the
# split, and one solve pair as two whole dtrsm against the split:
#
#     n       96    128   192   256   384   512   1024
#     dtrmm   0.86  0.62  0.59  0.60  0.57  0.56  0.55
#     split   -     -     0.59  0.56  0.46  0.40  0.33
#     dtrsm   4.50  3.39  3.24  3.60  3.46  2.55  2.02
#     split   -     -     2.09  2.51  1.80  1.35  1.16
#
# Splitting 128 into 64-blocks took the product from 0.66 to 0.84.
_SPLIT_MIN_N = 192

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
    bit.  C-ordered float64 input is returned as it is, without a copy.
    Finiteness is tested on the binary64 result.
    """
    try:
        a = np.asarray(a)
    except ValueError as exc:
        raise MatrixInputError(f"ragged or non-numeric rows: {exc}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixInputError(f"matrix must be square, got shape {a.shape}")
    if a.dtype.kind not in "biuf":
        raise MatrixInputError(f"matrix entries must be real, got {a.dtype}")
    if a.size == 0:
        raise MatrixInputError(f"matrix must not be empty, got {a.shape}")
    # a wider float past binary64 casts to inf, which the finiteness test
    # rejects; numpy's overflow warning would come first
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
    """Matrix product, charged to the ledger as one product unit.

    With out, the product is written there and out is returned.  DENSE is
    np.matmul (with out, the same bits as a @ b).  Otherwise a and b have
    the structure, and so does the product; it is charged 1 all the same.
    UPPER is _upper_product and SYMMETRIC _symmetric_product, written
    straight into an out that overlaps neither operand and copied into any
    other.
    """
    ledger.products += 1
    if structure is _DENSE:
        return np.matmul(a, b, out=out)
    kernel = _upper_product if structure is _UPPER else _symmetric_product
    if out is not None and (np.shares_memory(out, a)
                            or np.shares_memory(out, b)):
        out[...] = kernel(a, b, None)
        return out
    return kernel(a, b, out)


def _upper_product(
    a: DenseMatrix, b: DenseMatrix, out: DenseMatrix | None
) -> DenseMatrix:
    """a @ b for upper-triangular a and b, in out when given (out is then
    returned, and overlaps neither operand).

    At h = n // 2, C11 = A11 B11 and C22 = A22 B22 recurse,
    C12 = A11 B12 + A12 B22 is two dtrmm on the half blocks (a's diagonal
    block on the left of one, b's on the right of the other) and C21 is
    +0.  A block below _SPLIT_MIN_N is one dtrmm on the transposed views:
    AB = (B^T A^T)^T, and the transposes of C-contiguous operands are
    Fortran-contiguous with A^T lower triangular.  Without out that block
    is returned as the dtrmm made it, not copied.  scipy's wrapper copies
    each block view it is given that is not Fortran-contiguous: O(n^2)
    per level.
    """
    from scipy.linalg.blas import dtrmm

    n = a.shape[0]
    if n < _SPLIT_MIN_N:
        c = dtrmm(1.0, a.T, b.T, side=1, lower=1).T
        if out is None:
            return c
        out[...] = c
        return out
    if out is None:
        out = np.empty(a.shape)
    h = n // 2
    _upper_product(a[:h, :h], b[:h, :h], out[:h, :h])
    _upper_product(a[h:, h:], b[h:, h:], out[h:, h:])
    np.add(dtrmm(1.0, a[:h, :h].T, b[:h, h:].T, side=1, lower=1).T,
           dtrmm(1.0, b[h:, h:].T, a[:h, h:].T, side=0, lower=1).T,
           out=out[:h, h:])
    out[h:, :h] = 0.0
    return out


def _symmetric_product(
    a: DenseMatrix, b: DenseMatrix, out: DenseMatrix | None
) -> DenseMatrix:
    """a @ b, exactly symmetric, for symmetric a and b that commute: a new
    C-contiguous array, or out when given (out overlaps neither operand).

    A square (a is b) is one dsyrk: a^T a on the transposed view, whose
    lower triangle in Fortran order is the upper one in C order, copied
    into out when given (no square of a chain is written into a slab).
    Any other product forms its upper triangle in four row panels,
    a[i:i+h] @ b[:, i:], straight into out.  Either way _mirror_upper then
    copies the upper triangle into the lower one.
    """
    if a is b:
        from scipy.linalg.blas import dsyrk

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
    wrapper overhead), and imported on first use so that importing the
    package does not load scipy.linalg.  From n = _GEMM_MIN_N the factors
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
    pivots are its diagonal.  Each solve is _upper_solve.

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
    if structure is _UPPER:
        small = np.abs(np.diagonal(denominator)).min()
    elif structure is _SYMMETRIC:
        from scipy.linalg.lapack import dpotrf, dpotri

        # the Fortran-ordered lower factor of the transposed view is the
        # upper one of the C-ordered denominator
        factor, info = dpotrf(denominator.T, lower=1, clean=0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
        small = (factor[info - 1, info - 1] if info
                 else np.diagonal(factor).min() ** 2)
    else:
        from scipy.linalg.lapack import dgetrf, dgetri, dgetri_lwork, dgetrs

        lu, piv, info = dgetrf(denominator)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrf")
        small = np.abs(np.diag(lu)).min()
    if small <= threshold:
        raise SingularMatrixError(
            f"denominator singular to working precision (pivot {small:.3e}"
            f" <= {threshold:.3e})"
        )
    ledger.charge_lu(solves=2)
    if structure is _UPPER:
        return (_upper_solve(denominator, rhs1),
                _upper_solve(denominator, rhs2))
    if structure is _SYMMETRIC:
        inverse, info = dpotri(factor, lower=1, overwrite_c=1)
        if info:
            raise ValueError(f"dpotri failed (info {info})")
        inverse = inverse.T
        _mirror_upper(inverse)
        return (_symmetric_product(inverse, rhs1, None),
                _symmetric_product(inverse, rhs2, None))
    if n >= _GEMM_MIN_N:
        work, _ = dgetri_lwork(n)
        inverse, info = dgetri(lu, piv, lwork=int(work), overwrite_lu=1)
        if info:
            raise ValueError(f"dgetri failed (info {info})")
        return np.matmul(inverse, rhs1), np.matmul(inverse, rhs2)
    x1, info1 = dgetrs(lu, piv, rhs1)
    x2, info2 = dgetrs(lu, piv, rhs2)
    if info1 or info2:
        raise ValueError(f"illegal argument to dgetrs (info {info1 or info2})")
    return x1, x2


def _upper_solve(
    d: DenseMatrix, r: DenseMatrix, out: DenseMatrix | None = None
) -> DenseMatrix:
    """d^-1 r for upper-triangular d and r, in out when given (out is then
    returned).

    The blocks are _upper_product's: X22 = D22^-1 R22 and X11 = D11^-1 R11
    recurse, X12 = D11^-1 (R12 - D12 X22) is one dtrmm (X22 on the right)
    and one dtrsm, and X21 is +0.  A block below _SPLIT_MIN_N is one dtrsm,
    X^T = R^T (D^T)^-1 on _upper_product's transposed views, returned
    without a copy when out is not given.
    """
    from scipy.linalg.blas import dtrmm, dtrsm

    n = d.shape[0]
    if n < _SPLIT_MIN_N:
        x = dtrsm(1.0, d.T, r.T, side=1, lower=1).T
        if out is None:
            return x
        out[...] = x
        return out
    if out is None:
        out = np.empty(d.shape)
    h = n // 2
    x22 = _upper_solve(d[h:, h:], r[h:, h:], out[h:, h:])
    _upper_solve(d[:h, :h], r[:h, :h], out[:h, :h])
    rest = r[:h, h:] - dtrmm(1.0, x22.T, d[:h, h:].T, side=0, lower=1).T
    out[:h, h:] = dtrsm(1.0, d[:h, :h].T, rest.T, side=1, lower=1,
                        overwrite_b=1).T
    out[h:, :h] = 0.0
    return out


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
