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

The ledger counts products, not flops.  An upper-triangular operand, the
form a Schur factor takes, keeps every polynomial and rational function of
it upper triangular, so the driver tests its input once
(is_upper_triangular) into the call's one schemes.MatrixAlgebra, which
passes upper=True to the kernels: matmul then makes one triangular BLAS
product (dtrmm, about half the flops of a dense one) and lu_solve_pair
triangular solves (dtrsm) without an LU.  Each is still charged as before.
Below _TRIANGULAR_MIN_N the triangular product saves too little, and no
input takes the triangular path.

Input is checked once, at the public boundary: as_matrix in every
evaluator (shape, real entries, finiteness), and read_matrix for the CLI's
matrix files (a header line ``rows cols``, then ``rows`` lines of ``cols``
finite decimal reals).  The kernels (matmul, linear_combination,
lu_solve_pair) take the shapes the chains build and do not test them
again; numpy or LAPACK raises on a bug.
"""

from __future__ import annotations

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
    a = a.astype(np.float64, order="C", copy=False)
    if not np.isfinite(a).all():
        raise MatrixInputError("matrix entries must be finite")
    return a


def identity(n: int) -> DenseMatrix:
    return np.eye(n, dtype=np.float64)


def is_upper_triangular(a: DenseMatrix) -> bool:
    """True when square a, n >= _TRIANGULAR_MIN_N, is zero below its diagonal.

    The first subdiagonal is read first, so most dense input is turned down
    without a pass over its lower triangle.
    """
    return (a.shape[0] >= _TRIANGULAR_MIN_N
            and not np.diagonal(a, -1).any() and not np.tril(a, -1).any())


def matmul(
    a: DenseMatrix,
    b: DenseMatrix,
    ledger: CostLedger,
    *,
    upper: bool = False,
    out: DenseMatrix | None = None,
) -> DenseMatrix:
    """Matrix product, charged to the ledger as one product unit.

    With out, the product is written there (np.matmul's out, the same bits
    as a @ b) and out is returned.  With upper, a is upper triangular (its
    lower part is not read) and the product is one dtrmm, imported on first
    use; it is charged 1 all the same.  A C-contiguous float64 out that
    does not overlap a takes a copy of b, which the dtrmm overwrites in
    place; any other out gets a copy of the result.
    """
    ledger.products += 1
    if upper:
        from scipy.linalg.blas import dtrmm

        # AB = (B^T A^T)^T: the transposes of C-contiguous operands are
        # Fortran-contiguous, so neither is reordered (B^T is copied once,
        # into the result or into out), and A^T is lower triangular
        if out is None:
            return dtrmm(1.0, a.T, b.T, side=1, lower=1).T
        if (out.dtype == np.float64 and out.flags.c_contiguous
                and not np.shares_memory(out, a)):
            out[...] = b
            dtrmm(1.0, a.T, out.T, side=1, lower=1, overwrite_b=1)
        else:
            out[...] = dtrmm(1.0, a.T, b.T, side=1, lower=1).T
        return out
    return np.matmul(a, b, out=out)


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
    upper: bool,
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

    With upper, the C-contiguous denominator is upper triangular and is not
    factored: partial pivoting never swaps the rows of an upper-triangular
    matrix, so its pivots are its diagonal, and one dtrsm per right-hand
    side solves against it.  The ledger is charged as for the LU.
    """
    n = denominator.shape[0]
    threshold = 1e3 * _EPS * norm1(denominator)
    if upper:
        small = np.abs(np.diagonal(denominator)).min()
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
    if upper:
        from scipy.linalg.blas import dtrsm

        # X = D^-1 R as X^T = R^T (D^T)^-1, on the same transposed views
        # as matmul's, so each X comes back C-contiguous
        return tuple(dtrsm(1.0, denominator.T, rhs.T, side=1, lower=1).T
                     for rhs in (rhs1, rhs2))
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
