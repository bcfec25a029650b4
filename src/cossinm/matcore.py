"""Dense real matrix arithmetic with product-cost instrumentation.

Every matrix-matrix product in this package flows through :func:`matmul` so
that the cost of a computation can be read off a :class:`CostLedger`
afterwards.  Additions and scalar multiplications are free, matching the
usual convention of counting only O(n^3) operations: one product costs 1,
an LU factorization 1/3, and each triangular solve against n right-hand
sides 1 (so a full inverse comes to 4/3).

The module also fixes the external matrix file format used by the CLI:
a header line ``rows cols`` followed by ``rows`` lines of ``cols``
whitespace-separated decimal reals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TypeAlias

import numpy as np

DenseMatrix: TypeAlias = np.ndarray
Scalar: TypeAlias = float

_EPS = float(np.finfo(np.float64).eps)


class MatrixInputError(ValueError):
    """Raised for malformed external matrix input (shape, parse, non-finite)."""


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

    def charge_product(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("cost counters only increase")
        self.products += count

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


def matrix_from_rows(rows: Sequence[Sequence[float]]) -> DenseMatrix:
    """Build a validated matrix from nested sequences of reals.

    This is the construction path for external input: ragged rows, empty
    dimensions and non-finite entries are rejected.
    """
    try:
        a = np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise MatrixInputError(f"ragged or non-numeric rows: {exc}") from None
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise MatrixInputError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise MatrixInputError("matrix entries must be finite")
    return a


def identity(n: int) -> DenseMatrix:
    return np.eye(n, dtype=np.float64)


def matmul(a: DenseMatrix, b: DenseMatrix, ledger: CostLedger) -> DenseMatrix:
    """Matrix product, charged to the ledger as one product unit."""
    if a.shape[1] != b.shape[0]:
        raise MatrixInputError(
            f"inner dimensions differ: {a.shape} x {b.shape}"
        )
    ledger.products += 1
    return a @ b


def norm1(a: DenseMatrix) -> float:
    """Induced 1-norm: max over columns of the sum of absolute entries."""
    if a.size == 0:
        return 0.0
    return float(np.maximum.reduce(np.add.reduce(np.abs(a), axis=0)))


def linear_combination(
    terms: Sequence[tuple[Scalar, DenseMatrix]],
    diag: Scalar = 0.0,
) -> DenseMatrix:
    """diag * I plus the float multiples c * m of same-shape matrices.

    The sum starts from zeros with diag written on the diagonal, then adds
    the terms in the order given into that one output buffer.  This is the
    arithmetic of the plain sum (0 + diag * I) + c_1 m_1 + c_2 m_2 + ...
    bit for bit, signed zeros included: passing the identity term of a
    combination as diag, when it comes first, changes no output bit.
    Multiples are formed in one scratch buffer reused across terms, and a
    coefficient of exactly 1 adds its matrix directly.  Never charged.
    """
    if not terms:
        raise MatrixInputError("empty linear combination")
    shape = terms[0][1].shape
    out = np.zeros(shape, dtype=np.float64)
    if diag:
        if shape[0] != shape[1]:
            raise MatrixInputError(
                f"diagonal start needs square terms, got shape {shape}"
            )
        out.ravel()[:: shape[0] + 1] = diag
    scratch = None
    for c, m in terms:
        if m.shape != shape:
            raise MatrixInputError(
                f"shape mismatch in linear combination: {m.shape} vs {shape}"
            )
        if c == 1.0:
            out += m
            continue
        if scratch is None:
            scratch = np.empty(shape, dtype=np.float64)
        np.multiply(m, c, out=scratch)
        out += scratch
    return out


def lu_solve_pair(
    denominator: DenseMatrix,
    rhs1: DenseMatrix,
    rhs2: DenseMatrix,
    ledger: CostLedger,
) -> tuple[DenseMatrix, DenseMatrix]:
    """Solve denominator @ X_i = rhs_i for both right-hand sides.

    One LU factorization with partial pivoting is shared by the two solves,
    so the ledger is charged 1/3 + 2 = 2 + 1/3 product-equivalents.  A pivot
    smaller than 1e3 * eps * norm1(denominator) signals a denominator that is
    singular to working precision.

    LAPACK's dgetrf/dgetrs are called directly (the same routines, on the
    same arguments, as scipy.linalg.lu_factor/lu_solve, without their
    wrapper overhead), and imported on first use so that importing the
    package does not load scipy.linalg.
    """
    from scipy.linalg.lapack import dgetrf, dgetrs

    n = denominator.shape[0]
    if denominator.shape != (n, n):
        raise MatrixInputError("denominator must be square")
    threshold = 1e3 * _EPS * norm1(denominator)
    small = 0.0
    if n:
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
    x1, info1 = dgetrs(lu, piv, rhs1)
    x2, info2 = dgetrs(lu, piv, rhs2)
    if info1 or info2:
        raise ValueError(f"illegal argument to dgetrs (info {info1 or info2})")
    return x1, x2


def read_matrix(path: str) -> DenseMatrix:
    """Read a matrix file: "rows cols" header, then one line per row."""
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
    try:
        return matrix_from_rows(data)
    except MatrixInputError as exc:
        raise MatrixInputError(f"{path}: {exc}") from None


def write_matrix(path: str, a: DenseMatrix) -> None:
    """Write a matrix in the same format read_matrix accepts."""
    rows, cols = a.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows} {cols}\n")
        for r in range(rows):
            fh.write(" ".join(repr(float(v)) for v in a[r]) + "\n")
