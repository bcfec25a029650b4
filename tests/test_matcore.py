"""Dense-matrix substrate: construction, products, ledger, file IO."""

from fractions import Fraction

import numpy as np
import pytest

from cossinm import matcore
from cossinm.matcore import (
    CostLedger,
    MatrixInputError,
    SingularMatrixError,
    identity,
    is_upper_triangular,
    linear_combination,
    lu_solve_pair,
    matmul,
    matrix_from_rows,
    norm1,
    read_matrix,
    write_matrix,
)


def _slow_matmul(a, b):
    """Triple-loop product, the oracle matmul is checked against."""
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for t in range(inner):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def test_matrix_from_rows_values():
    m = matrix_from_rows([[1.0, 2.0], [3.0, 4.0]])
    assert m.shape == (2, 2)
    assert m[1, 0] == 3.0


def test_matrix_from_rows_rejects_ragged():
    with pytest.raises(MatrixInputError):
        matrix_from_rows([[1.0, 2.0], [3.0]])


def test_matrix_from_rows_rejects_nonfinite():
    with pytest.raises(MatrixInputError):
        matrix_from_rows([[1.0, float("nan")]])
    with pytest.raises(MatrixInputError):
        matrix_from_rows([[float("inf")]])


def test_matrix_from_rows_rejects_empty():
    with pytest.raises(MatrixInputError):
        matrix_from_rows([])


def test_identity():
    eye = identity(3)
    assert np.array_equal(eye, np.eye(3))


@pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 7)])
def test_matmul_matches_slow_loop(rng, shape):
    a = rng.standard_normal(shape)
    b = rng.standard_normal((shape[1], 4))
    got = matmul(a, b, CostLedger())
    want = _slow_matmul(a, b)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_matmul_charges_one_product_each():
    ledger = CostLedger()
    a = identity(2)
    matmul(a, a, ledger)
    matmul(a, a, ledger)
    assert ledger.total_cost == Fraction(2)


def test_matmul_inner_dimension_mismatch():
    with pytest.raises(MatrixInputError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)), CostLedger())


def _upper_pair(rng, n):
    """A full upper triangle and an upper bidiagonal (Jordan-like) matrix."""
    jordan = np.diag(rng.uniform(-1.0, 1.0, n)) + np.eye(n, k=1)
    return np.triu(rng.standard_normal((n, n))), jordan


def test_upper_triangular_predicate(rng):
    n = matcore._TRIANGULAR_MIN_N
    for a in _upper_pair(rng, n):
        assert is_upper_triangular(a)
        assert not is_upper_triangular(a[1:, 1:])  # below the crossover
        for i, j in ((1, 0), (n - 1, 0), (n - 1, n - 3)):
            b = a.copy()
            b[i, j] = 5e-324
            assert not is_upper_triangular(b)
    assert not is_upper_triangular(rng.standard_normal((n, n)))


def test_upper_matmul_matches_the_dense_product(rng):
    n = 2 * matcore._TRIANGULAR_MIN_N
    triu, jordan = _upper_pair(rng, n)
    for a, b in ((triu, jordan), (jordan, triu), (triu, triu)):
        ledger = CostLedger()
        got = matmul(a, b, ledger, upper=True)
        want = a @ b
        bound = n * 2.0 ** -53 * norm1(a) * norm1(b)
        assert norm1(got - want) <= bound
        assert not np.tril(got, -1).any()
        assert got.flags.c_contiguous
        assert ledger.products == 1 and ledger.total_cost == Fraction(1)


@pytest.mark.parametrize("upper", [False, True])
def test_matmul_out_writes_the_product_into_a_slab(rng, upper):
    n = matcore._TRIANGULAR_MIN_N
    a, b = _upper_pair(rng, n)
    stack = np.full((3, n, n), np.nan)
    ledger = CostLedger()
    got = matmul(a, b, ledger, upper=upper, out=stack[1])
    assert np.shares_memory(got, stack[1])
    want = matmul(a, b, CostLedger(), upper=upper)
    assert stack[1].tobytes() == want.tobytes()
    assert np.isnan(stack[[0, 2]]).all()
    assert ledger.products == 1


@pytest.mark.parametrize("into", ["a", "b", "strided"])
def test_upper_matmul_into_an_operand_or_a_strided_out(rng, into):
    # out overlapping a, or not C-contiguous, takes a copy of the result;
    # out = b takes the in-place path on b itself
    n = matcore._TRIANGULAR_MIN_N
    a, b = _upper_pair(rng, n)
    want = matmul(a, b, CostLedger(), upper=True)
    if into == "strided":
        out = np.empty((n, 2 * n))[:, ::2]
    else:
        out = {"a": a, "b": b}[into]
    got = matmul(a, b, CostLedger(), upper=True, out=out)
    assert got is out
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_norm1_is_max_column_sum(rng):
    m = matrix_from_rows([[1.0, -2.0], [3.0, 0.5]])
    assert norm1(m) == 4.0
    r = rng.standard_normal((6, 6))
    assert norm1(r) == pytest.approx(np.abs(r).sum(axis=0).max(), rel=1e-15)


def test_norm1_zero_matrix():
    assert norm1(np.zeros((3, 3))) == 0.0


def test_linear_combination_exact_and_unpriced():
    ledger = CostLedger()
    eye = identity(2)
    m = matrix_from_rows([[0.0, 1.0], [1.0, 0.0]])
    got = linear_combination(np.stack([eye, m]), np.array([[1.0, -2.0]]))
    assert got.shape == (1, 2, 2)
    assert np.array_equal(got[0], eye - 2.0 * m)
    assert ledger.total_cost == Fraction(0)


def _plain_sums(basis, block):
    """Each row's zero-started sum, one rounded product added at a time."""
    rows = []
    for row in block:
        out = np.zeros(basis.shape[1:])
        for c, m in zip(row, basis):
            out += c * m
        rows.append(out)
    return np.array(rows)


@pytest.mark.parametrize("diag", [0.0, 1.0, -0.5])
def test_linear_combination_is_the_zero_started_sum_bit_for_bit(rng, diag):
    # the identity slab comes first, so its coefficient diag is the first
    # term; -0.0 products too: a sum started from zeros turns them into +0.0
    for n in (1, 4, 9):
        m1 = rng.standard_normal((n, n))
        m1[0, -1] = 0.0
        basis = np.stack([np.eye(n), m1, -m1, m1])
        block = np.array([[diag, -3.0, 1.0, -0.25], [diag, 0.0, 1.0, 0.0]])
        got = linear_combination(basis, block)
        assert got.tobytes() == _plain_sums(basis, block).tobytes()
        if n > 1:
            assert not np.signbit(got[:, 0, -1]).any()
        assert np.array_equal(np.diagonal(got[1]),
                              np.diagonal(diag - m1))


def test_linear_combination_matches_the_plain_sum_at_every_stage_shape(rng):
    # the chains' stages have r <= 4 rows over k <= 6 slabs; every slab
    # mixes magnitudes 1e-8..1e8 and signed zeros, and some coefficients
    # are 0 or 1, as in the stage blocks
    for n in (1, 2, 3, 5, 8, 16, 33):
        for k in range(1, 7):
            for r in range(1, 5):
                basis = rng.standard_normal((k, n, n))
                basis *= 10.0 ** rng.integers(-8, 9, (k, 1, 1))
                basis[rng.random(basis.shape) < 0.1] = -0.0
                basis[0] = np.eye(n)
                block = rng.standard_normal((r, k))
                block[rng.random(block.shape) < 0.2] = 0.0
                block[rng.random(block.shape) < 0.2] = 1.0
                got = linear_combination(basis, block)
                want = _plain_sums(basis, block)
                assert got.tobytes() == want.tobytes(), (n, k, r)


def test_linear_combination_keeps_the_order_on_any_memory_layout(rng):
    # stacks laid out with the basis index innermost, and transposed
    # blocks, give the bits of the plain sums all the same
    for n in (2, 5, 9):
        for k in (3, 6):
            basis = rng.standard_normal((k, n, n))
            basis *= 10.0 ** rng.integers(-8, 9, (k, 1, 1))
            basis[0] = np.eye(n)
            block = rng.standard_normal((4, k))
            want = _plain_sums(basis, block)
            strided = np.moveaxis(np.moveaxis(basis, 0, 2).copy(), 2, 0)
            assert not strided.flags.c_contiguous
            for got in (linear_combination(strided, block),
                        linear_combination(basis, np.asfortranarray(block))):
                assert got.tobytes() == want.tobytes(), (n, k)


def test_linear_combination_needs_a_stack_of_square_slabs():
    # slab 0 is the identity, so the slabs must be square
    with pytest.raises(MatrixInputError, match="square"):
        linear_combination(np.ones((2, 2, 3)), np.ones((1, 2)))
    with pytest.raises(MatrixInputError, match="square"):
        linear_combination(np.ones((2, 3)), np.ones((1, 2)))
    assert linear_combination(np.ones((2, 3, 3)),
                              np.ones((1, 2))).shape == (1, 3, 3)


def test_cost_ledger_counts_products_as_an_int():
    ledger = CostLedger()
    a = identity(2)
    for _ in range(3):
        matmul(a, a, ledger)
    assert type(ledger.products) is int and ledger.products == 3
    assert isinstance(ledger.total_cost, Fraction)


def test_linear_combination_rejects_empty_and_mismatch():
    basis = np.stack([identity(2), identity(2)])
    with pytest.raises(MatrixInputError):
        linear_combination(basis, np.ones((0, 2)))
    with pytest.raises(MatrixInputError):
        linear_combination(basis, np.ones((1, 3)))
    with pytest.raises(MatrixInputError):
        linear_combination(basis, np.ones(2))


def test_cost_ledger_totals():
    ledger = CostLedger()
    assert ledger.total_cost == Fraction(0)
    ledger.products += 3
    ledger.charge_lu(solves=2)
    # 3 products + one factorization at 1/3 + two solves at 1 each
    assert ledger.total_cost == Fraction(16, 3)


def test_lu_solve_pair_residuals(rng):
    den = identity(5) + 0.1 * rng.standard_normal((5, 5))
    rhs1 = rng.standard_normal((5, 5))
    rhs2 = rng.standard_normal((5, 5))
    ledger = CostLedger()
    x1, x2 = lu_solve_pair(den, rhs1, rhs2, ledger)
    assert np.max(np.abs(den @ x1 - rhs1)) <= 1e-12
    assert np.max(np.abs(den @ x2 - rhs2)) <= 1e-12
    assert ledger.total_cost == Fraction(7, 3)


def test_upper_lu_solve_pair_residuals(rng):
    n = 2 * matcore._TRIANGULAR_MIN_N
    den = identity(n) + 0.1 * np.triu(rng.standard_normal((n, n))) / n
    rhs1, rhs2 = _upper_pair(rng, n)
    ledger = CostLedger()
    x1, x2 = lu_solve_pair(den, rhs1, rhs2, ledger, upper=True)
    assert np.max(np.abs(den @ x1 - rhs1)) <= 1e-12
    assert np.max(np.abs(den @ x2 - rhs2)) <= 1e-12
    assert ledger.total_cost == Fraction(7, 3)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_upper_lu_solve_pair_detects_a_zero_diagonal_entry():
    den = matrix_from_rows([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0],
                            [0.0, 0.0, 4.0]])
    messages = []
    for upper in (False, True):
        with pytest.raises(SingularMatrixError, match="singular") as err:
            lu_solve_pair(den, identity(3), identity(3), CostLedger(),
                          upper=upper)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_lu_solve_pair_detects_singular():
    den = matrix_from_rows([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError, match="singular"):
        lu_solve_pair(den, identity(2), identity(2), CostLedger())


def test_lu_solve_pair_rejects_empty_denominator():
    empty = np.zeros((0, 0))
    with pytest.raises(SingularMatrixError):
        lu_solve_pair(empty, empty, empty, CostLedger())


def test_write_read_roundtrip(tmp_path, rng):
    path = str(tmp_path / "m.mat")
    m = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-200, 200)
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(back, m)


MALFORMED = [
    ("", "empty file"),
    ("bogus\n", "line 1"),
    ("2 x\n", "non-integer"),
    ("0 3\n", "positive"),
    ("2 2\n1 2\n", "expected 2 data lines"),
    ("1 3\n1 2\n", "line 2"),
    ("1 2\n1 zz\n", "non-numeric"),
]


@pytest.mark.parametrize("content,needle", MALFORMED)
def test_read_matrix_diagnostics_name_the_line(tmp_path, content, needle):
    path = tmp_path / "bad.mat"
    path.write_text(content)
    with pytest.raises(MatrixInputError) as err:
        read_matrix(str(path))
    assert needle in str(err.value)
    assert str(path) in str(err.value)
