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
    got = linear_combination([(1.0, eye), (-2.0, m)])
    assert np.array_equal(got, eye - 2.0 * m)
    assert ledger.total_cost == Fraction(0)


@pytest.mark.parametrize("diag", [0.0, 1.0, -0.5])
def test_linear_combination_is_the_zero_started_sum_bit_for_bit(rng, diag):
    # -0.0 products too: a sum started from zeros turns them into +0.0
    m1 = rng.standard_normal((4, 4))
    m1[0, 1] = 0.0
    terms = [(-3.0, m1), (1.0, -m1), (-0.25, m1)]
    want = np.zeros((4, 4)) + diag * np.eye(4)
    for c, m in terms:
        want += c * m
    got = linear_combination(terms, diag)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[0, 1])


def test_linear_combination_diag_needs_square_terms():
    with pytest.raises(MatrixInputError, match="square"):
        linear_combination([(1.0, np.ones((2, 3)))], diag=1.0)
    assert linear_combination([(1.0, np.ones((2, 3)))]).shape == (2, 3)


def test_cost_ledger_counts_products_as_an_int():
    ledger = CostLedger()
    a = identity(2)
    for _ in range(3):
        matmul(a, a, ledger)
    assert type(ledger.products) is int and ledger.products == 3
    assert isinstance(ledger.total_cost, Fraction)


def test_linear_combination_rejects_empty_and_mismatch():
    with pytest.raises(MatrixInputError):
        linear_combination([])
    with pytest.raises(MatrixInputError):
        linear_combination([(1.0, identity(2)), (1.0, identity(3))])


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
