"""Dense-matrix substrate: construction, products, ledger, file IO."""

from fractions import Fraction

import numpy as np
import pytest

from cossinm import matcore, verify
from cossinm.matcore import (
    CostLedger,
    MatrixInputError,
    SingularMatrixError,
    identity,
    is_upper_triangular,
    linear_combination,
    lu_solve_pair,
    matmul,
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


def _upper_pair(rng, n):
    """A full upper triangle and an upper bidiagonal (Jordan-like) matrix."""
    jordan = np.diag(rng.uniform(-1.0, 1.0, n)) + np.eye(n, k=1)
    return np.triu(rng.standard_normal((n, n))), jordan


# Sizes on the triangular path: below the split, odd and split once (into
# halves of 96 and 97), and split twice (384 into 192 into 96)
_SPLIT_SIZES = (matcore._TRIANGULAR_MIN_N, matcore._SPLIT_MIN_N + 1,
                2 * matcore._SPLIT_MIN_N)


def test_upper_triangular_predicate(rng):
    n = matcore._TRIANGULAR_MIN_N
    for a in _upper_pair(rng, n):
        assert is_upper_triangular(a)
        assert not is_upper_triangular(a[1:, 1:])  # below the crossover
        # the first subdiagonal, below the first panel, inside the first
        # and the last panel's diagonal blocks
        for i, j in ((1, 0), (n - 1, 0), (40, 20), (n - 1, n - 3)):
            b = a.copy()
            b[i, j] = 5e-324
            assert not is_upper_triangular(b)
    assert not is_upper_triangular(rng.standard_normal((n, n)))


def test_upper_matmul_matches_the_dense_product(rng):
    from scipy.linalg.blas import dtrmm

    for n in _SPLIT_SIZES:
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
            if n < matcore._SPLIT_MIN_N:
                single = dtrmm(1.0, a.T, b.T, side=1, lower=1).T
                assert got.tobytes() == single.tobytes()


@pytest.mark.parametrize("upper", [False, True])
def test_matmul_out_writes_the_product_into_a_slab(rng, upper):
    for n in _SPLIT_SIZES:
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
    # below the split, out overlapping a, or not C-contiguous, takes a copy
    # of the result, and out = b takes the in-place path on b itself; from
    # the split, out overlapping either operand takes a copy, and a strided
    # out is written block by block
    for n in _SPLIT_SIZES:
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
    m = np.array([[1.0, -2.0], [3.0, 0.5]])
    assert norm1(m) == 4.0
    r = rng.standard_normal((6, 6))
    assert norm1(r) == pytest.approx(np.abs(r).sum(axis=0).max(), rel=1e-15)


def test_norm1_zero_matrix():
    assert norm1(np.zeros((3, 3))) == 0.0


def test_linear_combination_exact_and_unpriced():
    ledger = CostLedger()
    eye = identity(2)
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
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


def _stage(rng, n, k, r):
    """A stage's operands: the identity and k - 1 slabs of magnitudes
    1e-8..1e8 with signed zeros, and an r x k block with some coefficients
    0 or 1, as in the stage blocks."""
    basis = rng.standard_normal((k, n, n))
    basis *= 10.0 ** rng.integers(-8, 9, (k, 1, 1))
    basis[rng.random(basis.shape) < 0.1] = -0.0
    basis[0] = np.eye(n)
    block = rng.standard_normal((r, k))
    block[rng.random(block.shape) < 0.2] = 0.0
    block[rng.random(block.shape) < 0.2] = 1.0
    return basis, block


def test_linear_combination_matches_the_plain_sum_at_every_stage_shape(rng):
    # the chains' stages have r <= 4 rows over k <= 6 slabs; n = 1 takes
    # the slab-at-a-time loop, the rest the einsum, up to the last size
    # below the GEMM crossover
    for n in (1, 2, 3, 5, 8, 16, 33, matcore._GEMM_MIN_N - 1):
        for k in range(1, 7):
            for r in range(1, 5):
                basis, block = _stage(rng, n, k, r)
                got = linear_combination(basis, block)
                want = _plain_sums(basis, block)
                assert got.tobytes() == want.tobytes(), (n, k, r)


def _double_double_sums(basis, block):
    """Each row's sum as a double-double (hi, lo), to about u^2 of its
    magnitude: every product is split exactly into two doubles."""
    rows = []
    for row in block:
        hi = lo = np.zeros(basis.shape[1:])
        for c, m in zip(row, basis):
            hi, lo = verify._dd_add(hi, lo, *verify._two_prod(c, m))
        rows.append((hi, lo))
    return rows


@pytest.mark.parametrize("n", [matcore._GEMM_MIN_N, 256])
def test_linear_combination_from_the_gemm_crossover_keeps_the_sum_bound(
        rng, n):
    # |got - sum| <= gamma_k sum_j |c_j| |B_j| entrywise, gamma_k = k u /
    # (1 - k u), on every stage shape; the reference's own error (about
    # u^2 of the magnitude) is far inside the 1 % margin
    u = 2.0 ** -53
    for k in range(1, 7):
        for r in range(1, 5):
            basis, block = _stage(rng, n, k, r)
            got = linear_combination(basis, block)
            assert got.shape == (r, n, n)
            gamma = k * u / (1.0 - k * u)
            magnitude = np.abs(block) @ np.abs(basis).reshape(k, n * n)
            for i, (hi, lo) in enumerate(_double_double_sums(basis, block)):
                error = np.abs((got[i] - hi) - lo).ravel()
                assert (error <= 1.01 * gamma * magnitude[i]).all(), (k, r)


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


def test_cost_ledger_counts_products_as_an_int():
    ledger = CostLedger()
    a = identity(2)
    for _ in range(3):
        matmul(a, a, ledger)
    assert type(ledger.products) is int and ledger.products == 3
    assert isinstance(ledger.total_cost, Fraction)


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
    x1, x2 = lu_solve_pair(den, rhs1, rhs2, ledger, upper=False)
    assert np.max(np.abs(den @ x1 - rhs1)) <= 1e-12
    assert np.max(np.abs(den @ x2 - rhs2)) <= 1e-12
    assert ledger.total_cost == Fraction(7, 3)


def test_upper_lu_solve_pair_residuals(rng):
    from scipy.linalg.blas import dtrsm

    for n in _SPLIT_SIZES:
        den = identity(n) + 0.1 * np.triu(rng.standard_normal((n, n))) / n
        rhs1, rhs2 = _upper_pair(rng, n)
        ledger = CostLedger()
        x1, x2 = lu_solve_pair(den, rhs1, rhs2, ledger, upper=True)
        assert ledger.total_cost == Fraction(7, 3)
        for x, rhs in ((x1, rhs1), (x2, rhs2)):
            assert np.max(np.abs(den @ x - rhs)) <= 1e-12
            assert not np.tril(x, -1).any()
            assert x.flags.c_contiguous
            if n < matcore._SPLIT_MIN_N:
                want = dtrsm(1.0, den.T, rhs.T, side=1, lower=1).T
                assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [matcore._GEMM_MIN_N, 256])
def test_lu_solve_pair_through_the_inverse_keeps_residual_and_ledger(rng, n):
    # from the crossover the two solves are products with the inverse:
    # ||D X - R||_1 <= n u ||D||_1 ||D^-1||_1 ||R||_1, D near the identity
    # as the Pade denominator is, and the ledger is still 1/3 + 2
    den = identity(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n)
    rhs1, rhs2 = rng.standard_normal((2, n, n))
    ledger = CostLedger()
    x1, x2 = lu_solve_pair(den, rhs1, rhs2, ledger, upper=False)
    assert ledger.total_cost == Fraction(7, 3)
    condition = norm1(den) * norm1(np.linalg.inv(den))
    for x, rhs in ((x1, rhs1), (x2, rhs2)):
        assert x.shape == (n, n) and x.flags.c_contiguous
        bound = n * 2.0 ** -53 * condition * norm1(rhs)
        assert norm1(den @ x - rhs) <= bound


def test_lu_solve_pair_below_the_crossover_is_dgetrs_bit_for_bit(rng):
    from scipy.linalg import lu_factor, lu_solve

    n = matcore._GEMM_MIN_N - 1
    den = identity(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n)
    rhs1, rhs2 = rng.standard_normal((2, n, n))
    x1, x2 = lu_solve_pair(den, rhs1, rhs2, CostLedger(), upper=False)
    factors = lu_factor(den, check_finite=False)
    for x, rhs in ((x1, rhs1), (x2, rhs2)):
        want = lu_solve(factors, rhs, check_finite=False)
        assert x.tobytes() == want.tobytes()


def _padded_singular(n):
    # [[1, 2], [2, 4]] beside an identity: pivot 0, 1-norm 6 at every n
    den = identity(n)
    den[:2, :2] = [[1.0, 2.0], [2.0, 4.0]]
    return den


def test_lu_solve_pair_detects_singular_on_both_sides_of_the_crossover():
    messages = []
    for n in (matcore._GEMM_MIN_N - 1, matcore._GEMM_MIN_N, 256):
        eye = identity(n)
        ledger = CostLedger()
        with pytest.raises(SingularMatrixError, match="singular") as err:
            lu_solve_pair(_padded_singular(n), eye, eye, ledger,
                          upper=False)
        assert ledger.total_cost == 0
        messages.append(str(err.value))
    assert messages[1:] == messages[:1] * 2


def test_upper_lu_solve_pair_keeps_its_triangular_solves(rng, monkeypatch):
    # above both crossovers the upper path keeps its triangular solves, bit
    # for bit the result with the inverse path switched off
    n = 2 * matcore._TRIANGULAR_MIN_N
    assert n >= matcore._GEMM_MIN_N
    den = identity(n) + 0.1 * np.triu(rng.standard_normal((n, n))) / n
    rhs1, rhs2 = _upper_pair(rng, n)
    got = lu_solve_pair(den, rhs1, rhs2, CostLedger(), upper=True)
    monkeypatch.setattr(matcore, "_GEMM_MIN_N", np.inf)
    want = lu_solve_pair(den, rhs1, rhs2, CostLedger(), upper=True)
    for x, ref in zip(got, want):
        assert x.tobytes() == ref.tobytes()


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_upper_lu_solve_pair_detects_a_zero_diagonal_entry():
    den = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0], [0.0, 0.0, 4.0]])
    messages = []
    for upper in (False, True):
        with pytest.raises(SingularMatrixError, match="singular") as err:
            lu_solve_pair(den, identity(3), identity(3), CostLedger(),
                          upper=upper)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_lu_solve_pair_detects_singular():
    den = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError, match="singular"):
        lu_solve_pair(den, identity(2), identity(2), CostLedger(),
                      upper=False)


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
    ("1 1\ninf\n", "line 2: non-finite"),
    ("2 1\n1\nnan\n", "line 3: non-finite"),
]


@pytest.mark.parametrize("content,needle", MALFORMED)
def test_read_matrix_diagnostics_name_the_line(tmp_path, content, needle):
    path = tmp_path / "bad.mat"
    path.write_text(content)
    with pytest.raises(MatrixInputError) as err:
        read_matrix(str(path))
    assert needle in str(err.value)
    assert str(path) in str(err.value)
