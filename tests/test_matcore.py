"""Dense-matrix substrate: construction, products, ledger, file IO."""

from fractions import Fraction

import numpy as np
import pytest

from cossinm import (
    cos_sin,
    matcore,
    pade_cos_sin,
    schemes,
    verify,
    wave_cos_sin,
)
from cossinm.matcore import (
    CostLedger,
    MatrixInputError,
    SingularMatrixError,
    Structure,
    identity,
    is_symmetric,
    is_upper_triangular,
    linear_combination,
    lu_solve_pair,
    matmul,
    norm1,
    read_matrix,
    structure_of,
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
    got = matmul(a, b, CostLedger(), structure=Structure.DENSE)
    want = _slow_matmul(a, b)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_matmul_charges_one_product_each():
    ledger = CostLedger()
    a = identity(2)
    matmul(a, a, ledger, structure=Structure.DENSE)
    matmul(a, a, ledger, structure=Structure.DENSE)
    assert ledger.total_cost == Fraction(2)


def test_as_matrix_returns_c_ordered_float64_input_itself(rng):
    a = rng.standard_normal((5, 5))
    assert matcore.as_matrix(a) is a
    square = np.array([[1.0]])
    assert matcore.as_matrix(square) is square


@pytest.mark.parametrize("a, message", [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "entries must be finite"),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), "entries must be finite"),
    (np.ones((2, 3)), r"must be square, got shape \(2, 3\)"),
    (np.ones(4), r"must be square, got shape \(4,\)"),
    (np.ones((0, 0)), r"must not be empty, got \(0, 0\)"),
])
def test_as_matrix_rejects_float64_input_as_any_other(a, message):
    # the C-ordered float64 input that skips the conversion takes the same
    # tests, with the same messages, as the converted copy of other input
    for form in (a, a.astype(np.float32)):
        with pytest.raises(MatrixInputError, match=message):
            matcore.as_matrix(form)


@pytest.mark.parametrize("convert", [
    np.asfortranarray, lambda a: a.astype(np.float32),
    lambda a: np.rint(a * 4).astype(np.int64), lambda a: a > 0,
    lambda a: a.tolist(), lambda a: np.vstack([a, a])[::2],
], ids=["fortran", "float32", "int", "bool", "list", "strided"])
def test_as_matrix_converts_other_input(rng, convert):
    a = convert(rng.standard_normal((4, 4)))
    got = matcore.as_matrix(a)
    assert got is not a
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, np.asarray(a, dtype=np.float64))


@pytest.mark.parametrize("structure", list(Structure))
def test_matmul_charges_one_product_per_slab_of_a_stack(rng, structure):
    # a @ [p, a, q] is one call: each slab the bits of its own product (a
    # slab that is a itself a square, dsyrk for SYMMETRIC), 3 charged
    n = {Structure.DENSE: 9, Structure.UPPER: matcore._TRIANGULAR_MIN_N,
         Structure.SYMMETRIC: matcore._SYMMETRIC_MIN_N}[structure]
    pair = (_upper_pair(rng, n) if structure is Structure.UPPER
            else _symmetric_pair(rng, n) if structure is Structure.SYMMETRIC
            else (rng.standard_normal((n, n)), rng.standard_normal((n, n))))
    stack = np.stack([pair[1], pair[0], pair[1] * 0.5])
    a = stack[1]
    for out in (None, np.full((3, n, n), np.nan)):
        ledger = CostLedger()
        got = matmul(a, stack, ledger, structure=structure, out=out)
        assert out is None or got is out
        assert ledger.products == 3
        for slab, b in zip(got, (stack[0], a, stack[2])):
            want = matmul(a, b, CostLedger(), structure=structure)
            assert slab.tobytes() == want.tobytes()


def _upper_pair(rng, n):
    """A full upper triangle and an upper bidiagonal (Jordan-like) matrix."""
    jordan = np.diag(rng.uniform(-1.0, 1.0, n)) + np.eye(n, k=1)
    return np.triu(rng.standard_normal((n, n))), jordan


# Sizes on the triangular path: the crossover, a multiple of the tile, and
# an odd n whose last tile is short
_TILE_SIZES = (matcore._TRIANGULAR_MIN_N, 3 * matcore._PANEL,
               6 * matcore._PANEL + 17)


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
    for n in _TILE_SIZES:
        triu, jordan = _upper_pair(rng, n)
        for a, b in ((triu, jordan), (jordan, triu), (triu, triu)):
            ledger = CostLedger()
            got = matmul(a, b, ledger, structure=Structure.UPPER)
            _check_upper_product(got, a, b, ledger)


@pytest.mark.parametrize("upper", [False, True])
def test_matmul_out_writes_the_product_into_a_slab(rng, upper):
    for n in _TILE_SIZES:
        a, b = _upper_pair(rng, n)
        stack = np.full((3, n, n), np.nan)
        ledger = CostLedger()
        structure = Structure.UPPER if upper else Structure.DENSE
        got = matmul(a, b, ledger, structure=structure, out=stack[1])
        assert np.shares_memory(got, stack[1])
        want = matmul(a, b, CostLedger(), structure=structure)
        assert stack[1].tobytes() == want.tobytes()
        assert np.isnan(stack[[0, 2]]).all()
        assert ledger.products == 1


@pytest.mark.parametrize("into", ["b", "strided"])
def test_upper_matmul_into_an_operand_or_a_strided_out(rng, into):
    # no library call hands matmul such an out (see
    # test_library_calls_keep_the_kernels_contract), and an out that
    # overlaps a is written wrong; b, each of whose row panels the tiles
    # read before they write it, and a strided view, which each tile's
    # np.matmul writes as it is, take the bytes of no out
    for n in _TILE_SIZES:
        a, b = _upper_pair(rng, n)
        want = matmul(a, b, CostLedger(), structure=Structure.UPPER)
        if into == "strided":
            out = np.empty((n, 2 * n))[:, ::2]
        else:
            out = b
        got = matmul(a, b, CostLedger(), structure=Structure.UPPER, out=out)
        assert got is out
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def _band(rng, n, width):
    """An upper-triangular matrix whose nonzeros lie within width of the
    diagonal: width 1 is bidiagonal (Jordan-like)."""
    return np.triu(np.tril(rng.standard_normal((n, n)), width))


def _tile_widths(n):
    """Bandwidths on both sides of a tile's edge, and a full triangle's."""
    tile = matcore._PANEL
    return (0, 1, tile - 1, tile, tile + 1, n - 1)


def _check_upper_product(got, a, b, ledger):
    n = a.shape[0]
    assert norm1(got - a @ b) <= n * 2.0 ** -53 * norm1(a) * norm1(b)
    assert not np.tril(got, -1).any()
    assert got.flags.c_contiguous
    assert ledger.products == 1 and ledger.total_cost == Fraction(1)


def test_bandwidth_reads_the_widest_diagonal(rng):
    n = 6 * matcore._PANEL + 1
    for width in (0, 1, 24, 127):
        assert matcore._bandwidth(_band(rng, n, width)) == width
    b = _band(rng, n, 1)
    b[n - 3, n - 1] = 5e-324  # one subnormal on the last rows' diagonal 2
    assert matcore._bandwidth(b) == 2
    b[5, 30] = -0.0  # a signed zero is a zero
    assert matcore._bandwidth(b) == 2
    for value in (np.inf, np.nan):
        c = b.copy()
        c[40, 70] = value
        assert matcore._bandwidth(c) == 30
    assert matcore._bandwidth(np.zeros((n, n))) == 0
    # a nonzero in the top-right tile, and a layout the scan cannot shear,
    # give the full width at once
    c = b.copy()
    c[matcore._PANEL - 1, n - matcore._PANEL] = 1.0
    assert matcore._bandwidth(c) == n - 1
    assert matcore._bandwidth(np.asfortranarray(b)) == n - 1
    # below n = 2 _PANEL the top-right tile reaches the diagonal: a
    # Jordan-type matrix at the triangular crossover keeps its width 1
    jordan = _upper_pair(rng, matcore._TRIANGULAR_MIN_N)[1]
    assert matcore._TRIANGULAR_MIN_N < 2 * matcore._PANEL
    assert matcore._bandwidth(jordan) == 1


@pytest.mark.parametrize("n", _TILE_SIZES)
def test_banded_upper_matmul_matches_the_dense_product(rng, n):
    # every pair of widths on both sides of a tile's edge, each product in
    # both orders, and each width's square; from n = 2 _PANEL a width that
    # reaches the top-right tile reads as the full one (below it that tile
    # reaches the diagonal, and every width is read as it is)
    widths = _tile_widths(n)
    for wa in widths:
        a = _band(rng, n, wa)
        full = n >= 2 * matcore._PANEL and wa > n - 2 * matcore._PANEL
        assert matcore._bandwidth(a) == (n - 1 if full else wa)
        for wb in widths:
            b = _band(rng, n, wb)
            for p, q in ((a, b), (b, a)):
                ledger = CostLedger()
                got = matmul(p, q, ledger, structure=Structure.UPPER)
                _check_upper_product(got, p, q, ledger)
        ledger = CostLedger()
        _check_upper_product(matmul(a, a, ledger, structure=Structure.UPPER),
                             a, a, ledger)


def _nan_below_the_diagonal_tiles(m):
    """A copy of m with NaN in every entry below its diagonal tiles: the
    entries (i, j) whose tile row i // _PANEL is past the tile column."""
    tile = np.arange(m.shape[0]) // matcore._PANEL
    return np.where(tile[:, None] > tile[None, :], np.nan, m)


@pytest.mark.parametrize("n", _TILE_SIZES)
def test_upper_kernels_read_nothing_below_the_diagonal_tiles(rng, n):
    # NaN below the operands' diagonal tiles, and in the whole strict lower
    # triangle of a solve's denominator, never reaches the result.  Full
    # triangles keep the bits they have without it; a banded operand's
    # scan reads some of the NaN as a wider band, and its products stay
    # within the rounding bound
    triu, jordan = _upper_pair(rng, n)
    other = np.triu(rng.standard_normal((n, n)))
    marked = {id(m): _nan_below_the_diagonal_tiles(m)
              for m in (triu, jordan, other)}
    for a, b in ((triu, other), (jordan, triu), (triu, triu)):
        # a square stays one marked operand, a is b
        got = matcore._upper_product(marked[id(a)], marked[id(b)], None)
        assert np.isfinite(got).all() and not np.tril(got, -1).any()
        assert norm1(got - a @ b) <= n * 2.0 ** -53 * norm1(a) * norm1(b)
        if a is not jordan:
            want = matcore._upper_product(a, b, None)
            assert got.tobytes() == want.tobytes()
    den = identity(n) + 0.1 * triu / n
    marked_den = np.where(np.tri(n, k=-1, dtype=bool), np.nan, den)
    width = matcore._bandwidth(den)
    for r in (triu, jordan):
        got = matcore._upper_solve(marked_den, marked[id(r)], width)
        want = matcore._upper_solve(den, r, width)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).all() and not np.tril(got, -1).any()


@pytest.mark.parametrize("into", ["slab", "b", "strided"])
def test_banded_upper_matmul_into_a_slab_an_operand_or_a_strided_out(
        rng, into):
    # a slab is written in place, and b and a strided view as
    # test_upper_matmul_into_an_operand_or_a_strided_out says: all give the
    # bytes of no out, and a square (a is b) those of the same product
    for n in _TILE_SIZES:
        a, b = _band(rng, n, 24), _band(rng, n, 1)
        want = matmul(a, b, CostLedger(), structure=Structure.UPPER)
        square = matmul(a, a.copy(), CostLedger(), structure=Structure.UPPER)
        stack = np.full((3, n, n), np.nan)
        out = {"slab": stack[1], "b": b,
               "strided": np.empty((n, 2 * n))[:, ::2]}[into]
        got = matmul(a, b, CostLedger(), structure=Structure.UPPER, out=out)
        assert got is out
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert np.isnan(stack[[0, 2]]).all()
        got = matmul(a, a, CostLedger(), structure=Structure.UPPER, out=out)
        assert np.ascontiguousarray(got).tobytes() == square.tobytes()


def _symmetric_pair(rng, n):
    """A symmetric a, and a symmetric b that commutes with it (a polynomial
    in a), both exactly symmetric."""
    g = rng.standard_normal((n, n))
    a = (g @ g.T) / n  # numpy forms g @ g.T by dsyrk, exactly symmetric
    b = matmul(a, a, CostLedger(), structure=Structure.SYMMETRIC) - 0.5 * a
    assert np.array_equal(a, a.T) and np.array_equal(b, b.T)
    return a, b


# Sizes the symmetric kernels are checked at: one below the crossover and
# one above it, both odd, so the row panels and the mirror's halves are
# uneven
_SYMMETRIC_SIZES = (matcore._SYMMETRIC_MIN_N - 1, matcore._SYMMETRIC_MIN_N + 1)


def test_symmetric_predicate_and_structure(rng):
    n = matcore._SYMMETRIC_MIN_N
    a, _ = _symmetric_pair(rng, n)
    assert is_symmetric(a) and structure_of(a) is Structure.SYMMETRIC
    assert not is_symmetric(a[1:, 1:])  # below the crossover
    assert structure_of(a[1:, 1:]) is Structure.DENSE
    # the first row, a diagonal block and the far corner of the last panel
    for i, j in ((0, n - 1), (70, 65), (n - 1, n - 2)):
        b = a.copy()
        b[i, j] = np.nextafter(b[i, j], np.inf)
        assert not is_symmetric(b)
    # triangular input is UPPER even where it is also symmetric (diagonal)
    assert structure_of(np.diag(np.arange(n + 1.0))) is Structure.UPPER
    assert structure_of(rng.standard_normal((n, n))) is Structure.DENSE


def test_symmetric_matmul_matches_the_dense_product(rng):
    for n in _SYMMETRIC_SIZES:
        a, b = _symmetric_pair(rng, n)
        # a square (one dsyrk), and products of two operands (row panels)
        for p, q in ((a, a), (a, b), (b, a)):
            ledger = CostLedger()
            got = matmul(p, q, ledger, structure=Structure.SYMMETRIC)
            bound = n * 2.0 ** -53 * norm1(p) * norm1(q)
            assert norm1(got - p @ q) <= bound
            assert np.array_equal(got, got.T)
            assert got.flags.c_contiguous
            assert ledger.products == 1 and ledger.total_cost == Fraction(1)


@pytest.mark.parametrize("into, square", [
    pytest.param("slab", True, id="slab-square"),
    pytest.param("slab", False, id="slab-panels"),
    pytest.param("a", False, id="a-panels"),
    pytest.param("strided", False, id="strided-panels"),
])
def test_symmetric_matmul_out(rng, into, square):
    # a slab is written in place; outside what library calls hand in (see
    # test_library_calls_keep_the_kernels_contract), the row panels write
    # a, each panel reading only its own rows of a, and a strided view as
    # it is: all give the bytes of no out
    for n in _SYMMETRIC_SIZES:
        a, b = _symmetric_pair(rng, n)
        if square:
            b = a
        want = matmul(a, b, CostLedger(), structure=Structure.SYMMETRIC)
        stack = np.full((3, n, n), np.nan)
        out = {"slab": stack[1], "a": a,
               "strided": np.empty((n, 2 * n))[:, ::2]}[into]
        got = matmul(a, b, CostLedger(), structure=Structure.SYMMETRIC,
                     out=out)
        assert got is out
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert np.isnan(stack[[0, 2]]).all()


def _contract_inputs():
    """Structured input at the kernels' crossovers, each scaled so that the
    trigonometric calls reach the stacked doubling step (s >= 2), and small
    dense input."""
    rng = np.random.default_rng(33)
    n = 224
    jordan = np.diag(rng.uniform(-1.0, 1.0, n)) + np.eye(n, k=1)
    b = rng.standard_normal((320, 320))
    forms = {"triu": (np.triu(rng.standard_normal((n, n))), 96.0),
             "jordan": (jordan, 12.0), "negdef": (-(b @ b.T), 60.0),
             "dense-4": (rng.standard_normal((4, 4)), 30.0),
             "dense-9": (rng.standard_normal((9, 9)), 30.0)}
    return {name: a * (norm / norm1(a)) for name, (a, norm) in forms.items()}


@pytest.mark.parametrize("name", ["triu", "jordan", "negdef", "dense-4",
                                  "dense-9"])
def test_library_calls_keep_the_kernels_contract(monkeypatch, name):
    # every out the structured kernels get is None or C-contiguous and
    # overlaps neither operand, and every basis linear_combination gets is
    # C-contiguous, in the calls the library makes: selection, the chains,
    # the Pade solves and both doubling steps
    a = _contract_inputs()[name]
    seen = []

    def spy(kernel):
        def spied(p, q, out):
            seen.append((kernel.__name__, out is not None, out is None or (
                out.flags.c_contiguous and not np.shares_memory(out, p)
                and not np.shares_memory(out, q))))
            return kernel(p, q, out)
        return spied

    def spied_combination(basis, block, _combine=schemes.linear_combination):
        seen.append(("linear_combination", False, basis.flags.c_contiguous))
        return _combine(basis, block)

    for kernel in ("_upper_product", "_symmetric_product"):
        monkeypatch.setattr(matcore, kernel, spy(getattr(matcore, kernel)))
    # the chains call linear_combination by the name schemes imported
    monkeypatch.setattr(schemes, "linear_combination", spied_combination)
    reports = [cos_sin(a), pade_cos_sin(a), wave_cos_sin(a, 1.0)]
    assert all(r.scaling_exponent >= 2 for r in reports[:2])
    assert all(kept for _, _, kept in seen)
    structured = {called for called, _, _ in seen} - {"linear_combination"}
    if reports[0].structure == "dense":
        assert structured == set()
    else:
        # each product into a slab, a stacked step's included, went through
        # the one kernel the structure takes
        assert structured == {f"_{reports[0].structure}_product"}
        assert any(given for _, given, _ in seen)


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
    # a transposed block gives the bits of the plain sums all the same;
    # the stack is C-contiguous, as every library call hands it in (see
    # test_library_calls_keep_the_kernels_contract)
    for n in (2, 5, 9):
        for k in (3, 6):
            basis = rng.standard_normal((k, n, n))
            basis *= 10.0 ** rng.integers(-8, 9, (k, 1, 1))
            basis[0] = np.eye(n)
            block = rng.standard_normal((4, k))
            got = linear_combination(basis, np.asfortranarray(block))
            assert got.tobytes() == _plain_sums(basis, block).tobytes()


def test_cost_ledger_counts_products_as_an_int():
    ledger = CostLedger()
    a = identity(2)
    for _ in range(3):
        matmul(a, a, ledger, structure=Structure.DENSE)
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
    x1, x2 = lu_solve_pair(den, rhs1, rhs2, ledger, structure=Structure.DENSE)
    assert np.max(np.abs(den @ x1 - rhs1)) <= 1e-12
    assert np.max(np.abs(den @ x2 - rhs2)) <= 1e-12
    assert ledger.total_cost == Fraction(7, 3)


def test_upper_lu_solve_pair_residuals(rng):
    # denominators of every bandwidth on both sides of a tile's edge
    for n in _TILE_SIZES:
        rhs1, rhs2 = _upper_pair(rng, n)
        for width in _tile_widths(n):
            den = identity(n) + 0.1 * _band(rng, n, width) / n
            ledger = CostLedger()
            x1, x2 = lu_solve_pair(den, rhs1, rhs2, ledger,
                                   structure=Structure.UPPER)
            assert ledger.total_cost == Fraction(7, 3)
            for x, rhs in ((x1, rhs1), (x2, rhs2)):
                assert np.max(np.abs(den @ x - rhs)) <= 1e-12
                assert not np.tril(x, -1).any()
                assert x.flags.c_contiguous


@pytest.mark.parametrize("n", [matcore._GEMM_MIN_N, 256])
def test_lu_solve_pair_through_the_inverse_keeps_residual_and_ledger(rng, n):
    # from the crossover the two solves are products with the inverse:
    # ||D X - R||_1 <= n u ||D||_1 ||D^-1||_1 ||R||_1, D near the identity
    # as the Pade denominator is, and the ledger is still 1/3 + 2
    den = identity(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n)
    rhs1, rhs2 = rng.standard_normal((2, n, n))
    ledger = CostLedger()
    x1, x2 = lu_solve_pair(den, rhs1, rhs2, ledger, structure=Structure.DENSE)
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
    x1, x2 = lu_solve_pair(den, rhs1, rhs2, CostLedger(), structure=Structure.DENSE)
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
                          structure=Structure.DENSE)
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
    got = lu_solve_pair(den, rhs1, rhs2, CostLedger(), structure=Structure.UPPER)
    monkeypatch.setattr(matcore, "_GEMM_MIN_N", np.inf)
    want = lu_solve_pair(den, rhs1, rhs2, CostLedger(), structure=Structure.UPPER)
    for x, ref in zip(got, want):
        assert x.tobytes() == ref.tobytes()


def test_symmetric_lu_solve_pair_is_a_cholesky_solve(rng, monkeypatch):
    import scipy.linalg.lapack as lapack

    factored = []
    dpotrf = lapack.dpotrf

    def counted(*args, **kwargs):
        factored.append(args[0].shape)
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "dpotrf", counted)
    for n in _SYMMETRIC_SIZES:
        a, b = _symmetric_pair(rng, n)
        # I + a/28 + b/1000 is symmetric positive definite, as the Pade
        # denominator is, and commutes with a and b
        den = identity(n) + a / 28.0 + b / 1000.0
        ledger = CostLedger()
        x1, x2 = lu_solve_pair(den, a, b, ledger,
                               structure=Structure.SYMMETRIC)
        assert ledger.total_cost == Fraction(7, 3)
        condition = norm1(den) * norm1(np.linalg.inv(den))
        for x, rhs in ((x1, a), (x2, b)):
            assert norm1(den @ x - rhs) <= (n * 2.0 ** -53 * condition
                                            * norm1(rhs))
            assert np.array_equal(x, x.T)
            assert x.flags.c_contiguous
    assert len(factored) == len(_SYMMETRIC_SIZES)


def test_symmetric_lu_solve_pair_detects_singular_as_the_lu_does():
    # the Cholesky pivots are the squared diagonal of its factor: the
    # padded block's second is 4 - 2^2 = 0, as the LU's is, and the
    # message is the LU's
    n = matcore._SYMMETRIC_MIN_N
    eye = identity(n)
    messages = []
    for structure in (Structure.DENSE, Structure.SYMMETRIC):
        ledger = CostLedger()
        with pytest.raises(SingularMatrixError, match="singular") as err:
            lu_solve_pair(_padded_singular(n), eye, eye, ledger,
                          structure=structure)
        assert ledger.total_cost == 0
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    # a pivot that is not positive stops the factorization, and is read
    den = identity(n)
    den[5, 5] = -2.0
    with pytest.raises(SingularMatrixError, match=r"pivot -2\.000e\+00"):
        lu_solve_pair(den, eye, eye, CostLedger(),
                      structure=Structure.SYMMETRIC)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_upper_lu_solve_pair_detects_a_zero_diagonal_entry():
    den = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0], [0.0, 0.0, 4.0]])
    messages = []
    for structure in (Structure.DENSE, Structure.UPPER):
        with pytest.raises(SingularMatrixError, match="singular") as err:
            lu_solve_pair(den, identity(3), identity(3), CostLedger(),
                          structure=structure)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_lu_solve_pair_detects_singular():
    den = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError, match="singular"):
        lu_solve_pair(den, identity(2), identity(2), CostLedger(),
                      structure=Structure.DENSE)


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
