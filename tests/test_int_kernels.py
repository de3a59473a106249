"""The exact integer kernels of `cyclotomic` at their switches of width.

Every kernel bounds what it computes from the values of its operands.
Operands whose bound lies just below 2^62 must give an int64 result,
operands whose bound is exactly 2^62 a Python-int (dtype=object) result,
and both must equal a reference computed on Python ints.

The matrix-product kernels (`int_matmul`, `poly_products`,
`gather_products`, `CycArray.__mul__`) also switch at 2^53: below it they
multiply in float64 through BLAS (save an `int_matmul` with a single row or
column per batch item), from it on in int64, and either way return
integers equal to the Python-int reference.  Each case asserts the
width taken through a spy on `_width`, the one helper that picks it.  A
bound of exactly 2^53 caps every result at 2^53, which float64 still holds,
so a third case, "past", takes operands whose exact result is an odd
integer above 2^53, which float64 cannot hold.  Over Q(q) a kernel's bound
carries a factor phi^2 or phi (2 phi - 1); where that rules out 2^53 - 1 or
2^53 exactly, the case takes the nearest bound the kernel can form on that
side.
"""

import numpy as np
import pytest

import taftdouble.cyclotomic as cyclotomic
from taftdouble.cyclotomic import (
    FLOAT64_LIMIT,
    INT64_LIMIT,
    CycArray,
    gather_products,
    int_combination,
    int_matmul,
    int_rows,
    make_context,
    poly_products,
    segment_sum,
    sparse_product,
    sparse_rows,
)

SIDES = [pytest.param(False, id="below"), pytest.param(True, id="at")]


def _expected_dtype(at_limit):
    return np.dtype(object) if at_limit else np.dtype(np.int64)


def _with_row_sum(rng, shape, total, density=1.0):
    """A random integer array whose largest absolute sum along the last axis is exactly `total` (at least 3 times its length)."""
    a = rng.integers(-3, 4, shape) * (rng.random(shape) < density)
    sums = np.abs(a).sum(axis=-1)
    top = np.unravel_index(np.argmax(sums), sums.shape) + (0,)
    a[top] += (1 if a[top] >= 0 else -1) * (total - int(sums[top[:-1]]))
    return a


def _with_max(rng, shape, m):
    """A random integer array with max |x| exactly m."""
    b = rng.integers(-m, m + 1, shape, dtype=np.int64)
    b.flat[rng.integers(b.size)] = m * rng.choice((-1, 1))
    return b


def _py(a):
    """The same array on Python ints."""
    return np.asarray(a).astype(object)


def _row_sum_bound(a):
    return max(sum(abs(int(x)) for x in row) for row in a.reshape(-1, a.shape[-1]))


@pytest.mark.parametrize("at_limit", SIDES)
@pytest.mark.parametrize("batch", [(), (3,)])
def test_int_matmul_switches_at_the_row_sum_bound(at_limit, batch):
    rng = np.random.default_rng(11)
    a = _with_row_sum(rng, batch + (5, 7), 1 << 6)
    b = _with_max(rng, batch + (7, 4), (1 << 56) - (not at_limit))
    assert _row_sum_bound(a) * int(np.abs(b).max()) == INT64_LIMIT - (not at_limit) * 64
    out = int_matmul(a, b)
    assert out.dtype == _expected_dtype(at_limit)
    assert np.array_equal(out, _py(a) @ _py(b))


@pytest.mark.parametrize("at_limit", SIDES)
def test_sparse_product_switches_at_the_row_sum_bound(at_limit):
    rng = np.random.default_rng(12)
    A = _with_row_sum(rng, (8, 9), 1 << 5, density=0.4)
    A[3] = 0
    B = _with_max(rng, (9, 3), (1 << 57) - (not at_limit))
    out = sparse_product(sparse_rows(A), B)
    assert out.dtype == _expected_dtype(at_limit)
    assert np.array_equal(out, _py(A) @ _py(B))
    # a float right-hand side is multiplied in floating point, as before
    assert sparse_product(sparse_rows(A), np.ones((9, 2))).dtype == np.float64


@pytest.mark.parametrize("at_limit", SIDES)
def test_segment_sum_switches_at_the_longest_run(at_limit):
    rng = np.random.default_rng(13)
    nums = _with_max(rng, (10, 3), (1 << 60) - (not at_limit))
    starts = np.array([0, 2, 6, 7])  # runs of 2, 4, 1 and 3 rows
    out = segment_sum(nums, starts)
    assert out.dtype == _expected_dtype(at_limit)
    bounds = list(starts) + [len(nums)]
    reference = [[sum(int(x) for x in nums[lo:hi, c]) for c in range(3)] for lo, hi in zip(bounds, bounds[1:])]
    assert out.tolist() == reference
    # equal-length groups: four blocks of rows reshaped onto axis 0
    blocks = _with_max(rng, (4, 5, 3), (1 << 60) - (not at_limit))
    out = segment_sum(blocks)
    assert out.dtype == _expected_dtype(at_limit)
    assert np.array_equal(out, _py(blocks).sum(axis=0))


@pytest.mark.parametrize("at_limit", SIDES)
def test_int_combination_switches_at_the_weighted_maxima(at_limit):
    rng = np.random.default_rng(14)
    x = _with_max(rng, (6, 4), 1 << 60)
    y = _with_max(rng, (6, 4), (1 << 60) - (not at_limit))
    out = int_combination([(3, x), (-1, y)])  # bound 3 * 2^60 + 2^60 = 2^62 at the limit
    assert out.dtype == _expected_dtype(at_limit)
    assert np.array_equal(out, 3 * _py(x) - _py(y))


def test_int_combination_keeps_a_large_factor_of_a_zero_array_exact():
    out = int_combination([(1 << 70, np.zeros((2, 2), dtype=np.int64))])
    assert out.dtype == object and not out.any()


@pytest.mark.parametrize("at_limit", SIDES)
def test_int_rows_switches_at_the_largest_entry(at_limit):
    top = INT64_LIMIT - (not at_limit)
    out = int_rows([[1, -top], [0, 5]])
    assert out.dtype == _expected_dtype(at_limit) and out.shape == (2, 2)
    assert out.tolist() == [[1, -top], [0, 5]]


@pytest.mark.parametrize("value", [1 << 63, (1 << 64) - 1, -(1 << 63)])
def test_int_rows_never_reads_large_ints_as_uint64_or_float(value):
    out = int_rows([[value, 1], [2, 3]])
    assert out.dtype == object
    assert out.tolist() == [[value, 1], [2, 3]] and all(type(x) is int for x in out.ravel())


@pytest.mark.parametrize("at_limit", SIDES)
def test_gather_products_switches_at_its_product_bound(at_limit):
    """Integer rows (the 1x1x1 tensor): 16 products gathered into one row, each below 2^58."""
    rng = np.random.default_rng(15)
    a = _with_max(rng, (4, 1), 1 << 29)
    b = _with_max(rng, (4, 1), (1 << 29) - (not at_limit))
    out = gather_products(a, b, None, np.zeros((4, 4), dtype=np.int64), 2)
    assert out.dtype == _expected_dtype(at_limit)
    assert out.tolist() == [[sum(int(x) * int(y) for x in a[:, 0] for y in b[:, 0])], [0]]


@pytest.mark.parametrize("at_limit", SIDES)
def test_gather_products_over_q_switches_at_its_product_bound(at_limit):
    """At n = 3 (phi = 2, tensor entries of size 1) with distinct targets the bound is 4 max|a| max|b|."""
    ctx = make_context(3)
    rng = np.random.default_rng(16)
    a = _with_max(rng, (2, 2), 1 << 30)
    b = _with_max(rng, (3, 2), (1 << 30) - (not at_limit))
    target = np.arange(6).reshape(2, 3)
    out = gather_products(a, b, ctx, target, 6)
    assert out.dtype == _expected_dtype(at_limit)
    T = _py(ctx._mul_tensor)
    for i in range(2):
        for j in range(3):
            expected = [sum(int(a[i, k]) * int(b[j, e]) * T[k, e, p] for k in range(2) for e in range(2)) for p in range(2)]
            assert out[target[i, j]].tolist() == expected


@pytest.mark.parametrize("at_limit", SIDES)
def test_poly_products_switches_at_its_product_bound(at_limit):
    """Integer polynomials (the 1x1x1 tensor) with four coefficients each: min(La, Lb) = 4 products per coefficient of the result."""
    rng = np.random.default_rng(18)
    a = _with_max(rng, (3, 4, 1), 1 << 30)
    b = _with_max(rng, (3, 4, 1), (1 << 30) - (not at_limit))
    out = poly_products(a, b, None)
    assert out.dtype == _expected_dtype(at_limit)
    for s in range(3):
        want = [sum(int(a[s, i, 0]) * int(b[s, t - i, 0]) for i in range(4) if 0 <= t - i < 4) for t in range(7)]
        assert out[s, :, 0].tolist() == want



SIDES53 = ["below", "at", "past"]
# an odd integer above 2^53, as 3 times an integer float64 holds
PAST = 3, (FLOAT64_LIMIT + 1) // 3


def _split(total):
    """total as the product of its least divisor from 32 on (or itself) and the cofactor."""
    least = next((p for p in range(32, 1 << 20) if total % p == 0), total)
    return least, total // least


def _limit_factors(side, step=1):
    """Two factors whose product times `step` is the largest multiple of `step` below 2^53 ("below") or the least one from 2^53 on ("at")."""
    return _split((FLOAT64_LIMIT - 1) // step + (side == "at"))


@pytest.fixture
def widths(monkeypatch):
    """The widths `_width` picks for product kernels (blas=True) while the test runs."""
    picked, pick = [], cyclotomic._width

    def spy(bound, blas=False):
        width = pick(bound, blas)
        if blas:
            picked.append(width)
        return width

    monkeypatch.setattr(cyclotomic, "_width", spy)
    return picked


def _check(side, widths, out, reference):
    """The width taken, and an int64 result equal to the Python-int reference; past 2^53 it holds an odd integer above 2^53, which float64 would round."""
    assert widths == ([np.float64] if side == "below" else [np.int64])
    assert out.dtype == np.int64 and np.array_equal(out, reference)
    if side == "past":
        top = max(abs(int(x)) for x in np.ravel(reference))
        assert top > FLOAT64_LIMIT and top % 2 and int(float(top)) != top


@pytest.mark.parametrize("side", SIDES53)
@pytest.mark.parametrize("batch", [(), (3,)])
def test_int_matmul_multiplies_in_float64_below_2_53(side, batch, widths):
    rng = np.random.default_rng(31)
    if side == "past":
        a, b = np.zeros(batch + (2, 3), dtype=np.int64), _with_max(rng, batch + (3, 2), 5)
        a[..., 0, :2] = 1
        b[..., 0, 0], b[..., 1, 0] = FLOAT64_LIMIT, 1  # out[..., 0, 0] = 2^53 + 1
    else:
        row_sum, top = _limit_factors(side)
        a, b = _with_row_sum(rng, batch + (5, 7), row_sum), _with_max(rng, batch + (7, 4), top)
        assert _row_sum_bound(a) * int(np.abs(b).max()) == FLOAT64_LIMIT - (side == "below")
    _check(side, widths, int_matmul(a, b), _py(a) @ _py(b))


@pytest.mark.parametrize("batch", [(), (2,)])
def test_int_matmul_writes_a_long_float64_product_block_by_block(batch, widths):
    """300 rows of 30 x 40 multiply-adds are two blocks of rows, each cast into the int64 result."""
    rng = np.random.default_rng(37)
    a, b = _with_max(rng, batch + (300, 30), 1000), _with_max(rng, batch + (30, 40), 1000)
    assert len(cyclotomic._row_blocks(300, 30 * 40)) == 2
    out = int_matmul(a, b)
    assert widths == [np.float64] and out.dtype == np.int64
    assert np.array_equal(out, _py(a) @ _py(b))


@pytest.mark.parametrize("side", SIDES53)
def test_poly_products_multiplies_in_float64_below_2_53(side, widths):
    """Integer polynomials; a (3, 4) by b (3, 1) forms one product per coefficient, so the bound is max |a| max |b|."""
    rng = np.random.default_rng(32)
    if side == "past":
        a, b = np.array([[[FLOAT64_LIMIT], [1]]]), np.array([[[1], [1]]])  # degree 1: 2^53 + 1
    else:
        top_a, top_b = _limit_factors(side)
        a, b = _with_max(rng, (3, 4, 1), top_a), _with_max(rng, (3, 1, 1), top_b)
    (m, la, _), lb = a.shape, b.shape[1]
    reference = [[[sum(int(a[s, i, 0]) * int(b[s, t - i, 0]) for i in range(la) if 0 <= t - i < lb)] for t in range(la + lb - 1)] for s in range(m)]
    _check(side, widths, poly_products(a, b, None), np.array(reference, dtype=object))


@pytest.mark.parametrize("side", SIDES53)
def test_gather_products_over_z_multiplies_in_float64_below_2_53(side, widths):
    """Integer rows with distinct targets: the bound is max |a| max |b|."""
    rng = np.random.default_rng(33)
    if side == "past":
        a, b = np.array([[FLOAT64_LIMIT], [1]]), np.array([[1]])
        target = np.zeros((2, 1), dtype=np.int64)  # both products in row 0: 2^53 + 1
    else:
        top_a, top_b = _limit_factors(side)
        a, b = _with_max(rng, (4, 1), top_a), _with_max(rng, (3, 1), top_b)
        target = np.arange(12).reshape(4, 3)
    reference = np.zeros((target.size, 1), dtype=object)
    for i in range(len(a)):
        for j in range(len(b)):
            reference[target[i, j], 0] += int(a[i, 0]) * int(b[j, 0])
    _check(side, widths, gather_products(a, b, None, target, target.size), reference)


@pytest.mark.parametrize("side", SIDES53)
def test_gather_products_over_q_multiplies_in_float64_below_2_53(side, widths):
    """At n = 3 (phi = 2, tensor entries of size 1) with distinct targets the bound is 4 max |a| max |b|: 2^53 - 4 below, 2^53 at."""
    ctx = make_context(3)
    rng = np.random.default_rng(34)
    if side == "past":
        a, b = np.array([[PAST[0], 0]]), np.array([[PAST[1], 0]])  # the rational entry 3 (2^53 + 1) / 3
    else:
        top_a, top_b = _limit_factors(side, step=4)
        a, b = _with_max(rng, (2, 2), top_a), _with_max(rng, (3, 2), top_b)
    target = np.arange(a.shape[0] * b.shape[0]).reshape(len(a), len(b))
    T = _py(ctx._mul_tensor)
    reference = np.array(
        [[sum(int(a[i, k]) * int(b[j, e]) * T[k, e, p] for k in range(2) for e in range(2)) for p in range(2)] for i in range(len(a)) for j in range(len(b))],
        dtype=object,
    )
    _check(side, widths, gather_products(a, b, ctx, target, target.size), reference)


@pytest.mark.parametrize("side", SIDES53)
@pytest.mark.parametrize("length", ["short", "long"])
def test_entrywise_product_multiplies_in_float64_below_2_53(side, length, widths):
    """At n = 7 (phi = 6, q-power rows of size 1) the bound is 66 times the largest max |a_i| max |b_i|: 2^53 - 8 below, 2^53 + 58 at.

    A short array is one block of rows of the float64 product; a long one is three.
    """
    ctx = make_context(7)
    d = ctx.degree
    size = 3 if length == "short" else 2 * (cyclotomic.BLAS_CALL_WORK // d**3) + 7
    assert len(cyclotomic._row_blocks(size, d**3)) == (1 if length == "short" else 3)
    rng = np.random.default_rng(35)
    a, b = rng.integers(-3, 4, (size, d)), rng.integers(-3, 4, (size, d))
    a[-1], b[-1] = 0, 0
    if side == "past":
        a[-1, 0], b[-1, 0] = PAST  # the rational entry 3 (2^53 + 1) / 3
    else:
        a[-1, 0], b[-1, 0] = _limit_factors(side, step=d * (2 * d - 1))
    x, y = CycArray(ctx, a, 1), CycArray(ctx, b, 1)
    reference = np.array([(p * r).num for p, r in zip(x.to_list(), y.to_list())], dtype=object)
    _check(side, widths, (x * y).nums, reference)


@pytest.mark.parametrize("shapes", [((1, 7), (7, 4)), ((5, 7), (7, 1)), ((3, 1, 7), (3, 7, 4))], ids=["row", "column", "batch-rows"])
def test_int_matmul_keeps_vector_products_off_blas(shapes, widths):
    """One row or one column per batch item uses each entry of the other factor once: such a product stays int64 below 2^53."""
    rng = np.random.default_rng(36)
    a, b = (_with_max(rng, shape, 1000) for shape in shapes)
    out = int_matmul(a, b)
    assert widths == [] and out.dtype == np.int64
    assert np.array_equal(out, _py(a) @ _py(b))


def _qpow_reference(ctx, nums, exps):
    """Row i of nums times q^{exps[i]}: the product with the multiplication matrix of q^e, on Python ints."""
    rows = [_py(row) @ _py(ctx.mul_matrix(ctx.root_power(int(e)))) for row, e in zip(nums, exps)]
    return np.array(rows, dtype=object).reshape(-1, ctx.degree)


@pytest.mark.parametrize("n", [3, 9, 11, 15])
def test_qpow_multiplies_by_the_multiplication_matrix_of_q_e(n, widths):
    """Per-row, per-block and stacked exponents, negative ones and ones past n, a summed group and an empty array."""
    ctx = make_context(n)
    d = ctx.degree
    rng = np.random.default_rng(40 + n)
    x = CycArray(ctx, rng.integers(-9, 10, (6, d)), 7)
    per_row = np.array([-1, n, 3 * n + 2, -2 * n - 5, 0, n - 1])
    got = x.qpow(per_row)
    assert got.den == 7 and np.array_equal(got.nums, _qpow_reference(ctx, x.nums, per_row))
    per_block = np.array([-n - 1, 2 * n + 3])  # two blocks of three rows
    assert np.array_equal(x.qpow(per_block).nums, _qpow_reference(ctx, x.nums, np.repeat(per_block, 3)))
    stacked = np.array([[0, -1, n, 5 * n - 2]])  # one block of every row: each row over four powers
    want = _qpow_reference(ctx, np.repeat(x.nums, 4, axis=0), np.tile(stacked[0], 6))
    assert np.array_equal(x.qpow(stacked).nums, want)
    grid = rng.integers(-2 * n, 2 * n, (6, 3))  # three powers per row, summed over pairs of rows
    want = _qpow_reference(ctx, np.repeat(x.nums, 3, axis=0), grid.ravel()).reshape(3, 2, 3, d).sum(axis=1)
    assert np.array_equal(x.qpow(grid, group=2).nums, want.reshape(-1, d))
    empty = CycArray.zeros(ctx, 0)
    assert empty.qpow([]).nums.shape == (0, d) and empty.qpow([[1, 2, 3]]).nums.shape == (0, d)
    assert widths == [np.float64] * 6
    with pytest.raises(ValueError):
        x.qpow([1, 2, 3, 4])  # four blocks do not split six rows


@pytest.mark.parametrize("bound,width", [
    pytest.param(FLOAT64_LIMIT - 1, np.float64, id="2^53-1"),
    pytest.param(FLOAT64_LIMIT, np.int64, id="2^53"),
    pytest.param(INT64_LIMIT - 1, np.int64, id="2^62-1"),
    pytest.param(INT64_LIMIT, object, id="2^62"),
])
def test_qpow_switches_at_its_fold_bound(bound, width, widths):
    """At n = 3 every coefficient of q^k is 0 or +-1, so the bound of the fold is the largest row sum of |self|."""
    ctx = make_context(3)
    assert max(abs(c) for e in range(3) for c in ctx.root_power(e).num) == 1
    nums = np.array([[bound // 2, bound // 2 - bound], [1, -2]], dtype=np.int64)
    exps = [1, -5]
    got = CycArray(ctx, nums, 1).qpow(exps)
    assert widths == [width]
    assert got.nums.dtype == (object if width is object else np.int64)
    assert np.array_equal(got.nums, _qpow_reference(ctx, nums, exps))


def test_qpow_builds_a_long_count_array_block_by_block(widths):
    """Rows whose count-space temporary exceeds one block (`_row_blocks`) give the same products, row by row."""
    ctx = make_context(11)
    d = ctx.degree
    rows = 2 * (cyclotomic.BLAS_CALL_WORK // ctx.n) + 5
    assert len(cyclotomic._row_blocks(rows, ctx.n)) == 3
    rng = np.random.default_rng(41)
    nums, exps = rng.integers(-99, 100, (rows, d)), rng.integers(-50, 50, rows)
    want = np.zeros_like(nums)
    for e in range(ctx.n):
        hit = exps % ctx.n == e
        want[hit] = nums[hit] @ ctx.mul_matrix(ctx.root_power(e))
    assert np.array_equal(CycArray(ctx, nums, 1).qpow(exps).nums, want)
    assert widths == [np.float64]


# Cheap bounds first.  Each kernel bounds a row by its length times max |a|
# before it takes exact row sums (or row maxima), and takes them only where
# that cheap bound does not already give its narrowest width: float64 for a
# product through BLAS, int64 otherwise.  The operands below have a cheap
# bound at (or just past) the limit and an exact one below it ("cheap"), or
# exact bounds at or past it too ("past"); the width must be the exact
# bound's either way, picked by one `_width` call.

CHEAP_SIDES = ["cheap", "past"]


def _peaked(shape, top, side):
    """Rows of small entries; the first row holds `top` once ("cheap": its row sum stays near top) or in every column ("past")."""
    a = np.ones(shape, dtype=np.int64)
    a[..., 0, :] = 0
    a[..., 0, 0] = top
    if side == "past":
        a[..., 0, :] = top
    return a


@pytest.mark.parametrize("side", CHEAP_SIDES)
def test_int_matmul_takes_row_sums_only_past_the_cheap_float64_bound(side, widths):
    """8 columns of at most 2^30 times max |b| = 2^20: the cheap bound is 2^53; row 0's sum is 2^30 ("cheap") or 2^33 ("past")."""
    rng = np.random.default_rng(51)
    a, b = _peaked((3, 8), 1 << 30, side), _with_max(rng, (8, 4), 1 << 20)
    assert a.shape[-1] * int(np.abs(a).max()) * int(np.abs(b).max()) == FLOAT64_LIMIT
    assert (_row_sum_bound(a) * int(np.abs(b).max()) < FLOAT64_LIMIT) == (side == "cheap")
    out = int_matmul(a, b)
    assert widths == [np.float64 if side == "cheap" else np.int64]
    assert out.dtype == np.int64 and np.array_equal(out, _py(a) @ _py(b))


@pytest.mark.parametrize("side", CHEAP_SIDES)
def test_int_matmul_off_blas_takes_row_sums_only_past_the_cheap_int64_bound(side, widths):
    """One row of 8 columns, max |a| = 2^40, max |b| = 2^19: the cheap bound is 2^62; the row sum times max |b| is 2^59 or 2^62."""
    rng = np.random.default_rng(52)
    a, b = _peaked((1, 8), 1 << 40, side), _with_max(rng, (8, 4), 1 << 19)
    assert a.shape[-1] * int(np.abs(a).max()) * int(np.abs(b).max()) == INT64_LIMIT
    out = int_matmul(a, b)
    assert widths == []
    assert out.dtype == _expected_dtype(side == "past") and np.array_equal(out, _py(a) @ _py(b))


@pytest.mark.parametrize("side", CHEAP_SIDES)
def test_sparse_product_takes_row_sums_only_past_the_cheap_int64_bound(side):
    """Rows of at most 4 nonzeros, max |vals| = 2^40, max |B| = 2^20: the cheap bound is 2^62; row 0 holds 2^40 and three 1s, or four 2^40s."""
    rng = np.random.default_rng(53)
    A = np.zeros((5, 9), dtype=np.int64)
    A[:, :4] = 1
    A[0, :4] = [1 << 40] + ([1] * 3 if side == "cheap" else [1 << 40] * 3)
    A[2, 1] = 0
    B = _with_max(rng, (9, 3), 1 << 20)
    sparse = sparse_rows(A)
    assert sparse[1].shape[1] * int(np.abs(A).max()) * int(np.abs(B).max()) == INT64_LIMIT
    out = sparse_product(sparse, B)
    assert out.dtype == _expected_dtype(side == "past") and np.array_equal(out, _py(A) @ _py(B))


@pytest.mark.parametrize("side", CHEAP_SIDES)
def test_mul_matrices_take_row_sums_only_past_the_cheap_float64_bound(side, widths):
    """At n = 5 (phi = 4, tensor entries of size 1) numerators up to 2^51 give the cheap bound 2^53; row 0 sums to 2^51 or 2^53."""
    ctx = make_context(5)
    d = ctx.degree
    assert ctx._mul_tensor_max == 1
    nums = _peaked((3, d), 1 << 51, side)
    out = ctx.mul_matrices(nums)
    assert widths == [np.float64 if side == "cheap" else np.int64]
    want = (_py(nums) @ _py(ctx._mul_tensor.reshape(d, d * d))).reshape(-1, d, d)
    assert out.dtype == np.int64 and np.array_equal(out, want)


@pytest.mark.parametrize("side", CHEAP_SIDES)
def test_from_qpowers_takes_row_sums_only_past_the_cheap_float64_bound(side, widths):
    """At n = 5 (fold entries of size 1) counts up to ceil(2^53 / 5) give a cheap bound just past 2^53; row 0 sums to that count or to 5 times it."""
    ctx = make_context(5)
    assert ctx._fold_max == 1
    top = -(-FLOAT64_LIMIT // 5)
    counts = _peaked((3, 5), top, side)
    out = CycArray.from_qpowers(ctx, counts)
    assert widths == [np.float64 if side == "cheap" else np.int64]
    want = _py(counts) @ _py(ctx._fold)
    assert out.nums.dtype == np.int64 and np.array_equal(out.nums, want)


@pytest.mark.parametrize("side", CHEAP_SIDES)
def test_qpow_takes_row_sums_only_past_the_cheap_float64_bound(side, widths):
    """At n = 5 (phi = 4, fold entries of size 1) numerators up to 2^51 give the cheap bound 2^53; row 0 sums to 2^51 or 2^53."""
    ctx = make_context(5)
    nums = _peaked((3, ctx.degree), 1 << 51, side)
    exps = [1, -2, 7]
    out = CycArray(ctx, nums, 1).qpow(exps)
    assert widths == [np.float64 if side == "cheap" else np.int64]
    assert out.nums.dtype == np.int64 and np.array_equal(out.nums, _qpow_reference(ctx, nums, exps))


@pytest.mark.parametrize("side", CHEAP_SIDES)
def test_entrywise_product_takes_row_maxima_only_past_the_cheap_float64_bound(side, widths):
    """At n = 5 the bound is 28 times the largest max |a_i| max |b_i|: a's peak 2^47 and b's peak 2^47 sit in different rows ("cheap", 28 * 2^47 < 2^53) or b is 2^6 beside a's peak ("past", 28 * 2^53)."""
    ctx = make_context(5)
    d = ctx.degree
    a, b = np.ones((3, d), dtype=np.int64), np.ones((3, d), dtype=np.int64)
    a[0, 0], b[1, 0] = 1 << 47, 1 << 47
    if side == "past":
        b[0] = [1 << 6, 0, 0, 0]
    assert d * (2 * d - 1) * int(np.abs(a).max()) * int(np.abs(b).max()) * ctx._fold_max >= FLOAT64_LIMIT
    x, y = CycArray(ctx, a, 1), CycArray(ctx, b, 1)
    out = x * y
    assert widths == [np.float64 if side == "cheap" else np.int64]
    want = np.array([(p * r).num for p, r in zip(x.to_list(), y.to_list())], dtype=object)
    assert out.nums.dtype == np.int64 and np.array_equal(out.nums, want)
