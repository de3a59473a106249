"""The exact integer kernels of `cyclotomic` at their switch from int64 to Python ints.

Every kernel bounds what it computes from the values of its operands.
Operands whose bound lies just below 2^62 must give an int64 result,
operands whose bound is exactly 2^62 a Python-int (dtype=object) result,
and both must equal a reference computed on Python ints.
"""

import numpy as np
import pytest

from taftdouble.cyclotomic import (
    INT64_LIMIT,
    INT_TENSOR,
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


def _with_row_sum(rng, shape, k, density=1.0):
    """A random integer array whose largest absolute sum along the last axis is exactly 2^k."""
    a = rng.integers(-3, 4, shape) * (rng.random(shape) < density)
    sums = np.abs(a).sum(axis=-1)
    top = np.unravel_index(np.argmax(sums), sums.shape) + (0,)
    a[top] += (1 if a[top] >= 0 else -1) * ((1 << k) - int(sums[top[:-1]]))
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
    a = _with_row_sum(rng, batch + (5, 7), 6)
    b = _with_max(rng, batch + (7, 4), (1 << 56) - (not at_limit))
    assert _row_sum_bound(a) * int(np.abs(b).max()) == INT64_LIMIT - (not at_limit) * 64
    out = int_matmul(a, b)
    assert out.dtype == _expected_dtype(at_limit)
    assert np.array_equal(out, _py(a) @ _py(b))


@pytest.mark.parametrize("at_limit", SIDES)
def test_sparse_product_switches_at_the_row_sum_bound(at_limit):
    rng = np.random.default_rng(12)
    A = _with_row_sum(rng, (8, 9), 5, density=0.4)
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
    out = gather_products(a, b, INT_TENSOR, np.zeros((4, 4), dtype=np.int64), 2)
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
    out = gather_products(a, b, ctx._mul_tensor, target, 6)
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
    out = poly_products(a, b, INT_TENSOR)
    assert out.dtype == _expected_dtype(at_limit)
    for s in range(3):
        want = [sum(int(a[s, i, 0]) * int(b[s, t - i, 0]) for i in range(4) if 0 <= t - i < 4) for t in range(7)]
        assert out[s, :, 0].tolist() == want
