import cmath
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taftdouble.cyclotomic import CycArray, CycNum, cyclotomic_polynomial, make_context


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_context_degrees():
    assert make_context(3).degree == 2
    assert make_context(9).degree == 6
    assert make_context(13).degree == 12


@pytest.mark.parametrize("bad", [4, 2, 1, 0, -3, 6])
def test_context_rejects_even_or_small(bad):
    with pytest.raises(ValueError, match="odd"):
        make_context(bad)


def test_root_powers():
    ctx5 = make_context(5)
    assert ctx5.root_power(5) == ctx5.one()
    assert ctx5.root_power(-1) == ctx5.root_power(4)
    ctx3 = make_context(3)
    # q^2 reduces to -1 - q
    assert ctx3.root_power(2).coeffs == (Fraction(-1), Fraction(-1))
    ctx7 = make_context(7)
    assert ctx7.root_power(-1) == ctx7.root_power(6)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_phi_vanishes_at_q(n):
    ctx = make_context(n)
    q = ctx.root_power(1)
    acc = ctx.zero()
    for e, c in enumerate(ctx.phi_n):
        acc = acc + q**e * c
    assert acc.is_zero()


def test_basic_identities():
    ctx = make_context(3)
    q = ctx.root_power(1)
    assert q + ctx.root_power(2) == ctx.from_rational(-1)
    assert q.inverse() * q == ctx.one()
    ctx5 = make_context(5)
    q5 = ctx5.root_power(1)
    geom = ctx5.from_qpowers((1, e) for e in range(5))
    assert ((q5 - 1) * geom).is_zero()


def test_invert_zero_raises():
    ctx = make_context(5)
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inverse()


def test_division_and_pow():
    ctx = make_context(7)
    x = ctx.from_coeffs([Fraction(1, 2), 3, Fraction(-2, 5), 0, 1, 0])
    assert x / x == ctx.one()
    assert x**0 == ctx.one()
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()


def test_mul_qpow_matches_generic():
    ctx = make_context(9)
    x = ctx.from_coeffs([1, Fraction(2, 3), 0, -4, 0, Fraction(1, 7)])
    for e in range(-9, 19):
        assert x.mul_qpow(e) == x * ctx.root_power(e)


def test_embed_examples():
    ctx3 = make_context(3)
    assert abs(ctx3.one().embed() - 1.0) < 1e-14
    v = ctx3.root_power(1) + ctx3.root_power(2)
    assert abs(v.embed() + 1.0) < 1e-12
    ctx5 = make_context(5)
    golden = ctx5.root_power(1) + ctx5.root_power(4)
    assert abs(golden.embed() - 2 * cmath.cos(2 * cmath.pi / 5).real) < 1e-9


def test_json_round_trip():
    ctx = make_context(7)
    x = ctx.from_coeffs([Fraction(3, 7), -2, 0, Fraction(1, 2), 0, 5])
    assert CycNum.from_json(x.to_json()) == x
    obj = x.to_json()
    assert obj["n"] == 7 and len(obj["coeffs"]) == 6
    with pytest.raises(ValueError):
        CycNum.from_json({"n": 7, "coeffs": ["1", "2"]})


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([3, 5, 9]),
    data=st.data(),
)
def test_field_axioms(n, data):
    ctx = make_context(n)
    vec = lambda: ctx.from_coeffs(
        data.draw(st.lists(_coeff, min_size=ctx.degree, max_size=ctx.degree))
    )
    x, y, z = vec(), vec(), vec()
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == ctx.zero()
    if x:
        assert x * x.inverse() == ctx.one()


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 5, 9]), data=st.data())
def test_embedding_is_ring_hom(n, data):
    ctx = make_context(n)
    vec = lambda: ctx.from_coeffs(
        data.draw(st.lists(_coeff, min_size=ctx.degree, max_size=ctx.degree))
    )
    x, y = vec(), vec()
    assert abs((x + y).embed() - (x.embed() + y.embed())) < 1e-12
    assert abs((x * y).embed() - x.embed() * y.embed()) < 1e-10


def _random_vector(ctx, size, seed):
    """Entries with mixed denominators, some zero, some integral."""
    rnd = random.Random(seed)
    out = []
    for t in range(size):
        coeffs = [Fraction(rnd.randrange(-9, 10), rnd.choice([1, 1, 2, 3, 7, 12])) for _ in range(ctx.degree)]
        out.append(ctx.zero() if t % 5 == 0 else ctx.from_coeffs(coeffs))
    return out


@pytest.mark.parametrize("n", [3, 5, 11])
def test_array_round_trip(n):
    ctx = make_context(n)
    vec = _random_vector(ctx, 3 * n, seed=n)
    assert any(x.den > 1 for x in vec)
    arr = CycArray.from_list(ctx, vec)
    assert arr.nums.shape == (3 * n, ctx.degree) and arr.nums.dtype == np.int64
    back = arr.to_list()
    assert back == vec
    assert all(a.num == b.num and a.den == b.den for a, b in zip(back, vec))
    # ints and Fractions enter as rationals
    assert CycArray.from_list(ctx, [2, Fraction(-1, 3)]).to_list() == [
        ctx.from_rational(2), ctx.from_rational(Fraction(-1, 3))
    ]
    assert CycArray.from_list(ctx, []).to_list() == []


@pytest.mark.parametrize("n", [3, 5, 11])
def test_array_embedding_matches_entrywise(n):
    ctx = make_context(n)
    vec = _random_vector(ctx, 4 * n, seed=100 + n)
    got = CycArray.from_list(ctx, vec).embed()
    want = np.array([x.embed() for x in vec])
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 11])
def test_array_scaling_and_sum(n):
    ctx = make_context(n)
    vec = _random_vector(ctx, 2 * n, seed=200 + n)
    other = _random_vector(ctx, 2 * n, seed=300 + n)
    c = ctx.from_coeffs([Fraction(1, 2)] + [Fraction(-3, 5)] * (ctx.degree - 1))
    arr = CycArray.from_list(ctx, vec)
    assert arr.scaled(c).to_list() == [x * c for x in vec]
    assert (arr + CycArray.from_list(ctx, other)).to_list() == [a + b for a, b in zip(vec, other)]
    # row e of the multiplication matrix is c * q^e
    L = ctx.mul_matrix(c)
    for e in range(ctx.degree):
        assert ctx.from_coeffs([Fraction(int(a), c.den) for a in L[e]]) == c * ctx.root_power(e)


def test_array_falls_back_to_python_ints():
    ctx = make_context(5)
    big = 3**45  # beyond int64
    vec = [ctx.from_coeffs([big, 1, 0, -big]), ctx.from_rational(Fraction(1, big)), ctx.one()]
    arr = CycArray.from_list(ctx, vec)
    assert arr.nums.dtype == object
    assert arr.to_list() == vec
    c = ctx.root_power(2) * (2**40)
    assert arr.scaled(c).to_list() == [x * c for x in vec]
    assert (arr + arr).to_list() == [x + x for x in vec]
    small = CycArray.from_list(ctx, [ctx.root_power(1)] * 3)
    assert small.nums.dtype == np.int64
    assert (small + arr).to_list() == [ctx.root_power(1) + x for x in vec]


@pytest.mark.parametrize("n", [3, 5, 11])
def test_array_equality_indexing_and_reduction(n):
    ctx = make_context(n)
    vec = _random_vector(ctx, 2 * n, seed=400 + n)
    arr = CycArray.from_list(ctx, vec)
    assert [arr[i] for i in range(len(arr))] == vec
    # the same vector over a multiple of the denominator, and past the int64 bound
    assert CycArray(ctx, arr.nums * 6, arr.den * 6) == arr
    assert CycArray(ctx, arr.nums.astype(object) * 2**70, arr.den * 2**70) == arr
    assert CycArray(ctx, arr.nums * 6, arr.den * 6).reduced().den == arr.reduced().den
    assert arr != CycArray.from_list(ctx, _bumped_first(vec))
    assert CycArray(ctx, arr.nums * 0, 5).is_zero() and not arr.is_zero()
    ones = [1] * len(vec)
    assert CycArray.from_list(ctx, ones) != CycArray.from_list(make_context(n + 2), ones)


def _bumped_first(vec):
    return [vec[0] + 1] + list(vec[1:])


@pytest.mark.parametrize("n", [3, 5, 9])
def test_qpow_blocks_multiplies_each_row_by_each_power(n):
    ctx = make_context(n)
    vec = _random_vector(ctx, 4, seed=500 + n)
    exps = [0, 1, -2, n + 3, 5 * n - 1]
    stacked = CycArray.from_list(ctx, vec).qpow_blocks(exps)
    assert stacked.to_list() == [x.mul_qpow(e) for x in vec for e in exps]
    # slice e of the table is mul_matrix(q^e), and the multiplication tensor is its first phi slices
    for e in range(n):
        assert np.array_equal(ctx._qpow_mul[e], ctx.mul_matrix(ctx.root_power(e)))
    assert np.array_equal(ctx._mul_tensor, ctx._qpow_mul[: ctx.degree])


@pytest.mark.parametrize("n", [3, 5, 11])
def test_entrywise_product_matches_the_scalar_product(n):
    ctx = make_context(n)
    vec = _random_vector(ctx, 3 * n, seed=700 + n)
    other = _random_vector(ctx, 3 * n, seed=800 + n)
    prod = CycArray.from_list(ctx, vec) * CycArray.from_list(ctx, other)
    assert prod.nums.dtype == np.int64
    assert prod.to_list() == [a * b for a, b in zip(vec, other)]


def test_entrywise_product_past_the_int64_bound_uses_python_ints():
    ctx = make_context(7)
    vec = [x * 2**61 for x in _random_vector(ctx, 6, seed=900)]
    other = _random_vector(ctx, 6, seed=901)
    prod = CycArray.from_list(ctx, vec) * CycArray.from_list(ctx, other)
    assert prod.nums.dtype == object
    assert prod.to_list() == [a * b for a, b in zip(vec, other)]


def test_line_coefficient():
    ctx = make_context(7)
    line = CycArray.from_list(ctx, _random_vector(ctx, 6, seed=600))
    c = ctx.from_coeffs([Fraction(2, 3), 0, -1, 0, 0, 5])
    assert line.scaled(c).line_coefficient(line) == c
    assert CycArray.zeros(ctx, 6).line_coefficient(line) == ctx.zero()
    assert CycArray.from_list(ctx, _bumped_first(line.scaled(c).to_list())).line_coefficient(line) is None
    assert line.line_coefficient(CycArray.zeros(ctx, 6)) is None
