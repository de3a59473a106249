import cmath
import json
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taftdouble.cyclotomic as cyclotomic
from taftdouble.cyclotomic import (
    INT64_LIMIT,
    CycArray,
    CycNum,
    cyclotomic_polynomial,
    json_texts,
    make_context,
    reduce_mod_p,
    split_prime,
)


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


@settings(max_examples=200, deadline=None)
@given(
    nums=st.lists(st.integers(-10**30, 10**30) | st.sampled_from([0, -1, 1]), min_size=2, max_size=2),
    den=st.integers(1, 10**12) | st.just(1),
)
def test_json_coefficients_are_written_as_fractions(nums, den):
    """Each coordinate string is str(Fraction(a, den)), zero, negative numerators and den = 1 included."""
    ctx = make_context(3)
    x = CycNum(ctx, tuple(nums), den)
    assert x.to_json() == {"n": 3, "coeffs": [str(Fraction(a, den)) for a in nums]}


def _encode_reference(x):
    """The per-entry route of the CLI before the batch encoder: a plain int where integral, else each coordinate by its own gcd."""
    if x.den == 1 and not any(x.num[1:]):
        return x.num[0]
    den, gs = x.den, [gcd(a, x.den) for a in x.num]
    coeffs = [str(a // g) if g == den else f"{a // g}/{den // g}" for a, g in zip(x.num, gs)]
    return {"n": x.ctx.n, "coeffs": coeffs}


def _reference_text(value):
    """json.dumps(sort_keys=True) of the per-entry form of a CycArray (a list) or a CycNum (one entry)."""
    if isinstance(value, CycArray):
        return json.dumps([_encode_reference(x) for x in value.to_list()], sort_keys=True)
    return json.dumps(_encode_reference(value), sort_keys=True)


_ROW_KINDS = ("raw", "zero", "shared", "integral", "bound", "integral-bound")

# coefficients on either side of the token tables' bound and of the smallest table's, within one row
_BOUND = cyclotomic.TOKEN_BOUND
_EDGES = [sign * (b + e) for b in (cyclotomic.TOKEN_MIN_BOUND, _BOUND) for sign in (1, -1) for e in (-1, 0, 1)]


def _draw_array(data, ctx, den, factor, scale, den_scale, max_size=8):
    """Negative numerators, zero rows, rows sharing a factor with den, integral rows, rows straddling the table bound, object arrays.

    A "bound" row draws every coordinate from TOKEN_BOUND - 1 .. TOKEN_BOUND + 1,
    TOKEN_MIN_BOUND - 1 .. TOKEN_MIN_BOUND + 1 and their negatives; an "integral-bound" row is integral with a first
    numerator at the last multiple of den inside the bound or the first past
    it.  The array holds Python ints when scaled, and when drawn so (then
    with its small values and integral rows unchanged).
    """
    d = ctx.degree
    coeff = st.integers(-12, 12) | st.sampled_from(_EDGES) | st.integers(-10**6, 10**6)
    rows = []
    for kind in data.draw(st.lists(st.sampled_from(_ROW_KINDS), max_size=max_size)):
        row = data.draw(st.lists(coeff, min_size=d, max_size=d))
        if kind == "zero":
            row = [0] * d
        elif kind == "shared":
            row = [factor * a for a in row]
        elif kind == "integral":
            row = [den * row[0]] + [0] * (d - 1)
        elif kind == "bound":
            row = data.draw(st.lists(st.sampled_from(_EDGES), min_size=d, max_size=d))
        elif kind == "integral-bound":
            sign, past = data.draw(st.sampled_from([1, -1])), data.draw(st.booleans())
            row = [sign * den * (_BOUND // den + past)] + [0] * (d - 1)
        rows.append(row)
    nums = np.array(rows, dtype=np.int64).reshape(len(rows), d)
    if scale > 1 or data.draw(st.booleans()):
        nums = nums.astype(object) * scale
    return CycArray(ctx, nums, den * den_scale)


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([3, 5, 9, 15]),
    data=st.data(),
    factor=st.sampled_from([2, 3, 6, 11]),
    den=st.integers(1, 1331),
    scale=st.sampled_from([1, 1, 2**62 + 1, 3**45]),
    den_scale=st.sampled_from([1, 1, 2**62]),
)
def test_array_json_matches_the_entrywise_route(n, data, factor, den, scale, den_scale):
    """The encoded text of an array, of each of its entries and of each canonical CycNum is json.dumps of the per-entry form."""
    ctx = make_context(n)
    v = _draw_array(data, ctx, den * factor, factor, scale, den_scale)
    entries = v.to_list()
    got = json_texts([v, *v.entries(), *entries])
    assert got[0] == _reference_text(v)
    assert got[1:] == [_reference_text(x) for x in entries] * 2


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([3, 5, 9]),
    data=st.data(),
    budget=st.integers(1, 7),
    den=st.integers(1, 99),
    scale=st.sampled_from([1, 2**62 + 1]),
)
def test_values_straddling_a_batch_boundary(n, data, budget, den, scale):
    """With a budget of a few rows, arrays run across batches, mixed with scalars and entries, empty arrays included."""
    ctx = make_context(n)
    arrays = [_draw_array(data, ctx, den * 3, 3, scale, 1) for _ in range(data.draw(st.integers(1, 4)))]
    values = []
    for v in arrays:
        values += [v, *v.entries()[:2], *v.to_list()[-2:]]
    values = data.draw(st.permutations(values))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cyclotomic, "JSON_BATCH_ROWS", budget)
        got = json_texts(values)
    assert got == [_reference_text(v.array[v.row] if hasattr(v, "row") else v) for v in values]


def test_the_batch_budget_is_crossed_at_its_default():
    """An array longer than JSON_BATCH_ROWS, one ending on the boundary and short ones around them."""
    ctx = make_context(3)
    budget = cyclotomic.JSON_BATCH_ROWS
    rnd = np.random.default_rng(3)
    sizes = [5, budget + 17, budget - 22, 0, 1, 3 * budget]
    values = [CycArray(ctx, rnd.integers(-50, 50, size=(m, ctx.degree)), 6) for m in sizes]
    values.insert(3, ctx.root_power(1) / 7)
    assert sum(map(len, values[:3])) == 2 * budget
    assert json_texts(values) == [_reference_text(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    data=st.data(),
    python_ints=st.booleans(),
)
def test_integer_matrices_are_written_as_json_dumps_of_their_rows(shape, data, python_ints):
    """Negative, zero and past-the-table entries, empty shapes, and Python ints past int64."""
    entry = st.integers(-3, 3) | st.sampled_from(_EDGES) | st.integers(-10**9, 10**9)
    if python_ints:
        entry = entry | st.integers(-10**30, 10**30)
    flat = data.draw(st.lists(entry, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    m = np.array(flat, dtype=object if python_ints else np.int64).reshape(shape)
    assert json_texts([m, m.T]) == [json.dumps(m.tolist()), json.dumps(m.T.tolist())]


def test_json_texts_writes_one_field():
    with pytest.raises(ValueError, match="one field"):
        json_texts([make_context(7).one(), CycArray.zeros(make_context(9), 2)])
    assert json_texts([]) == []


@pytest.mark.parametrize("n", range(3, 12, 2))
def test_array_embedding_is_bit_identical_to_the_entrywise_route(n):
    """`CycArray.embed` equals `CycNum.embed` of each canonical entry bit for bit: random arrays and the certificate vectors."""
    from taftdouble.spectral import certificates

    ctx = make_context(n)
    rnd = random.Random(n)
    arrays = []
    for den in (1, 6, n, n**3, 77, 2**70 + 1):
        rows = [[rnd.choice([0, 0, rnd.randrange(-10**6, 10**6), rnd.randrange(-5, 5) * den]) for _ in range(ctx.degree)]
                for _ in range(3 * n)]
        nums = np.array(rows, dtype=object)
        arrays.append(CycArray(ctx, nums if den > 2**62 else nums.astype(np.int64), den))
    for cert in certificates(n):
        arrays += [v for v in (cert.right, cert.left, cert.gen_right, cert.gen_left) if v is not None]
    for v in arrays:
        want = np.array([x.embed() for x in v.to_list()], dtype=complex)
        assert v.embed().view(np.int64).tolist() == want.view(np.int64).tolist()


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
    stacked = CycArray.from_list(ctx, vec).qpow([exps])  # one block of every row
    assert stacked.to_list() == [x.mul_qpow(e) for x in vec for e in exps]
    # row e of slice k of the multiplication tensor is q^(k+e), read through the complex embedding
    images = CycArray(ctx, ctx._mul_tensor.reshape(-1, ctx.degree), 1).embed().reshape(ctx.degree, ctx.degree)
    k, e = np.indices(images.shape)
    assert np.allclose(images, np.exp(2j * np.pi * (k + e) / n))


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


@pytest.mark.parametrize("n,big", [(11, 1), (13, 1), (7, 2**61)])
def test_entrywise_product_of_long_arrays_matches_the_short_route(n, big):
    """In float64 a long product runs block by block (three blocks of rows here); on Python ints by shifted columns. Both must agree row by row with short products."""
    ctx = make_context(n)
    size = 2 * (cyclotomic.BLAS_CALL_WORK // ctx.degree ** 3) + 7
    assert len(cyclotomic._row_blocks(size, ctx.degree ** 3)) == 3
    vec = _random_vector(ctx, size, seed=1000 + n)
    vec = [x * big for x in vec]
    other = _random_vector(ctx, size, seed=1100 + n)
    a, b = CycArray.from_list(ctx, vec), CycArray.from_list(ctx, other)
    prod = a * b
    assert prod.nums.dtype == (object if big > 1 else np.int64)
    for start in range(0, size, 50):
        rows = slice(start, start + 50)
        assert (a.take(rows) * b.take(rows)) == prod.take(rows)
    assert prod.to_list()[:40] == [x * y for x, y in zip(vec[:40], other[:40])]


def test_concat_take_and_negation():
    ctx = make_context(5)
    vec = _random_vector(ctx, 6, seed=1200)
    other = _random_vector(ctx, 3, seed=1201)
    a, b = CycArray.from_list(ctx, vec), CycArray.from_list(ctx, other)
    assert CycArray.concat(ctx, [a, b]).to_list() == vec + other
    assert CycArray.concat(ctx, [a.take([4, 1]), -b]).to_list() == [vec[4], vec[1]] + [-x for x in other]
    assert CycArray.concat(ctx, []).nums.shape == (0, ctx.degree)


def test_line_coefficient():
    ctx = make_context(7)
    line = CycArray.from_list(ctx, _random_vector(ctx, 6, seed=600))
    c = ctx.from_coeffs([Fraction(2, 3), 0, -1, 0, 0, 5])
    assert line.scaled(c).line_coefficient(line) == c
    assert CycArray.zeros(ctx, 6).line_coefficient(line) == ctx.zero()
    assert CycArray.from_list(ctx, _bumped_first(line.scaled(c).to_list())).line_coefficient(line) is None
    assert line.line_coefficient(CycArray.zeros(ctx, 6)) is None


@pytest.mark.parametrize("n", [3, 5, 9, 15])
def test_reduce_mod_p_is_the_entrywise_map(n):
    """q -> omega on a numerator array over one den, as the per-entry sum of c_k omega^k / den mod p."""
    ctx = make_context(n)
    p, omega = split_prime(n)
    rnd = np.random.default_rng(n)
    small = rnd.integers(-2**40, 2**40, (4, 3, ctx.degree))
    for nums in (small, small.astype(object) * 2**70 + 1):
        want = [
            [sum(int(c) * pow(omega, k, p) for k, c in enumerate(entry)) * pow(9, -1, p) % p for entry in row]
            for row in nums.tolist()
        ]
        got = reduce_mod_p(nums, 9, n)
        assert got.dtype == np.int64 and got.tolist() == want
    assert reduce_mod_p(small, 3 * p, n) is None


def test_from_qpowers_sums_the_counted_powers():
    ctx = make_context(9)
    counts = np.array([[1, 0, 2, 0, 0, 0, 0, 0, -1], [0] * 9, [1] * 9])
    got = CycArray.from_qpowers(ctx, counts).to_list()
    assert got == [ctx.from_qpowers([(1, 0), (2, 2), (-1, 8)]), ctx.zero(), ctx.from_qpowers((1, e) for e in range(9))]


def _embedding_cases(ctx, rng):
    """CycArrays over den 1 and over dens > 1, with rows that share a factor f or all of den with it, a zero row and negative numerators; in int64 and on Python ints."""
    d = ctx.degree
    cases = []
    for den, f in ((1, 1), (3 * ctx.n, 3), (15 << 40, 5 << 20), (3 * (2**70 + 1), 3)):
        nums = rng.integers(-10**6, 10**6, (4 * ctx.n, d)).astype(object)
        nums[1] = 0
        nums[2] *= f
        nums[3] = [-den * k for k in range(1, d + 1)]  # integral entries
        if den < INT64_LIMIT:
            cases.append(CycArray(ctx, nums.astype(np.int64), den))
        else:
            nums[4, 0] = -(2**65 + 1)
        cases.append(CycArray(ctx, nums, den))
    return cases


@pytest.mark.parametrize("n", [3, 11, 15])
def test_array_embedding_is_the_entrywise_embedding_value_for_value(n):
    """`CycArray.embed` sums each entry column by column; every complex image equals `CycNum.embed` of the canonical entry, bit for bit."""
    ctx = make_context(n)
    for v in _embedding_cases(ctx, np.random.default_rng(60 + n)):
        got = v.embed()
        want = np.array([x.embed() for x in v.to_list()], dtype=complex)
        assert got.shape == (len(v),)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("n", [3, 11, 15])
def test_concat_and_same_fractions_leave_their_inputs_alone(n):
    """Neither returns an array that shares memory with an input, nor writes into one; a lone int64 input is read, not copied, by `int_combination`."""
    ctx = make_context(n)
    parts = _embedding_cases(ctx, np.random.default_rng(70 + n))[:4]
    before = [p.nums.copy() for p in parts]
    for group in ([parts[0]], [parts[0], parts[1]], parts[2:], parts):
        joined = CycArray.concat(ctx, group)
        assert not any(np.shares_memory(joined.nums, p.nums) for p in parts)
        assert joined.to_list() == [x for p in group for x in p.to_list()]
    for a, b in ((parts[0], parts[0]), (parts[0], parts[1]), (parts[2], parts[3])):
        assert cyclotomic.same_fractions(a.nums, a.den, b.nums, b.den) == (a.to_list() == b.to_list())
    assert all(np.array_equal(p.nums, x) and p.nums.dtype == x.dtype for p, x in zip(parts, before))
    lone = parts[0].nums
    assert cyclotomic.int_combination([(1, lone)]) is lone
