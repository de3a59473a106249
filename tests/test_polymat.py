import random
from fractions import Fraction

import numpy as np
import pytest

from taftdouble.cyclotomic import (
    CycArray, int_combination, make_context, reduce_mod_p, sparse_product, sparse_rows, split_prime,
)
from taftdouble.grring import groth_ring
from taftdouble.polymat import CheckFailure, RingMatrix, array_rank, rank_mod_p, relation
from taftdouble.spectral import EigIndex, build_fusion_from_rules, certificates, groth_decomposition, spectral_tables

from polynomial_reference import RingPoly, poly_derivative, poly_divmod, poly_gcd, poly_monic


def test_poly_arithmetic():
    p = RingPoly([1, 2, 3])
    q = RingPoly([0, -1])
    assert (p + q).coeffs == [1, 1, 3]
    assert (p * q).coeffs == [0, -1, -2, -3]
    assert (p - p).is_zero()
    assert p.degree() == 2 and RingPoly([]).degree() == -1
    assert p.eval(2) == 1 + 4 + 12


def test_poly_trailing_zeros_trimmed():
    assert RingPoly([1, 0, 0]).coeffs == [1]
    assert (RingPoly([1, 1]) - RingPoly([0, 1])).degree() == 0


def test_poly_divmod_and_gcd():
    """The scalar references of `polynomial_reference`, which other tests use as cross-checks."""
    p = RingPoly([Fraction(-1), Fraction(0), Fraction(1)])  # t^2 - 1
    d = RingPoly([Fraction(1), Fraction(1)])  # t + 1
    q, r = poly_divmod(p, d)
    assert r.is_zero() and q.coeffs == [Fraction(-1), Fraction(1)]
    assert poly_gcd(p, d) == poly_monic(d)
    sq = p * p
    assert poly_gcd(sq, poly_derivative(sq)) == poly_monic(p)


def test_poly_division_over_cyclotomic_field():
    ctx = make_context(5)
    zero, one = ctx.zero(), ctx.one()
    lam = ctx.root_power(1) + ctx.root_power(-1)
    d = RingPoly([lam, one], zero)  # t + lam
    e = RingPoly([lam * 2, one * 3], zero)  # 3t + 2 lam
    p = d * e
    q, r = poly_divmod(p, d)
    assert r.is_zero() and q == e
    q2, r2 = poly_divmod(p + RingPoly([one], zero), d)
    assert q2 == e and r2 == RingPoly([one], zero)


def test_matrix_shapes_and_errors():
    a = RingMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="shape"):
        a * RingMatrix([[1, 2, 3]])
    with pytest.raises(ValueError, match="shape"):
        a + RingMatrix([[1, 2, 3]])
    with pytest.raises(ValueError, match="ragged"):
        RingMatrix([[1, 2], [3]])


def test_matrix_identities():
    rnd = random.Random(7)
    for _ in range(5):
        mats = [
            RingMatrix([[rnd.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            for _ in range(3)
        ]
        a, b, c = mats
        assert (a * b) * c == a * (b * c)
        assert (a + b).transpose() == a.transpose() + b.transpose()
        assert a * RingMatrix.identity(3) == a
    z = RingMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert z**3 == RingMatrix.identity(3)
    assert z.char_poly_small() == [Fraction(-1), 0, 0, Fraction(1)]


def test_pow_matches_repeated_products():
    ctx = make_context(7)
    q = ctx.root_power
    m = RingMatrix([[q(1), q(3) + 2, ctx.zero()], [ctx.one(), q(5), q(2) - 1], [q(6), ctx.zero(), q(4) * 3]])
    expect = RingMatrix.identity(3, ctx.one(), ctx.zero())
    for k in range(10):
        assert m**k == expect, k
        expect = expect * m
    with pytest.raises(ValueError):
        m ** -1


def test_rank_and_kernel():
    ones = RingMatrix([[1, 1], [1, 1]])
    assert ones.rank_over_field() == 1
    ident = RingMatrix.identity(4)
    assert ident.kernel_basis_over_field() == []
    m = RingMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank_over_field() == 2
    for v in m.kernel_basis_over_field():
        assert not any(m.mat_vec(v))
    assert len(m.kernel_basis_over_field()) == 1
    # rank + nullity = cols
    assert m.rank_over_field() + len(m.kernel_basis_over_field()) == m.ncols


def test_rank_matches_numeric_oracle_over_cyclotomic_field():
    ctx = make_context(5)
    rnd = random.Random(11)
    for _ in range(6):
        rows = [
            [
                ctx.from_coeffs([Fraction(rnd.randint(-2, 2)) for _ in range(4)])
                for _ in range(4)
            ]
            for _ in range(4)
        ]
        # force a dependent row half the time
        if rnd.random() < 0.5:
            rows[3] = [a + b for a, b in zip(rows[0], rows[1])]
        m = RingMatrix(rows)
        exact = m.rank_over_field()
        numeric = np.linalg.matrix_rank(
            np.array([[x.embed() for x in row] for row in m.rows]), tol=1e-9
        )
        assert exact == int(numeric)
        for v in m.kernel_basis_over_field(one=ctx.one()):
            assert all(x.is_zero() for x in m.mat_vec(v))


def test_char_poly_dimension_limit():
    big = RingMatrix.identity(33)
    with pytest.raises(ValueError, match="32"):
        big.char_poly_small()


def test_char_poly_over_cyclotomic_entries():
    ctx = make_context(3)
    q = ctx.root_power(1)
    m = RingMatrix([[q, ctx.zero()], [ctx.zero(), q * q]])
    cp = m.char_poly_small()
    # (t - q)(t - q^2) = t^2 + t + 1 since q + q^2 = -1, q^3 = 1
    assert cp == [ctx.one(), ctx.one(), ctx.one()]


def _bump(vec: CycArray, pos, amount=1) -> CycArray:
    """vec with one power-basis coefficient of entry pos changed."""
    out = vec.to_list()
    out[pos] = out[pos] + amount
    return CycArray.from_list(vec.ctx, out)


@pytest.mark.parametrize("side", ["right", "left"])
def test_relation_certifies_and_rejects_one_coefficient(side):
    n = 5
    M = groth_ring(n).mckay_v20()
    ctx = make_context(n)
    cert = next(c for c in certificates(n) if c.index == EigIndex(2, 3))
    vec, gen = (cert.right, cert.gen_right) if side == "right" else (cert.left, cert.gen_left)
    lam = [cert.lam]
    assert relation(M, vec, lam, side, ["eigen"]) < 1e-12
    assert relation(M, gen, lam, side, ["Jordan"], vec) < 1e-12
    q = ctx.root_power(1)
    for pos in (0, len(vec) // 2, len(vec) - 1):
        with pytest.raises(CheckFailure, match=f"^eigen: {side} relation fails at coordinate"):
            relation(M, _bump(vec, pos, q), lam, side, ["eigen"])
        with pytest.raises(CheckFailure):
            relation(M, _bump(gen, pos), lam, side, ["Jordan"], vec)
        with pytest.raises(CheckFailure):
            relation(M, gen, lam, side, ["Jordan"], _bump(vec, pos, q))
    with pytest.raises(CheckFailure, match="my claim"):
        relation(M, vec, [cert.lam + q], side, ["my claim"])
    with pytest.raises(CheckFailure):
        relation(M, gen, [cert.lam + 1], side, ["Jordan"], vec)


def test_relation_with_denominators():
    n = 3
    dec = groth_decomposition(n)
    M = groth_ring(n).mckay_v20()
    idx = EigIndex(1, 2)
    lam = spectral_tables(n).lam(idx)
    f, g = dec.radical_coords[idx], dec.jordan_coords(idx.r)  # h = 1: G_{1,r} alone
    assert any(x.den > 1 for x in f.to_list() + g.to_list())
    relation(M, f, [lam], "left", ["F"])
    relation(M, g, [lam], "left", ["G"], f)
    with pytest.raises(CheckFailure):
        relation(M, g, [lam], "left", ["G"], _bump(f, 4, dec.ctx.from_rational(Fraction(1, 3))))
    # the pair as one stack over its common denominator, with a zero chain block for F
    ctx = dec.ctx
    pair, chains = CycArray.concat(ctx, [f, g]), CycArray.concat(ctx, [CycArray.zeros(ctx, len(f)), f])
    assert relation(M, pair, [lam, lam], "left", ["F", "G"], chains) < 1e-12
    with pytest.raises(CheckFailure, match="^G: left relation") as failure:
        relation(M, pair, [lam, lam], "left", ["F", "G"], _bump(chains, len(f) + 4, ctx.from_rational(Fraction(1, 3))))
    assert failure.value.vectors == [1]


@pytest.mark.parametrize("scale", [2**61, 3**45])
def test_relation_beyond_int64_uses_python_ints(scale):
    """Scaled eigen pairs break the int64 bound (3^45 does not even fit); both verdicts stay right."""
    n = 5
    M = groth_ring(n).mckay_v20()
    cert = next(c for c in certificates(n) if c.index == EigIndex(1, 2))
    right = CycArray.from_list(cert.lam.ctx, [x * scale for x in cert.right.to_list()])
    gen = CycArray.from_list(cert.lam.ctx, [x * scale for x in cert.gen_right.to_list()])
    assert right.max_abs() * 4 >= 2**62
    lam = [cert.lam]
    relation(M, right, lam, "right", ["eigen"])
    relation(M, gen, lam, "right", ["Jordan"], right)
    with pytest.raises(CheckFailure):
        relation(M, _bump(right, 7), lam, "right", ["eigen"])
    with pytest.raises(CheckFailure):
        relation(M, gen, lam, "right", ["Jordan"], _bump(right, 7))


def test_relation_input_errors():
    M = groth_ring(3).mckay_v20()
    ctx = make_context(3)
    lam = ctx.one()
    nine = CycArray.from_list(ctx, [lam] * 9)
    with pytest.raises(ValueError):
        relation(M, nine, [lam], "up", ["x"])
    with pytest.raises(ValueError):
        relation(M, CycArray.from_list(ctx, [lam] * 8), [lam], "right", ["x"])
    with pytest.raises(ValueError):  # 18 entries are not three vectors of length 9
        relation(M, CycArray.concat(ctx, [nine, nine]), [lam] * 3, "right", ["x"] * 3)
    with pytest.raises(ValueError):  # one label short
        relation(M, nine, [lam], "right", [])
    with pytest.raises(ValueError):
        relation(M, nine, [lam], "right", ["x"], CycArray.concat(ctx, [nine, nine]))
    with pytest.raises(TypeError):
        relation(RingMatrix([[lam]]), CycArray.from_list(ctx, [lam]), [lam], "right", ["x"])
    with pytest.raises(TypeError):
        relation(M.astype(float), nine, [lam], "right", ["x"])


@pytest.mark.parametrize("entry", [True, Fraction(1, 2), Fraction(3), make_context(3).root_power(1), 1.0])
def test_int_array_rejects_non_integer_entries(entry):
    """`relation` reads its matrix only as an int64 (integer) array and rejects every other entry type."""
    ctx = make_context(3)
    vec = CycArray.from_list(ctx, [1])
    for matrix in (np.array([[entry]]), np.array([[2**70, entry]], dtype=object)[:, 1:], [[1]]):
        with pytest.raises(TypeError, match="integer numpy array"):
            relation(matrix, vec, [ctx.one()], "right", ["x"])


def _relation_reference(M, vec, lam, side, chain=None, what="relation") -> float:
    """The single-vector statement of `relation` that the stacked call replaced, kept as its cross-check.

    Certifies dl*dc * (A v) == dc * (v lam) + dv*dl * c for one vector and
    returns max |A v - lam v - c| / max(1, max |v|) under the embedding.
    """
    A = M.T if side == "left" else M
    dl, dv = lam.den, vec.den
    dc = 1 if chain is None else chain.den
    cols, vals = sparse_rows(A)
    lhs = int_combination([(dl * dc, sparse_product((cols, vals), vec.nums))])
    rhs_terms = [(dc, vec.scaled(lam).nums)]
    if chain is not None:
        rhs_terms.append((dv * dl, chain.nums))
    rhs = int_combination(rhs_terms)
    if not np.array_equal(lhs, rhs):
        bad = int(np.flatnonzero((lhs != rhs).any(axis=1))[0])
        raise CheckFailure(f"{what}: {side} relation fails at coordinate {bad}")
    vn = vec.embed()
    resid = sparse_product((cols, vals), vn[:, None])[:, 0] - lam.embed() * vn
    if chain is not None:
        resid = resid - chain.embed()
    return float(np.max(np.abs(resid)) / max(1.0, float(np.max(np.abs(vn)))))


def _families(n):
    """(matrix, side, stack, eigenvalues, chains) for every family at every r.

    The certificates' stacks (eigenvectors with zero chain blocks, then the
    Jordan completions chained to them) against the McKay matrix of V(2,0),
    and the fusion stacks against the fusion matrix.
    """
    tab = spectral_tables(n)
    M, Nr, h, size = groth_ring(n).mckay_v20(), build_fusion_from_rules(n), tab.h, n * n
    for r in range(n):
        lams = [tab.lam(EigIndex(j, r)) for j in range(h + 1)]
        for side in ("right", "left"):
            stack = tab.stack(side)[r]
            head = stack.nums[:(h + 1) * size]
            chains = CycArray(tab.ctx, np.concatenate([np.zeros_like(head), head[size:]]), stack.den)
            yield M, side, stack, lams + lams[1:], chains
            yield Nr, side, tab.stack(f"fusion_{side}")[r], lams, None


def _reference_verdicts(M, side, stack, lams, chains):
    """Per vector of the stack, the reference residual, or None where the reference rejects the vector."""
    size = len(M)
    out = []
    for k, lam in enumerate(lams):
        part = slice(k * size, (k + 1) * size)
        chain = None if chains is None or not chains.nums[part].any() else chains.take(part)
        try:
            out.append(_relation_reference(M, stack.take(part), lam, side, chain))
        except CheckFailure:
            out.append(None)
    return out


@pytest.mark.parametrize("n", [3, 5, 7])
def test_stacked_relation_matches_the_single_vector_reference(n):
    """On every family, one stacked call gives the reference's verdict and the bits of its largest residual."""
    for M, side, stack, lams, chains in _families(n):
        labels = [f"vector {k}" for k in range(len(lams))]
        want = _reference_verdicts(M, side, stack, lams, chains)
        assert None not in want
        assert relation(M, stack, lams, side, labels, chains) == max(want)
        # one coefficient of the last vector, of the first, then of both raised: the same vectors fail
        for positions in ([len(stack) - 1], [1], [1, len(stack) - 1]):
            bumped = stack
            for pos in positions:
                bumped = _bump(bumped, pos)
            want = _reference_verdicts(M, side, bumped, lams, chains)
            with pytest.raises(CheckFailure) as failure:
                relation(M, bumped, lams, side, labels, chains)
            assert failure.value.vectors == [k for k, x in enumerate(want) if x is None]
            assert len(failure.value.vectors) == len(positions)
            assert str(failure.value).startswith(f"vector {positions[0] // len(M)}: {side} relation fails")


def _random_cyc(ctx, rnd, den=1):
    return ctx.from_coeffs([Fraction(rnd.randint(-3, 3), den) for _ in range(ctx.degree)])


@pytest.mark.parametrize("n", [3, 5, 7])
def test_rank_mod_p_agrees_with_exact_elimination(n):
    """Full rank over F_p certifies full rank; deficient matrices fall back to the exact rank."""
    ctx = make_context(n)
    rnd = random.Random(n)
    for trial in range(8):
        rows = [[_random_cyc(ctx, rnd, rnd.choice((1, 2, 9))) for _ in range(5)] for _ in range(3 + trial % 3)]
        if trial % 2:
            # a dependent row: a Q(q)-combination of two others
            c = _random_cyc(ctx, rnd)
            rows[-1] = [a * c + b for a, b in zip(rows[0], rows[1])]
        for m in (RingMatrix(rows), RingMatrix(rows).transpose()):
            exact = len(m._echelon()[0])
            assert m.rank_over_field() == exact
            image = reduce_mod_p(_stack(ctx, m).nums.reshape(m.nrows, m.ncols, -1), _stack(ctx, m).den, n)
            assert image is None or rank_mod_p(image, split_prime(n)[0]) <= exact
            assert (exact < min(m.nrows, m.ncols)) == bool(trial % 2)


def test_split_prime_maps_q_to_an_element_of_order_n():
    for n in (1, 3, 5, 7, 9, 11, 13, 15):
        p, omega = split_prime(n)
        assert p % (2 * n) == 1 and p > 2**30 and p < 2**31
        assert all(p % f for f in range(2, 2**16))
        assert pow(omega, n, p) == 1
        assert all(pow(omega, k, p) != 1 for k in range(1, n))
        # omega is a root of Phi_n modulo p
        phi = make_context(n).phi_n if n > 1 else (-1, 1)
        assert sum(c * pow(omega, e, p) for e, c in enumerate(phi)) % p == 0


def test_rank_singular_mod_p_only_takes_the_exact_route(monkeypatch):
    """A rational matrix with an entry p + 1 has determinant p: singular over F_p, invertible over Q."""
    n = 3
    ctx = make_context(n)
    p, _ = split_prime(n)
    a = CycArray.from_list(ctx, [1, 1, 0, 1, 1 + p, 0, 0, 0, 1])
    assert rank_mod_p(reduce_mod_p(a.nums.reshape(3, 3, -1), a.den, n), p) == 2
    calls = _echelon_spy(monkeypatch)
    assert array_rank(a, 3) == 3 and calls
    calls.clear()
    assert array_rank(CycArray.from_list(ctx, [Fraction(1, 2), 1, 1, 3]), 2) == 2 and not calls


def test_rank_denominator_divisible_by_p_falls_back(monkeypatch):
    """A rational entry over p has no image in F_p; the rank is still exact."""
    n = 3
    ctx = make_context(n)
    p, _ = split_prime(n)
    a = CycArray.from_list(ctx, [Fraction(1, p), 1, 1, 1])
    assert reduce_mod_p(a.nums, a.den, n) is None
    calls = _echelon_spy(monkeypatch)
    assert array_rank(a, 2) == 2 and calls


def test_cartan_rank_is_certified_without_elimination(monkeypatch):
    """The rank mod p and the certified kernel basis meet at n(n+1)/2, so `_echelon` never runs."""
    def no_elimination(self):
        raise AssertionError("the Cartan rank eliminated over Q")

    monkeypatch.setattr(RingMatrix, "_echelon", no_elimination)
    for n in range(3, 12, 2):
        assert groth_ring(n).cartan_rank() == n * (n + 1) // 2


def test_rank_mod_p_of_an_integer_array():
    """The array elimination behind `array_rank`, on residues; its input is left as it was."""
    p, _ = split_prime(1)
    rnd = np.random.default_rng(5)
    A = rnd.integers(-4, 5, (6, 8))
    A[5] = 3 * A[0] - A[2]
    residues = A % p
    assert rank_mod_p(residues, p) == RingMatrix(A.tolist()).rank_over_field() == 5
    assert np.array_equal(residues, A % p)
    assert rank_mod_p(np.array([[1, 1], [1, 1 + p]]) % p, p) == 1
    assert rank_mod_p(np.zeros((3, 0), dtype=np.int64), p) == 0


def test_sparse_product_matches_the_dense_product():
    rnd = np.random.default_rng(3)
    A = rnd.integers(-3, 4, (7, 9)) * (rnd.random((7, 9)) < 0.4)
    A[2] = 0
    B = rnd.integers(-5, 6, (9, 4))
    assert np.array_equal(sparse_product(sparse_rows(A), B), A @ B)
    big = B.astype(object) * 2**70
    assert np.array_equal(sparse_product(sparse_rows(A), big), A.astype(object) @ big)


def _echelon_spy(monkeypatch):
    """A list that grows by one at every exact elimination."""
    calls = []
    exact = RingMatrix._echelon
    monkeypatch.setattr(RingMatrix, "_echelon", lambda self: calls.append(1) or exact(self))
    return calls


def _stack(ctx, m):
    """The entries of a RingMatrix, row by row, as one CycArray."""
    return CycArray.from_list(ctx, [a for row in m.rows for a in row])


@pytest.mark.parametrize("n", [3, 5, 7])
def test_array_rank_agrees_with_the_ring_matrix_route(monkeypatch, n):
    """The matrices of `test_rank_mod_p_agrees_with_exact_elimination` as stacks: same ranks; only the deficient ones eliminate."""
    ctx = make_context(n)
    rnd = random.Random(n)
    calls = _echelon_spy(monkeypatch)
    for trial in range(8):
        rows = [[_random_cyc(ctx, rnd, rnd.choice((1, 2, 9))) for _ in range(5)] for _ in range(3 + trial % 3)]
        if trial % 2:
            c = _random_cyc(ctx, rnd)
            rows[-1] = [a * c + b for a, b in zip(rows[0], rows[1])]
        for m in (RingMatrix(rows), RingMatrix(rows).transpose()):
            want = m.rank_over_field()
            calls.clear()
            assert array_rank(_stack(ctx, m), m.ncols) == want
            assert bool(calls) == bool(trial % 2)


def test_array_rank_singular_mod_p_only_takes_the_exact_route(monkeypatch):
    """An entry p + 1 makes the determinant p: singular over F_p, invertible over Q(q)."""
    n = 5
    ctx = make_context(n)
    p, _ = split_prime(n)
    m = RingMatrix([[ctx.from_rational(x) for x in row] for row in ([1, 1, 0], [1, 1 + p, 0], [0, 0, 1])])
    assert rank_mod_p(reduce_mod_p(_stack(ctx, m).nums.reshape(3, 3, -1), 1, n), p) == 2
    calls = _echelon_spy(monkeypatch)
    assert array_rank(_stack(ctx, m), 3) == 3 and calls
    calls.clear()
    assert m.rank_over_field() == 3 and calls
    calls.clear()
    assert array_rank(CycArray.from_list(ctx, [1, 1, 1, 2]), 2) == 2 and not calls


def test_array_rank_denominator_divisible_by_p_falls_back(monkeypatch):
    n = 5
    ctx = make_context(n)
    p, _ = split_prime(n)
    q = ctx.root_power(1)
    a = CycArray.from_list(ctx, [q * Fraction(1, p), ctx.one(), ctx.one(), q])
    assert a.den % p == 0
    calls = _echelon_spy(monkeypatch)
    assert array_rank(a, 2) == 2 and calls


def test_array_rank_of_a_singular_stack_is_deficient():
    """A truly dependent stack keeps its exact rank below full, so a full-rank claim on it fails."""
    n = 7
    ctx = make_context(n)
    rnd = random.Random(11)
    rows = [[_random_cyc(ctx, rnd) for _ in range(4)] for _ in range(3)]
    c = _random_cyc(ctx, rnd)
    rows.append([a * c - b for a, b in zip(rows[0], rows[2])])
    a = CycArray.from_list(ctx, [x for row in rows for x in row])
    assert array_rank(a, 4) == 3
    assert array_rank(CycArray.zeros(ctx, 9), 3) == 0
