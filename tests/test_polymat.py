import random
from fractions import Fraction

import numpy as np
import pytest

from taftdouble.cyclotomic import CycArray, make_context, split_prime
from taftdouble.grring import groth_ring
from taftdouble.polymat import CheckFailure, RingMatrix, RingPoly, relation, sparse_product, sparse_rows
from taftdouble.spectral import EigIndex, certificates, groth_decomposition, spectral_tables


def test_poly_arithmetic():
    p = RingPoly([1, 2, 3])
    q = RingPoly([0, -1])
    assert (p + q).coeffs == [1, 1, 3]
    assert (p * q).coeffs == [0, -1, -2, -3]
    assert (p - p).is_zero()
    assert p.degree() == 2 and RingPoly([]).degree() == -1
    assert p.shift(2).coeffs == [0, 0, 1, 2, 3]
    assert p.eval(2) == 1 + 4 + 12


def test_poly_trailing_zeros_trimmed():
    assert RingPoly([1, 0, 0]).coeffs == [1]
    assert (RingPoly([1, 1]) - RingPoly([0, 1])).degree() == 0


def test_poly_divmod_and_gcd():
    p = RingPoly([Fraction(-1), Fraction(0), Fraction(1)])  # t^2 - 1
    d = RingPoly([Fraction(1), Fraction(1)])  # t + 1
    q, r = p.divmod(d)
    assert r.is_zero() and q.coeffs == [Fraction(-1), Fraction(1)]
    assert p.gcd(d) == d.monic()
    sq = p * p
    assert sq.gcd(sq.derivative()) == p.monic()


def test_poly_division_over_cyclotomic_field():
    ctx = make_context(5)
    zero, one = ctx.zero(), ctx.one()
    lam = ctx.root_power(1) + ctx.root_power(-1)
    d = RingPoly([lam, one], zero)  # t + lam
    e = RingPoly([lam * 2, one * 3], zero)  # 3t + 2 lam
    p = d * e
    q, r = p.divmod(d)
    assert r.is_zero() and q == e
    q2, r2 = (p + RingPoly([one], zero)).divmod(d)
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
    assert z.char_poly_small() == RingPoly([Fraction(-1), 0, 0, Fraction(1)], Fraction(0))


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
    assert cp == RingPoly([ctx.one(), ctx.one(), ctx.one()], ctx.zero())


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
    assert relation(M, vec, cert.lam, side) < 1e-12
    assert relation(M.int_array(), gen, cert.lam, side, chain=vec) < 1e-12
    q = ctx.root_power(1)
    for pos in (0, len(vec) // 2, len(vec) - 1):
        with pytest.raises(CheckFailure, match="fails at coordinate"):
            relation(M, _bump(vec, pos, q), cert.lam, side)
        with pytest.raises(CheckFailure):
            relation(M, _bump(gen, pos), cert.lam, side, chain=vec)
        with pytest.raises(CheckFailure):
            relation(M, gen, cert.lam, side, chain=_bump(vec, pos, q))
    with pytest.raises(CheckFailure, match="my claim"):
        relation(M, vec, cert.lam + q, side, what="my claim")
    with pytest.raises(CheckFailure):
        relation(M, gen, cert.lam + 1, side, chain=vec)


def test_relation_with_denominators():
    n = 3
    dec = groth_decomposition(n)
    M = groth_ring(n).mckay_v20()
    idx = EigIndex(1, 2)
    lam = spectral_tables(n).lam(idx)
    f, g = dec.f_coords(idx), dec.g_coords(idx)
    assert any(x.den > 1 for x in f.to_list() + g.to_list())
    relation(M, f, lam, "left")
    relation(M, g, lam, "left", chain=f)
    with pytest.raises(CheckFailure):
        relation(M, g, lam, "left", chain=_bump(f, 4, dec.ctx.from_rational(Fraction(1, 3))))


@pytest.mark.parametrize("scale", [2**61, 3**45])
def test_relation_beyond_int64_uses_python_ints(scale):
    """Scaled eigen pairs break the int64 bound (3^45 does not even fit); both verdicts stay right."""
    n = 5
    M = groth_ring(n).mckay_v20()
    cert = next(c for c in certificates(n) if c.index == EigIndex(1, 2))
    right = CycArray.from_list(cert.lam.ctx, [x * scale for x in cert.right.to_list()])
    gen = CycArray.from_list(cert.lam.ctx, [x * scale for x in cert.gen_right.to_list()])
    assert right.max_abs() * 4 >= 2**62
    relation(M, right, cert.lam, "right")
    relation(M, gen, cert.lam, "right", chain=right)
    with pytest.raises(CheckFailure):
        relation(M, _bump(right, 7), cert.lam, "right")
    with pytest.raises(CheckFailure):
        relation(M, gen, cert.lam, "right", chain=_bump(right, 7))


def test_relation_input_errors():
    M = groth_ring(3).mckay_v20()
    ctx = make_context(3)
    lam = ctx.one()
    with pytest.raises(ValueError):
        relation(M, CycArray.from_list(ctx, [lam] * 9), lam, "up")
    with pytest.raises(ValueError):
        relation(M, CycArray.from_list(ctx, [lam] * 8), lam, "right")
    with pytest.raises(TypeError):
        relation(RingMatrix([[lam]]), CycArray.from_list(ctx, [lam]), lam, "right")


def test_int_array():
    m = RingMatrix([[1, -2], [3, 2**70]])
    a = m.int_array()
    assert a.dtype == object and a[1, 1] == 2**70
    assert RingMatrix([[1, 2], [3, 4]]).int_array().dtype == np.int64
    with pytest.raises(TypeError):
        RingMatrix([[Fraction(1, 2)]]).int_array()


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
            assert m._rank_mod_p() <= exact
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
    """An entry equal to p makes the determinant p: singular over F_p, invertible over Q."""
    p, _ = split_prime(1)
    m = RingMatrix([[1, 1, 0], [1, 1 + p, 0], [0, 0, 1]])
    assert m._rank_mod_p() == 2
    calls = []
    exact = RingMatrix._echelon
    monkeypatch.setattr(RingMatrix, "_echelon", lambda self: calls.append(1) or exact(self))
    assert m.rank_over_field() == 3 and calls
    calls.clear()
    assert RingMatrix([[1, 1], [1, 2]]).rank_over_field() == 2 and not calls


def test_rank_denominator_divisible_by_p_falls_back(monkeypatch):
    n = 5
    ctx = make_context(n)
    p, _ = split_prime(n)
    q = ctx.root_power(1)
    m = RingMatrix([[q * Fraction(1, p), ctx.one()], [ctx.one(), q]])
    assert m._rank_mod_p() is None
    calls = []
    exact = RingMatrix._echelon
    monkeypatch.setattr(RingMatrix, "_echelon", lambda self: calls.append(1) or exact(self))
    assert m.rank_over_field() == 2 and calls


def test_sparse_product_matches_the_dense_product():
    rnd = np.random.default_rng(3)
    A = rnd.integers(-3, 4, (7, 9)) * (rnd.random((7, 9)) < 0.4)
    A[2] = 0
    B = rnd.integers(-5, 6, (9, 4))
    assert np.array_equal(sparse_product(sparse_rows(A), B), A @ B)
    big = B.astype(object) * 2**70
    assert np.array_equal(sparse_product(sparse_rows(A), big), A.astype(object) @ big)
