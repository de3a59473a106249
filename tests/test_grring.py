import random

import numpy as np
import pytest

from taftdouble.chebyshev import p_n_bivariate_closed, u_bivariate_closed
from taftdouble.cyclotomic import make_context
from taftdouble.dnrep import SimpleLabel, all_labels, label_index
from taftdouble.grring import groth_ring
from taftdouble.polymat import RingMatrix
from taftdouble.spectral import build_mckay_blockform

from polynomial_reference import RingPoly, poly_divmod, specialized


def tensor_rule(n, l1, r1, l2, r2):
    """Independent oracle for the completely reducible range l1 + l2 <= n + 1."""
    m = min(l1, l2)
    out = [0] * (n * n)
    for j in range(1, m + 1):
        out[label_index(n, SimpleLabel(l1 + l2 + 1 - 2 * j, (r1 + r2 + j - 1) % n))] += 1
    return out


def _wide(terms: dict, n: int) -> np.ndarray:
    """The table [x-degree, g-degree] of x-degree below 2n - 1 of {(g_pow, x_pow): int}."""
    out = np.zeros((2 * n - 1, n), dtype=np.int64)
    for (g, x), v in terms.items():
        out[x, g] += v
    return out


def test_f_sequence():
    ring = groth_ring(5)
    assert ring.f_seq(1) == ring.from_wide(_wide({(0, 0): 1}, 5))
    assert ring.f_seq(2) == ring.from_wide(_wide({(0, 1): 1}, 5))
    assert ring.f_seq(3) == ring.from_wide(_wide({(0, 2): 1, (1, 0): -1}, 5))
    for ell in range(1, 6):
        assert ring.f_seq(ell) == ring.from_wide(u_bivariate_closed(ell - 1))
    with pytest.raises(ValueError):
        ring.f_seq(6)


def test_relation_vanishes_in_the_ring():
    relation = _wide({(0, 11): 1, (1, 9): -11, (2, 7): 44, (3, 5): -77, (4, 3): 55, (5, 1): -11, (0, 0): -2}, 11)
    assert np.array_equal(relation[:12, :6], p_n_bivariate_closed(11))
    for n in (3, 5, 7, 9, 11):
        ring = groth_ring(n)
        assert ring.from_wide(p_n_bivariate_closed(n)).is_zero()
        assert not ring.from_wide(u_bivariate_closed(n)).is_zero()


@pytest.mark.parametrize("n", [3, 5, 7])
def test_powers_of_x_are_reduced_modulo_the_relation(n):
    """`x_powers[m]` is x^m modulo p_n(x, g), and the fold reduces g^g x^m to its twist by g.

    At every g = q^j (which separates Z[g]/(g^n - 1)), x^m mod p_n(x, q^j)
    comes from division with remainder over Q(q).
    """
    ring, ctx = groth_ring(n), make_context(n)
    zero, one = ctx.zero(), ctx.one()
    for j in range(n):
        gj = ctx.root_power(j)
        modulus = specialized(p_n_bivariate_closed(n), gj, zero)
        for m in range(2 * n - 1):
            got = RingPoly([sum((int(ring.x_powers[m, g, x]) * gj**g for g in range(n)), zero) for x in range(n)], zero)
            assert got == poly_divmod(RingPoly([zero] * m + [one], zero), modulus)[1]
    for m in range(2 * n - 1):
        for g in range(n):
            got = ring.from_wide(_wide({(g, m): 1}, n)).nums.reshape(n, n)
            assert np.array_equal(got, np.roll(ring.x_powers[m], g, axis=0))


def test_ring_tables_are_read_only():
    ring = groth_ring(5)
    for table in (ring.x_powers, ring.to_poly_matrix, ring.to_simple_matrix):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] += 1


def test_basis_conversions():
    ring = groth_ring(5)
    vec = [0] * 25
    vec[label_index(5, SimpleLabel(2, 3))] = 1
    assert ring.simple_to_poly(vec) == ring.from_wide(_wide({(3, 1): 1}, 5))
    unit = ring.from_wide(_wide({(0, 0): 1}, 5))
    out = ring.poly_to_simple(unit)
    expect = [0] * 25
    expect[label_index(5, SimpleLabel(1, 0))] = 1
    assert out == expect
    for idx in range(25):
        basis = [0] * 25
        basis[idx] = 1
        assert ring.poly_to_simple(ring.simple_to_poly(basis)) == basis


@pytest.mark.parametrize("n", [3, 5, 7])
def test_products_match_tensor_rules(n):
    ring = groth_ring(n)
    for l1 in range(1, n + 1):
        for l2 in range(1, n + 1):
            if l1 + l2 > n + 1:
                continue
            for r1 in range(n):
                for r2 in range(n):
                    got = ring.multiply_simples(SimpleLabel(l1, r1), SimpleLabel(l2, r2))
                    assert got == tensor_rule(n, l1, r1, l2, r2)


def test_product_examples():
    ring = groth_ring(5)
    got = ring.multiply_simples(SimpleLabel(2, 0), SimpleLabel(2, 0))
    expect = [0] * 25
    expect[label_index(5, SimpleLabel(3, 0))] = 1
    expect[label_index(5, SimpleLabel(1, 1))] = 1
    assert got == expect
    for r in range(5):
        got = ring.multiply_simples(SimpleLabel(5, r), SimpleLabel(2, 0))
        expect = [0] * 25
        expect[label_index(5, SimpleLabel(4, (r + 1) % 5))] = 2
        expect[label_index(5, SimpleLabel(1, r))] = 2
        assert got == expect
    for s in range(5):
        for lab in all_labels(5):
            got = ring.multiply_simples(SimpleLabel(1, s), lab)
            expect = [0] * 25
            expect[label_index(5, SimpleLabel(lab.ell, (lab.r + s) % 5))] = 1
            assert got == expect


def test_product_dimension_count():
    ring = groth_ring(7)
    rnd = random.Random(2)
    for _ in range(10):
        l1 = SimpleLabel(rnd.randint(1, 7), rnd.randrange(7))
        l2 = SimpleLabel(rnd.randint(1, 7), rnd.randrange(7))
        out = ring.multiply_simples(l1, l2)
        assert all(x >= 0 for x in out)
        dim = sum(m * lab.ell for m, lab in zip(out, all_labels(7)))
        assert dim == l1.ell * l2.ell


def test_mckay_matrix_shapes():
    ring = groth_ring(3)
    assert np.array_equal(ring.mckay_matrix(1, 0), np.eye(9, dtype=np.int64))
    M = ring.mckay_v20()
    assert M.dtype == np.int64 and np.array_equal(M, build_mckay_blockform(3))
    # frozen 9x9 block pattern
    expect = [
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 1, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, 1],
        [2, 0, 0, 0, 2, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, 2, 0, 0, 0],
        [0, 0, 2, 2, 0, 0, 0, 0, 0],
    ]
    assert np.array_equal(M, expect)


def test_mckay_closed_form_special_cases():
    ring = groth_ring(7)
    M = ring.mckay_v20()
    ident = np.eye(49, dtype=np.int64)
    Z1 = ring.z_shift(ident, 1)
    Z2 = ring.z_shift(ident, 2)
    assert np.array_equal(ring.mckay_matrix_closed(3, 0), M @ M - Z1)
    assert np.array_equal(ring.mckay_matrix_closed(5, 0), np.linalg.matrix_power(M, 4) - Z1 @ (M @ M) * 3 + Z2)
    for s in range(7):
        assert np.array_equal(ring.mckay_matrix_closed(1, s), ring.z_shift(ident, s))
    for ell, s in ((2, 0), (3, 4), (6, 1), (7, 0)):
        assert np.array_equal(ring.mckay_matrix_closed(ell, s), ring.mckay_matrix(ell, s))


def test_dimension_eigenvectors():
    for n in (3, 5, 7):
        ring = groth_ring(n)
        M = ring.mckay_v20()
        s = ring.dim_simple_vector()
        p = ring.dim_projective_vector()
        assert (M @ s).tolist() == [2 * x for x in s]
        assert (p @ M).tolist() == [2 * x for x in p]
        assert sum(a * b for a, b in zip(p, s)) == n**4


def test_cartan_structure():
    ring = groth_ring(3)
    C = ring.cartan_matrix()
    assert ring.cartan_rank() == 6
    for r in range(3):
        row = C[label_index(3, SimpleLabel(3, r))]
        assert sum(row) == 1 and row[label_index(3, SimpleLabel(3, r))] == 1
    row = C[label_index(3, SimpleLabel(1, 0))]
    assert row[label_index(3, SimpleLabel(1, 0))] == 2
    assert row[label_index(3, SimpleLabel(2, 1))] == 2
    kb = ring.cartan_kernel_basis()
    assert len(kb) == 3
    for v in kb:
        assert not any(ring.cartan_image_of(v))
    assert RingMatrix(kb).rank_over_field() == 3


@pytest.mark.parametrize("n", [3, 5])
def test_projective_mckay(n):
    ring = groth_ring(n)
    C = ring.cartan_matrix()
    assert np.array_equal(ring.projective_mckay(1, 0), np.eye(n * n, dtype=np.int64))
    assert np.array_equal(ring.projective_mckay_v20_rules(), ring.projective_mckay(2, 0))
    # row of P(n-1, r) for tensoring with V(2,0): P(n-2, r+1) and 2 V(n, r)
    Q = ring.projective_mckay(2, 0)
    for r in range(n):
        row = Q[label_index(n, SimpleLabel(n - 1, r))]
        assert row[label_index(n, SimpleLabel(n - 2, (r + 1) % n))] == 1
        assert row[label_index(n, SimpleLabel(n, r))] == 2
    for ell in range(1, n + 1):
        for s in range(n):
            Mv = ring.mckay_matrix(ell, s)
            Qv = ring.projective_mckay(ell, s)
            assert np.array_equal(Qv @ C, C @ Mv)


def _mckay_rows_reference(ring, ell, s):
    """The McKay matrix of V(ell, s) as the stacked products [V(L)][V(ell, s)] over every label L."""
    return np.array([ring.multiply_simples(lab, SimpleLabel(ell, s)) for lab in all_labels(ring.n)], dtype=np.int64)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_mckay_gather_matches_stacked_products(n):
    """The gathered int64 matrix equals the stacked per-label products: every (ell, s) up to 7, 10 seeded at 9."""
    ring = groth_ring(n)
    pairs = [(ell, s) for ell in range(1, n + 1) for s in range(n)]
    if n == 9:
        pairs = random.Random(9).sample(pairs, 10)
    for ell, s in pairs:
        got = ring.mckay_matrix(ell, s)
        assert got.dtype == np.int64 and np.array_equal(got, _mckay_rows_reference(ring, ell, s)), (ell, s)
