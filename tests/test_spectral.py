from fractions import Fraction
from math import prod

import numpy as np
import pytest

from taftdouble.chebyshev import p_n_bivariate
from taftdouble.cyclotomic import CycArray, CycNum, make_context
from taftdouble.dnrep import Monomial, SimpleLabel, double_rep
from taftdouble.grring import groth_ring
from taftdouble.polymat import RingMatrix
from taftdouble.spectral import (
    EigIndex,
    block_matrices,
    divide_by_linear,
    build_fusion_blockform,
    build_fusion_from_rules,
    certificates,
    eig_indices,
    fusion_left_eigvec,
    fusion_right_eigvec,
    gen_trace_combination,
    groth_decomposition,
    spectral_tables,
)
from taftdouble.verify import Workspace

from polynomial_reference import RingPoly, component_array, poly_divmod, specialized


def _apply(A, vec):
    """The integer matrix A times a list of CycNum, entry by entry in Python arithmetic."""
    return (A @ np.array(vec, dtype=object)).tolist()


def test_eigenvalue_examples():
    tab = spectral_tables(5)
    assert tab.lam(EigIndex(0, 0)) == 2
    idx = tab.index_from_grouplike(1, 0)
    assert tab.lam(idx) == tab.ctx.root_power(1) + tab.ctx.one()
    # the index maps invert each other
    for idx in eig_indices(5):
        i, k = tab.grouplike_from_index(idx)
        assert tab.index_from_grouplike(i, k) == idx
    lams = [tab.lam(idx) for idx in eig_indices(5)]
    assert len(set(lams)) == len(lams) == 15


def test_right_eigvec_is_dimension_vector_at_origin():
    tab = spectral_tables(5)
    v = tab.eigvec("right", EigIndex(0, 0)).to_list()
    assert v == [make_context(5).from_rational(d) for d in groth_ring(5).dim_simple_vector()]


def test_last_block_vanishes_for_nonzero_j():
    n = 7
    tab = spectral_tables(n)
    for j in range(1, 4):
        for r in (0, 2):
            v = tab.eigvec("right", EigIndex(j, r)).to_list()
            assert all(x.is_zero() for x in v[-n:])


def test_left_eigvec_is_projective_dimension_vector():
    n = 5
    tab = spectral_tables(n)
    w = tab.eigvec("left", EigIndex(0, 0)).to_list()
    p = groth_ring(n).dim_projective_vector()
    assert w == [make_context(n).from_rational(Fraction(x, n)) for x in p]


def test_left_coefficients_are_power_sums():
    n = 7
    tab = spectral_tables(n)
    ctx = tab.ctx
    blocks = tab.blocks("left")  # r = 0 first; block k of (j, 0) is row j * n + n - 1 - k
    for j in range(1, 4):
        assert blocks[j * n + n - 1] == ctx.one()
        for k in range(1, n):
            assert blocks[j * n + n - 1 - k] == ctx.root_power(j * k) + ctx.root_power(-j * k)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_certificates_verify(n):
    M = groth_ring(n).mckay_v20()
    assert all(not c.exact for c in certificates(n))
    certs = Workspace(n).certs
    assert len(certs) == n * (n + 1) // 2
    for c in certs:
        assert c.exact
        if c.index.j:
            # one more application of (M - lam) annihilates the completion
            gen = c.gen_right.to_list()
            resid = [a - c.lam * b for a, b in zip(_apply(M, gen), gen)]
            second = [a - c.lam * b for a, b in zip(_apply(M, resid), resid)]
            assert all(x.is_zero() for x in second)


def test_gen_eigvec_rejects_simple_eigenvalues():
    tab = spectral_tables(5)
    with pytest.raises(ValueError):
        tab.eigvec("gen_right", EigIndex(0, 3))
    with pytest.raises(ValueError):
        tab.eigvec("gen_left", EigIndex(0, 0))


def test_gen_right_seed_coefficients():
    tab = spectral_tables(7)
    idx = EigIndex(2, 3)
    n, h = tab.n, tab.h
    row = (idx.r * n + h + idx.j) * n  # rows (r, i, l), the completion at j is i = h + j
    blocks = tab.blocks("right")
    assert blocks[row] == tab.ctx.one()
    assert blocks[row + 1] == tab.value("U", idx.j, 1).mul_qpow(idx.r) + 1


def test_trace_vectors_are_the_right_eigenvectors():
    n = 5
    tab = spectral_tables(n)
    rep = double_rep(n)
    for i in range(n):
        for k in range(n):
            idx = tab.index_from_grouplike(i, k)
            assert rep.trace_vector_S(Monomial(i, k, 0)) == tab.eigvec("right", idx)


def _block_poly(tab, k: int) -> RingPoly:
    """Block polynomial k of the stacked array, as a RingPoly over Q(q)."""
    n = tab.n
    return RingPoly(tab.block_polys().take(slice(k * (n + 1), (k + 1) * (n + 1))).to_list(), tab.ctx.zero())


def test_block_charpoly():
    """The stacked block polynomials against the D = q^k specialization and the scalar trace recursion on each block matrix."""
    n = 7
    tab = spectral_tables(n)
    ctx = tab.ctx
    blocks = block_matrices(n).to_list()
    for k in range(n):
        bp = _block_poly(tab, k)
        # frozen shape: t^7 - 7 q^k t^5 + 14 q^{2k} t^3 - 7 q^{3k} t - 2
        assert bp[7] == ctx.one()
        assert bp[5] == ctx.root_power(k) * (-7)
        assert bp[3] == ctx.root_power(2 * k) * 14
        assert bp[1] == ctx.root_power(3 * k) * (-7)
        assert bp[0] == ctx.from_rational(-2)
        assert bp == specialized(p_n_bivariate(n), ctx.root_power(k), ctx.zero())
        block = RingMatrix([blocks[(k * n + i) * n:(k * n + i + 1) * n] for i in range(n)])
        assert RingPoly(block.char_poly_small(), ctx.zero()) == bp
    # n=3, block 0 factors as (t - 2)(t + 1)^2
    tab3 = spectral_tables(3)
    ctx3 = tab3.ctx
    lin = RingPoly([ctx3.one(), ctx3.one()], ctx3.zero())
    expect = RingPoly([ctx3.from_rational(-2), ctx3.one()], ctx3.zero()) * lin * lin
    assert _block_poly(tab3, 0) == expect
    # the blocks jointly account for the full characteristic degree
    assert sum(_block_poly(tab, k).degree() for k in range(n)) == n * n


def test_general_eigenvalue_formulas():
    n = 5
    tab = spectral_tables(n)
    ring = groth_ring(n)
    for idx in eig_indices(n):
        assert tab.general_eigenvalue(idx, 2, 0) == tab.lam(idx)
    # j = 0 gives the scaled dimension
    for ell in range(1, n + 1):
        for s in range(n):
            val = tab.general_eigenvalue(EigIndex(0, 1), ell, s)
            assert val == tab.ctx.root_power((ell - 1 + 2 * s) * 1) * ell
    Mv = ring.mckay_matrix(3, 2)
    for idx in eig_indices(n):
        val = tab.general_eigenvalue(idx, 3, 2)
        v = tab.eigvec("right", idx).to_list()
        assert _apply(Mv, v) == [val * x for x in v]
    Qv = ring.projective_mckay(3, 2)
    for idx in eig_indices(n):
        pval = tab.projective_eigenvalue(idx, 3, 2)
        v = tab.eigvec("right", idx).to_list()
        assert _apply(Qv.T, v) == [pval * x for x in v]


def test_gen_trace_combination():
    n = 3
    ring = groth_ring(n)
    rep = double_rep(n)
    M = ring.mckay_v20()
    with pytest.raises(ValueError):
        gen_trace_combination(n, 1, 2)
    vec, gammas, lam = gen_trace_combination(n, 1, 0)
    assert len(gammas) == 2 and gammas[-1] == rep.ctx.one()
    vec = vec.to_list()
    resid = [a - lam * b for a, b in zip(_apply(M, vec), vec)]
    t = rep.trace_vector_S(Monomial(1, 0, 0)).to_list()
    # the residual lies on the line through the eigenvector t
    c = resid[0] / t[0]
    assert resid == [c * x for x in t]
    # membership in the two-dimensional generalized eigenspace
    second = [a - lam * b for a, b in zip(_apply(M, resid), resid)]
    assert all(x.is_zero() for x in second)


def test_idempotent_scalars_n3():
    dec = groth_decomposition(3)
    ctx = dec.ctx
    for r in range(3):
        comp = dec.components[r]
        assert comp.xi == ctx.root_power(2 * r) * 9
        assert comp.thetas[1] == ctx.root_power(r) * (-3)
        assert comp.nus[1] == ctx.one()
        # xi^{-1} F_0 = (1/9)(q^r x^2 + 2 q^{2r} x + 1) in the component
        ninth = Fraction(1, 9)
        expect = RingPoly(
            [
                ctx.from_rational(ninth),
                ctx.root_power(2 * r) * 2 * ninth,
                ctx.root_power(r) * ninth,
            ],
            ctx.zero(),
        )
        assert comp.idempotent_polys()[0] == component_array(comp, expect)
        assert comp.f_polys[0].scaled(comp.xi.inverse()) == component_array(comp, expect)


def test_groth_coordinates_n3():
    dec = groth_decomposition(3)
    ctx = dec.ctx
    third = Fraction(1, 3)
    for r in range(3):
        qr = lambda e: ctx.root_power(e)
        f = dec.radical_coords[EigIndex(1, r)].to_list()
        expect_f = [
            qr(2 * r) * -third, ctx.from_rational(-third), qr(r) * -third,
            qr(r) * -third, qr(2 * r) * -third, ctx.from_rational(-third),
            ctx.from_rational(third), qr(r) * third, qr(2 * r) * third,
        ]
        assert f == expect_f
        g = dec.jordan_coords(r).to_list()  # h = 1: G_{1,r} alone
        expect_g = [
            qr(r) * (-2 * third), qr(2 * r) * (-2 * third), ctx.from_rational(-2 * third),
            ctx.from_rational(third), qr(r) * third, qr(2 * r) * third,
        ] + [ctx.zero()] * 3
        assert g == expect_g


def test_eigenidem_certificates():
    dec = groth_decomposition(3)
    ctx = dec.ctx
    indices, coords = [], []
    for r in range(3):
        comp = dec.components[r]
        idempotents = comp.idempotent_polys()
        indices += [EigIndex(0, r), EigIndex(1, r), EigIndex(1, r)]
        coords += [comp.to_groth(idempotents[0]), dec.radical_coords[EigIndex(1, r)], comp.to_groth(idempotents[1])]
    c_u, exact = dec.eigenidem_certificates(indices, coords)
    assert exact.tolist() == [True] * 9
    assert c_u.to_list() == [ctx.one(), ctx.zero(), ctx.one()] * 3
    # one wrong coordinate breaks its square, and only its own
    bumped = coords[4].nums.copy()
    bumped[0, 0] += coords[4].den
    coords[4] = CycArray(ctx, bumped, coords[4].den)
    _, exact = dec.eigenidem_certificates(indices, coords)
    assert exact.tolist() == [True] * 4 + [False] + [True] * 4


def test_division_by_wrong_root_is_fatal():
    ctx = groth_decomposition(3).ctx
    modulus = np.zeros((1, 4, ctx.degree), dtype=np.int64)
    modulus[0, :, 0] = [-2, -3, 0, 1]  # p_3(x, 1) = (x - 2)(x + 1)^2
    for root, vanishes in ((-7, False), (-1, True), (2, True)):
        point = np.zeros((1, ctx.degree), dtype=np.int64)
        point[0, 0] = root
        _q, rem = divide_by_linear(ctx, modulus, point)
        assert (not rem.any()) == vanishes  # a wrong eigenvalue leaves a remainder


def _direct_component(n: int, r: int):
    """Component r built from its own block polynomial p_n(x, q^{2r}), without the twist: (F, G, xi, thetas, nus, idempotents).

    F_j and G_j divide p_n(x, q^{2r}) by (x - lam_{j,r}) once and twice, xi
    and theta_j are the products over the roots, and nu_j comes from
    G_j^2 - theta_j G_j reduced modulo the block polynomial, all in RingPoly
    arithmetic over Q(q).
    """
    tab = spectral_tables(n)
    ctx, h = tab.ctx, tab.h
    zero, one = ctx.zero(), ctx.one()
    modulus = specialized(p_n_bivariate(n), ctx.root_power(2 * r), zero)
    lams = [tab.lam(EigIndex(j, r)) for j in range(h + 1)]
    lin = [RingPoly([-lam, one], zero) for lam in lams]
    F, G = [], [None]
    for j in range(h + 1):
        f, rem = poly_divmod(modulus, lin[j])
        assert rem.is_zero()
        F.append(f)
        if j:
            g, rem = poly_divmod(f, lin[j])
            assert rem.is_zero()
            G.append(g)
    xi = prod((lams[0] - lams[j] for j in range(1, h + 1)), start=one) ** 2
    thetas, nus, idempotents = [None], [None], [F[0] * xi.inverse()]
    for j in range(1, h + 1):
        th = (lams[j] - lams[0]) * prod((lams[j] - lams[k] for k in range(1, h + 1) if k != j), start=one) ** 2
        rest = poly_divmod(G[j] * G[j] - G[j] * th, modulus)[1]
        lead = F[j].degree()
        nu = rest[lead] / F[j][lead]
        assert rest == F[j] * nu
        thetas.append(th)
        nus.append(nu)
        th_inv = th.inverse()
        idempotents.append(G[j] * th_inv - F[j] * (nu * th_inv * th_inv))
    return F, G, xi, thetas, nus, idempotents


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_twisted_components_match_the_direct_construction(n):
    """Every twisted F, G, xi, theta, nu and idempotent equals the one built from p_n(x, q^{2r})."""
    dec = groth_decomposition(n)
    for comp in dec.components:
        F, G, xi, thetas, nus, idempotents = _direct_component(n, comp.r)
        assert comp.f_polys == [component_array(comp, f) for f in F]
        assert comp.g_polys[1:] == [component_array(comp, g) for g in G[1:]]
        assert (comp.xi, comp.thetas, comp.nus) == (xi, thetas, nus)
        assert comp.idempotent_polys() == [component_array(comp, e) for e in idempotents]


def test_a_term_off_weight_n_makes_the_decomposition_raise(monkeypatch):
    """The twist rests on a + 2b in (0, n) for every term t^a D^b of p_n; moving one term off breaks it."""
    import taftdouble.spectral as spectral_mod

    def shifted(n):
        table = p_n_bivariate(n).copy()
        table[n - 2, 2], table[n - 2, 1] = table[n - 2, 1], 0  # -n t^{n-2} D becomes -n t^{n-2} D^2
        return table

    groth_decomposition.__wrapped__(5)
    monkeypatch.setattr(spectral_mod, "p_n_bivariate", shifted)
    with pytest.raises(ArithmeticError, match="a \\+ 2b"):
        groth_decomposition.__wrapped__(5)


def test_every_component_reuses_the_inverses_of_component_0(monkeypatch):
    """Building the decomposition and every component's idempotents inverts no more than component 0 alone."""
    calls = []
    inverse = CycNum.inverse
    monkeypatch.setattr(CycNum, "inverse", lambda self: calls.append(1) or inverse(self))

    def inverses(components):
        calls.clear()
        dec = groth_decomposition.__wrapped__(11)
        for comp in dec.components[components]:
            comp.idempotent_polys()
        return len(calls)

    alone = inverses(slice(1))
    assert alone and inverses(slice(None)) <= alone


@pytest.mark.parametrize("n", [3, 5, 7])
def test_fusion_matrix(n):
    tab = spectral_tables(n)
    Nr = build_fusion_from_rules(n)
    assert Nr.dtype == np.int64 and np.array_equal(Nr, build_fusion_blockform(n))
    assert len(Nr) == n * (n + 1) // 2
    lams = set()
    for idx in eig_indices(n):
        lam = tab.lam(idx)
        lams.add(lam)
        rv = fusion_right_eigvec(n, idx).to_list()
        lv = fusion_left_eigvec(n, idx).to_list()
        assert _apply(Nr, rv) == [lam * x for x in rv]
        assert _apply(Nr.T, lv) == [lam * x for x in lv]
    assert len(lams) == n * (n + 1) // 2
    h = (n - 1) // 2
    for j in range(h + 1):
        assert tab.value("L", j, h) == tab.value("L", j, h + 1)
