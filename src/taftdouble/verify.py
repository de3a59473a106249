"""Named verification suites: exact checks with a floating-point oracle alongside.

Each check certifies one cluster of claims about the double (characteristic
polynomial table, eigenvector residuals, Cartan structure, idempotent
decomposition, fusion rules, ...) in exact cyclotomic arithmetic, then
re-evaluates the same identities under the complex embedding q -> e^{2*pi*i/n}
and records the worst numeric residual.  Every eigen and Jordan relation of
an integer matrix goes through `polymat.relation`, which runs both routes on
integer coefficient arrays.  A check passes only through the
exact route; the oracle exists to guard against a systematically wrong
embedding, and any disagreement between the two routes is itself a failure
(the final concordance check).

Checks are pure functions of a per-n workspace and run in a fixed order,
so reports are deterministic.  Sampled sub-checks draw from generators
seeded by (check id, n).
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .chebyshev import bivariate_to_poly, cheb_poly, p_n_bivariate, p_n_bivariate_closed, p_n_factor_check
from .cyclotomic import CycArray, CycNum, int_array, make_context
from .dnrep import (
    Monomial,
    SimpleLabel,
    all_labels,
    coproduct_trace_sides,
    coproduct_trace_terms,
    double_rep,
    label_index,
)
from .grring import groth_ring
from .polymat import CheckFailure, RingMatrix, RingPoly, relation, sparse_product, sparse_rows
from .spectral import (
    EigIndex,
    block_matrix,
    build_fusion_blockform,
    build_fusion_from_rules,
    build_mckay_blockform,
    certificates,
    eig_indices,
    fusion_left_eigvec,
    fusion_right_eigvec,
    gen_trace_combination,
    groth_decomposition,
    spectral_tables,
)

__all__ = [
    "CheckResult",
    "SuiteReport",
    "Workspace",
    "get_workspace",
    "check_ids",
    "run_suite",
    "emit_report",
    "max_n",
]

DEFAULT_MAX_N = 13
ORACLE_TOL = 1e-9

# the frozen coefficient table for the block characteristic polynomials,
# keyed (t-degree, D-degree)
P_TABLE = {
    3: {(3, 0): 1, (1, 1): -3, (0, 0): -2},
    5: {(5, 0): 1, (3, 1): -5, (1, 2): 5, (0, 0): -2},
    7: {(7, 0): 1, (5, 1): -7, (3, 2): 14, (1, 3): -7, (0, 0): -2},
    9: {(9, 0): 1, (7, 1): -9, (5, 2): 27, (3, 3): -30, (1, 4): 9, (0, 0): -2},
    11: {(11, 0): 1, (9, 1): -11, (7, 2): 44, (5, 3): -77, (3, 4): 55, (1, 5): -11, (0, 0): -2},
    13: {
        (13, 0): 1, (11, 1): -13, (9, 2): 65, (7, 3): -156,
        (5, 4): 182, (3, 5): -91, (1, 6): 13, (0, 0): -2,
    },
}

# frozen projective trace rows at n = 3, as (integer, q-exponent) pairs
TABLE_N3_ROWS = {
    0: [(6, 0), (6, 0), (6, 0), (6, 0), (6, 0), (6, 0), (3, 0), (3, 0), (3, 0)],
    1: [(6, 0), (6, 2), (6, 1), (6, 1), (6, 0), (6, 2), (3, 2), (3, 1), (3, 0)],
    2: [(6, 0), (6, 1), (6, 2), (6, 2), (6, 0), (6, 1), (3, 1), (3, 2), (3, 0)],
}


def max_n() -> int:
    return int(os.environ.get("TAFTDOUBLE_MAX_N", DEFAULT_MAX_N))


# ----------------------------------------------------------------------
# numeric oracle helpers


def _embed(x) -> complex:
    return x.embed() if isinstance(x, CycNum) else complex(x)


def embed_vec(vec) -> np.ndarray:
    return np.array([_embed(x) for x in vec], dtype=complex)


def embed_mat(m: RingMatrix) -> np.ndarray:
    rows = np.array(m.rows)
    if rows.dtype == np.int64:  # an integer matrix converts in one call
        return rows.astype(complex)
    return np.array([[_embed(x) for x in row] for row in m.rows], dtype=complex)


class Oracle:
    """Accumulates the worst numeric residual seen by a check."""

    def __init__(self):
        self.residual = 0.0

    def see(self, value: float):
        """Record a residual; a non-finite one (NaN included) is infinitely bad."""
        value = float(value)
        if not np.isfinite(value):
            value = float("inf")
        if value > self.residual:
            self.residual = value

    def vec_residual(self, vec):
        if len(vec):
            self.see(float(np.max(np.abs(vec))))

    def rank(self, matrix: np.ndarray, expected: int):
        got = int(np.linalg.matrix_rank(matrix))
        self.see(0.0 if got == expected else 1.0)


# ----------------------------------------------------------------------
# per-n workspace


class Workspace:
    """Lazily built shared objects for one n, reused by every check."""

    def __init__(self, n: int):
        self.n = n
        self._mckay_cache: dict[tuple[int, int], RingMatrix] = {}

    @cached_property
    def ctx(self):
        return make_context(self.n)

    @cached_property
    def rep(self):
        return double_rep(self.n)

    @cached_property
    def ring(self):
        return groth_ring(self.n)

    @cached_property
    def tab(self):
        return spectral_tables(self.n)

    @cached_property
    def M(self) -> RingMatrix:
        return self.ring.mckay_v20()

    @cached_property
    def M_blockform(self) -> RingMatrix:
        return build_mckay_blockform(self.n)

    @cached_property
    def M_int(self) -> np.ndarray:
        return self.M.int_array()

    @cached_property
    def certs(self):
        out = certificates(self.n)
        for c in out:
            c.verify(self.M_int)
        return out

    @cached_property
    def dec(self):
        return groth_decomposition(self.n)

    @cached_property
    def grouplike_traces(self):
        rep = self.rep
        return {
            (i, k): rep.trace_vector_S(Monomial(i, k, 0))
            for i in range(self.n)
            for k in range(self.n)
        }

    def mckay(self, ell: int, s: int) -> RingMatrix:
        key = (ell, s % self.n)
        got = self._mckay_cache.get(key)
        if got is None:
            got = self.ring.mckay_matrix(ell, s % self.n)
            self._mckay_cache[key] = got
        return got

    @cached_property
    def M_numeric(self) -> np.ndarray:
        return embed_mat(self.M)


_WORKSPACES: dict[int, Workspace] = {}


def get_workspace(n: int) -> Workspace:
    ws = _WORKSPACES.get(n)
    if ws is None:
        ws = _WORKSPACES[n] = Workspace(n)
    return ws


# ----------------------------------------------------------------------
# checks


def _rng(check_id: str, n: int) -> random.Random:
    return random.Random(f"{check_id}:{n}")


def _require(ok: bool, message: str):
    """Fail the running check; unlike `assert`, this survives `python -O`."""
    if not ok:
        raise CheckFailure(message)


def _line_coefficient(A: np.ndarray, vec: CycArray, lam: CycNum, side: str, line: CycArray) -> CycNum:
    """The only c for which (A - lam) v = c * line can hold (side as in `relation`).

    A is an integer matrix.  c is read off at the first nonzero coordinate
    of the line; `relation` with the chain c * line then certifies the
    identity at every coordinate.
    """
    rows = np.flatnonzero(line.nums.any(axis=1))
    if not rows.size:
        raise CheckFailure("the spanning vector of the line is zero")
    p = int(rows[0])
    image = vec.left_mul((A if side == "right" else A.T)[p:p + 1])[0]
    return (image - lam * vec[p]) / line[p]


def _first_mismatch(labels, got: CycArray, want: CycArray):
    """The label of the first entry where got and want differ, or None when they are equal."""
    if got == want:
        return None
    return next(lab for lab, x, y in zip(labels, got.to_list(), want.to_list()) if x != y)


def _block_charpoly_values(t: np.ndarray, qk: complex, n: int):
    """The k-th block polynomial and its derivative at the points t, numerically.

    Evaluated through the recurrence that defines it, u_0 = 1, u_1 = t,
    u_m = t u_{m-1} - q^k u_{m-2}, p = t u_{n-1} - 2 q^k u_{n-2} - 2, whose
    terms stay of the size of Chebyshev values at |t| <= 2; the monomial
    coefficients grow like binomials and cancel in floating point.
    """
    u_prev, u_cur = np.ones_like(t), t
    du_prev, du_cur = np.zeros_like(t), np.ones_like(t)
    for _ in range(2, n):
        u_prev, u_cur, du_prev, du_cur = (
            u_cur, t * u_cur - qk * u_prev, du_cur, u_cur + t * du_cur - qk * du_prev,
        )
    return t * u_cur - 2 * qk * u_prev - 2, u_cur + t * du_cur - 2 * qk * du_prev


def check_charpoly_table(ws: Workspace):
    """Block characteristic polynomials match the frozen table, exactly and per block."""
    n, tab, ctx = ws.n, ws.tab, ws.ctx
    oracle = Oracle()
    p = p_n_bivariate(n)
    if n in P_TABLE:
        _require(p.terms == P_TABLE[n], f"p_{n} differs from the frozen coefficient table")
    _require(p == p_n_bivariate_closed(n), "recursion and closed form disagree")
    for k in range(n):
        bp = tab.block_charpoly(k)
        direct = bivariate_to_poly(p, ctx.root_power(k), ctx.zero())
        _require(bp == direct, f"block {k} charpoly differs from the D = q^{k} specialization")
        blk = block_matrix(n, k)
        if n <= 7 or k <= 1:
            _require(blk.char_poly_small() == bp, f"generic determinant route disagrees at block {k}")
        # numeric oracle: eigenvalues of the embedded block solve the embedded polynomial
        scale = max(1.0, float(np.max(np.abs(embed_vec(bp.coeffs)))))
        vals, _ = _block_charpoly_values(np.linalg.eigvals(embed_mat(blk)), ctx.root_power(k).embed(), n)
        oracle.vec_residual(np.abs(vals) / scale)
    return oracle.residual, {"blocks": n}


def check_charpoly_factorization(ws: Workspace):
    """p_n(t) = (t-2) W_h(t)^2, and each block polynomial splits with the stated multiplicities."""
    n, tab, ctx = ws.n, ws.tab, ws.ctx
    oracle = Oracle()
    h = (n - 1) // 2
    _require(p_n_factor_check(n), "integer factorization identity failed")
    w = cheb_poly("W", h)
    for t in (Fraction(3, 10), Fraction(-17, 10), Fraction(5, 2)):
        lhs = bivariate_to_poly(p_n_bivariate(n), 1).eval(t)
        rhs = (t - 2) * w.eval(t) ** 2
        oracle.see(abs(float(lhs - rhs)))
    zero, one = ctx.zero(), ctx.one()
    for k in range(n):
        bp = tab.block_charpoly(k)
        simple, doubles = tab.block_roots(k)
        prod = RingPoly([-simple, one], zero)
        for lam in doubles:
            lin = RingPoly([-lam, one], zero)
            prod = prod * lin * lin
        _require(prod == bp, f"block {k} does not split as (t - 2q^r) prod (t - lam)^2")
        # gcd with the derivative isolates exactly the double roots
        g = bp.gcd(bp.derivative())
        expect = RingPoly([one], zero)
        for lam in doubles:
            expect = expect * RingPoly([-lam, one], zero)
        _require(g == expect, f"gcd multiplicity structure wrong in block {k}")
        # numeric oracle: the embedded polynomial and its derivative vanish at the roots
        # (eigensolvers are sqrt(eps)-accurate on defective matrices, so evaluate instead)
        scale = max(1.0, float(np.max(np.abs(embed_vec(bp.coeffs)))))
        vals, _ = _block_charpoly_values(embed_vec([simple] + doubles), ctx.root_power(k).embed(), n)
        _, slopes = _block_charpoly_values(embed_vec(doubles), ctx.root_power(k).embed(), n)
        oracle.vec_residual(np.abs(vals) / scale)
        oracle.vec_residual(np.abs(slopes) / scale)
    return oracle.residual, {"blocks": n}


def check_hopf_axioms(ws: Workspace):
    """Defining relations on every simple module; counit, coassociativity and
    multiplicativity of the coproduct on a sample."""
    n, rep, ctx = ws.n, ws.rep, ws.ctx
    oracle = Oracle()
    for lab in all_labels(n):
        fails = rep.verify_relations(lab)
        _require(not fails, f"relations {fails} fail on {lab}")
    # numeric re-check of the mixed relation on the largest module
    na, nb, nc, nd = (x.embed() for x in rep.action_shifts(SimpleLabel(n, 1)))
    q = ctx.root_power(1).embed()
    resid = nd @ na - q * (na @ nd) - (np.eye(n) - nb @ nc)
    oracle.vec_residual(np.abs(resid).ravel())

    rnd = _rng("hopf-axioms", n)
    monos = [
        (rnd.randrange(n), rnd.randrange(n), rnd.randrange(n), rnd.randrange(n))
        for _ in range(20)
    ]
    gens = {g: rep.pbw_generator(g) for g in "abcd"}
    pairs = 0
    for mono in monos:
        x = rep.pbw_monomial(*mono)
        delta = x.coproduct()
        left, right = {}, {}
        for (m1, m2), coeff in delta.terms.items():
            if m1[0] == 0 and m1[3] == 0:
                left[m2] = left.get(m2, ctx.zero()) + coeff
            if m2[0] == 0 and m2[3] == 0:
                right[m1] = right.get(m1, ctx.zero()) + coeff
        _require({k: v for k, v in left.items() if v} == x.terms, f"(eps x id) failed on {mono}")
        _require({k: v for k, v in right.items() if v} == x.terms, f"(id x eps) failed on {mono}")
        lhs, rhs = {}, {}
        for (m1, m2), coeff in delta.terms.items():
            for (m1a, m1b), c1 in rep.coproduct_monomial(m1).items():
                key = (m1a, m1b, m2)
                lhs[key] = lhs.get(key, ctx.zero()) + coeff * c1
            for (m2a, m2b), c2 in rep.coproduct_monomial(m2).items():
                key = (m1, m2a, m2b)
                rhs[key] = rhs.get(key, ctx.zero()) + coeff * c2
        diff = dict(lhs)
        for k, v in rhs.items():
            diff[k] = diff.get(k, ctx.zero()) - v
        _require(not any(diff.values()), f"coassociativity failed on {mono}")
        for g, gx in gens.items():
            _require((x * gx).coproduct() == delta * gx.coproduct(), f"D(x{g}) != D(x) D({g}) at x = {mono}")
            pairs += 1
    detail = {"labels": n * n, "sampled_monomials": len(monos), "multiplicativity_pairs": pairs}
    return oracle.residual, detail


def check_coproduct_trace(ws: Workspace):
    """The coproduct trace identity for the McKay matrix on a sample of basis monomials."""
    n, rep = ws.n, ws.rep
    oracle = Oracle()
    rnd = _rng("coproduct-trace", n)
    monos = [
        (rnd.randrange(n), rnd.randrange(n), rnd.randrange(n), rnd.randrange(n))
        for _ in range(20)
    ]
    vlabels = [SimpleLabel(2, 0)] if n >= 11 else [SimpleLabel(2, 0), SimpleLabel(3, 1)]
    for vlabel in vlabels:
        Mv = ws.M_int if vlabel == SimpleLabel(2, 0) else ws.mckay(vlabel.ell, vlabel.r).int_array()
        Mv_numeric = Mv.astype(complex)
        for mono in monos:
            left, right = coproduct_trace_terms(rep, mono, vlabel)
            lhs, rhs = coproduct_trace_sides(rep, Mv, left, right)
            _require(lhs == rhs, f"trace identity failed for {mono} against V{tuple(vlabel)}")
            # the oracle weighs the embedded terms itself, in complex arithmetic,
            # relative to the largest of them
            tr_x = sum((coeff.embed() * tv.embed() for coeff, tv in left), np.zeros(n * n, dtype=complex))
            image = Mv_numeric @ tr_x
            terms = [coeff.embed() * c.embed() * weight.embed() * tv.embed() for coeff, c, weight, tv in right]
            scale = max([1.0, float(np.max(np.abs(image)))] + [float(np.max(np.abs(t))) for t in terms])
            oracle.vec_residual(np.abs(image - sum(terms, np.zeros(n * n, dtype=complex))) / scale)
    return oracle.residual, {"sampled_monomials": len(monos), "modules": len(vlabels)}


def check_grouplike_traces(ws: Workspace):
    """Grouplike trace vectors are the Chebyshev eigenvectors, with all symmetries."""
    n, tab, ctx = ws.n, ws.tab, ws.ctx
    oracle = Oracle()
    eigvecs = {c.index: c.right for c in ws.certs}
    labels = all_labels(n)
    for (i, k), tv in ws.grouplike_traces.items():
        idx = tab.index_from_grouplike(i, k)
        _require(tv == eigvecs[idx], f"Tr_S(b^{i} c^{k}) is not the ({idx.j},{idx.r}) eigenvector")
        _require(tv == ws.grouplike_traces[(-k % n, -i % n)], f"symmetry fails at ({i},{k})")
        # the character of V(ell, s) is the eigenvalue of its McKay matrix on the family,
        # which is its value at s = 0 times q^{2sr}
        closed = CycArray.from_list(ctx, [tab.general_eigenvalue(idx, ell, 0) for ell in range(1, n + 1)])
        bad = _first_mismatch(labels, tv, closed.qpow_blocks([2 * s * idx.r for s in range(n)]))
        _require(bad is None, f"character closed form fails at {bad}, ({i},{k})")
        oracle.see(relation(ws.M_int, tv, tab.lam(idx), "right", what=f"Tr_S(b^{i} c^{k}) eigen"))
    dims = CycArray.from_list(ctx, ws.ring.dim_simple_vector())
    _require(ws.grouplike_traces[(0, 0)] == dims, "Tr_S(1) is not the dimension vector")
    top = label_index(n, SimpleLabel(n, 0))
    for (i, k), tv in ws.grouplike_traces.items():
        if (i + k) % n:
            _require(not tv.nums[top:].any(), f"Tr_S(b^{i} c^{k}) does not vanish on V(n, .)")
    return oracle.residual, {"pairs": n * n}


def check_spectral_certificates(ws: Workspace):
    """Exact eigen and Jordan relations for every (j, r), plus completeness of both families."""
    n, tab, ctx = ws.n, ws.tab, ws.ctx
    oracle = Oracle()
    _require(ws.M == ws.M_blockform, "ring-derived McKay matrix differs from its block pattern")
    certs = ws.certs
    inexact = [c.index for c in certs if not c.exact]
    if inexact:
        raise CheckFailure(f"exact eigen or Jordan relation fails at {inexact}")
    lams = [c.lam for c in certs]
    for a in range(len(lams)):
        for b in range(a):
            _require(lams[a] != lams[b], f"eigenvalues coincide: {certs[a].index} vs {certs[b].index}")
    try:
        tab.gen_right_eigvec(EigIndex(0, 0))
    except ValueError:
        pass
    else:
        raise CheckFailure("j = 0 must reject Jordan completions")

    # completeness: the stacked families factor through the shift eigenvectors,
    # so full rank reduces to one Vandermonde and per-r coefficient blocks
    vand = RingMatrix([[ctx.root_power(2 * s * r) for r in range(n)] for s in range(n)])
    _require(vand.rank_over_field() == n, "shift eigenvector basis is degenerate")
    vand_w = RingMatrix([[ctx.root_power(-2 * s * r) for r in range(n)] for s in range(n)])
    _require(vand_w.rank_over_field() == n, "left shift eigenvector basis is degenerate")
    for r in range(n):
        rows, rows_left = [], []
        for j in range((n + 1) // 2):
            idx = EigIndex(j, r)
            rows.append(tab.right_coeffs(idx))
            cl = tab.left_coeffs(idx)
            rows_left.append([cl[n - 1 - b] for b in range(n)])
            if j:
                rows.append(tab.gen_right_coeffs(idx))
                gl = tab.gen_left_coeffs(idx)
                rows_left.append([gl[n - 1 - b] for b in range(n)])
        _require(RingMatrix(rows).rank_over_field() == n, f"right family degenerate at r={r}")
        _require(RingMatrix(rows_left).rank_over_field() == n, f"left family degenerate at r={r}")
    if n <= 5:
        dense = [c.right for c in certs] + [c.gen_right for c in certs if c.gen_right is not None]
        full = RingMatrix([v.to_list() for v in dense])
        _require(full.rank_over_field() == n * n, "dense-route completeness check failed")

    rmat, lmat = [], []
    for c in certs:
        oracle.see(c.oracle_residual)
        rmat += [c.right] + ([c.gen_right] if c.gen_right is not None else [])
        lmat += [c.left] + ([c.gen_left] if c.gen_left is not None else [])
    oracle.rank(np.array([v.embed() for v in rmat]), n * n)
    oracle.rank(np.array([v.embed() for v in lmat]), n * n)
    return oracle.residual, {"certificates": len(certs)}


def check_generalized_traces(ws: Workspace):
    """Trace combinations of b^i c^k d^l a^l land in the right generalized eigenspace."""
    n, rep, Mi, ctx = ws.n, ws.rep, ws.M_int, ws.ctx
    oracle = Oracle()
    rnd = _rng("generalized-traces", n)
    bcda_samples = {(rnd.randrange(n), rnd.randrange(n)) for _ in range(4)}
    for i in range(n):
        for k in range(n):
            if (i + k) % n == 0:
                continue
            vec, gammas, lam = gen_trace_combination(n, i, k)
            _require(gammas[-1] == ctx.one(), "the top coefficient must be 1")
            # (M - lam) v = c t for the eigenvector t, and (M - lam) t = 0
            t = ws.grouplike_traces[(i, k)]
            c = _line_coefficient(Mi, vec, lam, "right", t)
            where = f"({i},{k})"
            oracle.see(relation(
                Mi, vec, lam, "right", chain=t.scaled(c), what=f"residual off the eigenline at {where}",
            ))
            oracle.see(relation(Mi, t, lam, "right", what=f"(M - lam)^2 does not annihilate at {where}"))
            if (i, k) in bcda_samples:
                s = (-(i + k)) % n
                for l in range(1, s + 1):
                    tv = rep.trace_vector_S(Monomial(i, k, l))
                    lam_l = ctx.root_power(l + i) + ctx.root_power(-l - k)
                    qint = ctx.quantum_integer(l)
                    coeff = (qint * qint * (ctx.one() - ctx.root_power(-1))).mul_qpow(-l - k + 1)
                    prev = rep.trace_vector_S(Monomial(i, k, l - 1))
                    oracle.see(relation(
                        Mi, tv, lam_l, "right", chain=prev.scaled(coeff),
                        what=f"stepdown identity at {where}, l={l}",
                    ))
    return oracle.residual, {"pairs": n * n - n}


def check_projective_trace_table(ws: Workspace):
    """Projective trace vectors: left eigenvectors, vanishing pattern, idempotent match."""
    n, rep, ctx, dec = ws.n, ws.rep, ws.ctx, ws.dec
    oracle = Oracle()
    rows = {}
    for i in range(n):
        w = rep.trace_vector_P(i, -i)
        rows[i] = w
        lam = ctx.root_power(-i) * 2  # trace of b^i c^{-i} on the dual of V(2,0)
        oracle.see(relation(ws.M_int, w, lam, "left", what=f"Tr_P eigen at i={i}"))
        r = (-i) % n
        comp = dec.components[r]
        scal = w.line_coefficient(comp.to_groth(comp.f_polys[0] * comp.xi.inverse()))
        _require(scal is not None and scal, f"Tr_P(b^{i}c^-{i}) not proportional to the idempotent")
    for i in range(n):
        for k in range(n):
            if (i + k) % n:
                _require(rep.trace_vector_P(i, k).is_zero(), f"Tr_P(b^{i}c^{k}) does not vanish")
    if n == 3:
        for i in range(3):
            expect = [ctx.root_power(e) * c for (c, e) in TABLE_N3_ROWS[i]]
            _require(rows[i].to_list() == expect, f"frozen n=3 row {i} mismatch")
        for r in range(3):
            comp = dec.components[r]
            coords = comp.to_groth(comp.f_polys[0] * comp.xi.inverse())
            _require(
                coords.scaled(ctx.from_rational(81)) == rows[(-r) % 3],
                f"81 xi^-1 F_0,{r} does not match the table row",
            )
    return oracle.residual, {"rows": n}


def check_cartan_structure(ws: Workspace):
    """Cartan rank and kernel, and the intertwining QC = CM for every simple module."""
    n, ring = ws.n, ws.ring
    oracle = Oracle()
    C = ring.cartan_matrix()
    _require(ring.cartan_rank() == n * (n + 1) // 2, "Cartan rank differs from n(n+1)/2")
    kb = ring.cartan_kernel_basis()
    _require(len(kb) == n * (n - 1) // 2, f"{len(kb)} Cartan kernel vectors")
    for v in kb:
        _require(not any(ring.cartan_image_of(v)), "stated kernel vector not annihilated")
    _require(RingMatrix(kb).rank_over_field() == len(kb), "kernel vectors are dependent")
    for lab in all_labels(n):
        row = C.rows[label_index(n, lab)]
        if lab.ell == n:
            _require(sum(row) == 1 and row[label_index(n, lab)] == 1, f"Cartan row of {lab} is not a unit vector")
        else:
            _require(sorted(x for x in row if x) == [2, 2], f"Cartan row of {lab} is not two entries 2")
    oracle.rank(embed_mat(C).real, n * (n + 1) // 2)

    ident = RingMatrix.identity(n * n)
    _require(ring.projective_mckay(1, 0) == ident, "tensoring with the unit must be the identity")
    _require(
        ring.projective_mckay_v20_rules() == ring.projective_mckay(2, 0),
        "rule-built projective McKay matrix differs from the dual-transpose route",
    )
    C_int = C.int_array()
    C_rows, Ct_rows = sparse_rows(C_int), sparse_rows(C_int.T)
    C_numeric = C_int.astype(float)
    rnd = _rng("cartan-structure", n)
    numeric_sample = {(rnd.randrange(1, n + 1), rnd.randrange(n)) for _ in range(3)}
    for ell in range(1, n + 1):
        # the dual of V(ell, s) is V(ell, 1 - s - ell): one ell's arrays serve both sides
        arrays = [np.asarray(ws.mckay(ell, s).rows, dtype=np.int64) for s in range(n)]
        for s in range(n):
            Mv, Mdual = arrays[s], arrays[(1 - s - ell) % n]
            lhs = sparse_product(Ct_rows, Mdual).T  # equals M_dual^T C = Q_V C
            rhs = sparse_product(C_rows, Mv)
            _require(np.array_equal(lhs, rhs), f"QC = CM fails for V({ell},{s})")
            if (ell, s) in numeric_sample:
                d = np.abs(Mdual.T @ C_numeric - C_numeric @ Mv)
                oracle.vec_residual(d.ravel())
    return oracle.residual, {"modules": n * n}


def check_mckay_closed_form(ws: Workspace):
    """Shifted-power expansion of each McKay matrix, dimension eigenvectors, commutativity."""
    n, ring = ws.n, ws.ring
    oracle = Oracle()
    if n <= 9:
        pairs = [(ell, s) for ell in range(1, n + 1) for s in range(n)]
    else:
        rnd = _rng("mckay-closed-form", n)
        pairs = [(ell, s) for ell in (1, 2, 3, n - 1, n) for s in (0, 1)]
        pairs += [(rnd.randrange(1, n + 1), rnd.randrange(n)) for _ in range(6)]
    for ell, s in pairs:
        _require(ws.mckay(ell, s) == ring.mckay_matrix_closed(ell, s), f"closed form fails for V({ell},{s})")
    for s in range(n):
        _require(ws.mckay(1, s) == ring.z_shift(RingMatrix.identity(n * n), s), f"V(1,{s}) is not the shift Z^{s}")

    ctx = ws.ctx
    svec = ring.dim_simple_vector()
    pvec = ring.dim_projective_vector()
    two = ctx.from_rational(2)
    oracle.see(relation(ws.M_int, CycArray.from_list(ctx, svec), two, "right", what="dimension vector"))
    oracle.see(relation(ws.M_int, CycArray.from_list(ctx, pvec), two, "left", what="projective dimension vector"))
    _require(sum(a * b for a, b in zip(pvec, svec)) == n**4, "dimension pairing misses the basis count")

    rnd = _rng("mckay-commute", n)
    for _ in range(4):
        a = (rnd.randrange(1, n + 1), rnd.randrange(n))
        b = (rnd.randrange(1, n + 1), rnd.randrange(n))
        A, B = ws.mckay(*a), ws.mckay(*b)
        _require(A * B == B * A, f"McKay matrices do not commute: {a}, {b}")
        oracle.vec_residual(
            np.abs(embed_mat(A) @ embed_mat(B) - embed_mat(B) @ embed_mat(A)).ravel()
        )
    labs = all_labels(n)
    rnd2 = _rng("ring-commute", n)
    for _ in range(6):
        l1, l2 = rnd2.choice(labs), rnd2.choice(labs)
        _require(ring.multiply_simples(l1, l2) == ring.multiply_simples(l2, l1), f"[{l1}][{l2}] != [{l2}][{l1}]")
    return oracle.residual, {"pairs": len(pairs)}


def check_general_eigenvalues(ws: Workspace):
    """Chebyshev eigenvalue formulas for tensoring with any simple module, both sides."""
    n, tab, ctx = ws.n, ws.tab, ws.ctx
    oracle = Oracle()
    if n <= 9:
        mods = [(ell, 0) for ell in range(1, n + 1)] + [(2, 1), (3, 2)]
        indices = eig_indices(n)
    else:
        rnd = _rng("general-eigenvalues", n)
        mods = [(1, 0), (2, 0), (5, 0), (n, 0)] + [
            (rnd.randrange(1, n + 1), rnd.randrange(n)) for _ in range(4)
        ]
        indices = _rng("general-eigenvalues-idx", n).sample(eig_indices(n), 20)
    vecs = {idx: (tab.right_eigvec(idx), tab.left_eigvec(idx)) for idx in indices}
    for ell, s in mods:
        Mv = ws.mckay(ell, s % n).int_array()
        Qv = ws.ring.projective_mckay(ell, s % n).int_array()
        for idx in indices:
            v, w = vecs[idx]
            val = tab.general_eigenvalue(idx, ell, s)
            pval = tab.projective_eigenvalue(idx, ell, s)
            where = f"V({ell},{s}), {idx}"
            oracle.see(relation(Mv, v, val, "right", what=f"right eigenvalue for {where}"))
            oracle.see(relation(Mv, w, val, "left", what=f"left eigenvalue for {where}"))
            oracle.see(relation(Qv, v, pval, "left", what=f"projective left eigenvalue for {where}"))
            oracle.see(relation(Qv, w, pval, "right", what=f"projective right eigenvalue for {where}"))
    return oracle.residual, {"modules": len(mods), "indices": len(indices)}


def _g_shift(p):
    """g * p in the presentation: a cyclic shift of the g-index."""
    n = p.ring.n
    return type(p)(p.ring, np.roll(p.nums.reshape(n, n, -1), 1, axis=0).reshape(p.nums.shape), p.den, p.ctx)


def check_grothendieck_idempotents(ws: Workspace):
    """Radical basis, orthogonal idempotents, and their eigenvector coordinates."""
    n, dec, ring, tab, ctx = ws.n, ws.dec, ws.ring, ws.tab, ws.ctx
    oracle = Oracle()
    h = (n - 1) // 2
    # grouplike idempotents: full-product orthogonality in the presentation
    e_elems = [dec.e_idempotent(u) for u in range(n)]
    for u in range(n):
        for v in range(u + 1):
            prod = ring.mul(e_elems[u], e_elems[v])
            if u == v:
                _require(prod == e_elems[u], f"E_{u} is not idempotent")
            else:
                _require(prod.is_zero(), f"E_{u} E_{v} != 0")
        _require(_g_shift(e_elems[u]) == e_elems[u].scalar_mul(ctx.root_power(u)), f"g E_{u} != q^{u} E_{u}")

    for r in range(n):
        comp = dec.components[r]
        F = [comp.array(f) for f in comp.f_polys]
        G = [None] + [comp.array(g) for g in comp.g_polys[1:]]
        for j in range(1, h + 1):
            for k in range(1, j + 1):
                _require(comp.mul(F[j], F[k]).is_zero(), f"F({j},{r}) F({k},{r}) != 0")
        _require(comp.mul(F[0], F[0]) == F[0].scaled(comp.xi), f"F(0,{r})^2 != xi F(0,{r})")
        for j in range(1, h + 1):
            theta, nu = comp.thetas[j], comp.nus[j]
            _require(comp.mul(G[j], F[j]) == F[j].scaled(theta), f"G F != theta F at ({j},{r})")
            _require(
                comp.mul(G[j], G[j]) == G[j].scaled(theta) + F[j].scaled(nu), f"G^2 != theta G + nu F at ({j},{r})"
            )
        idems = comp.idempotent_polys()
        for a in range(len(idems)):
            for b in range(a + 1):
                prod = comp.mul(idems[a], idems[b])
                if a == b:
                    _require(prod == idems[a], f"idempotency fails at ({a},{r})")
                else:
                    _require(prod.is_zero(), f"orthogonality fails at ({a},{b},{r})")
        basis_rows = [e.to_list() for e in idems + F[1:]]
        _require(RingMatrix(basis_rows).rank_over_field() == n, f"component {r} basis degenerate")

    # coordinate vectors: exact left (generalized) eigenvectors of the McKay matrix
    radical = {}
    for r in range(n):
        comp = dec.components[r]
        for j in range(1, h + 1):
            idx = EigIndex(j, r)
            lam = tab.lam(idx)
            f = radical[idx] = comp.to_groth(comp.f_polys[j])
            oracle.see(relation(ws.M_int, f, lam, "left", what=f"radical F{tuple(idx)} eigen"))
            oracle.see(relation(
                ws.M_int, dec.g_coords(idx), lam, "left", chain=f, what=f"Jordan pair G{tuple(idx)}",
            ))
    rad_count = len(radical)
    _require(rad_count == n * (n - 1) // 2, f"{rad_count} radical elements")
    idem_coords = dec.idempotent_coords()
    _require(len(idem_coords) == n * (n + 1) // 2, f"{len(idem_coords)} idempotents")
    for idx, coords in idem_coords:
        lam = tab.lam(idx)
        what = f"idempotent at {tuple(idx)} leaves the generalized eigenspace"
        if idx.j == 0:
            oracle.see(relation(ws.M_int, coords, lam, "left", what=what))
        else:
            # corrected idempotents mix the Jordan pair: (M - lam) lands on the radical line
            f = radical[idx]
            c = _line_coefficient(ws.M_int, coords, lam, "left", f)
            oracle.see(relation(ws.M_int, coords, lam, "left", chain=f.scaled(c), what=what))

    # the two integer basis conversions are inverse to each other, so both are bijective
    _require(
        np.array_equal(ring.to_simple_matrix @ ring.to_poly_matrix, np.eye(n * n, dtype=np.int64)),
        "the basis conversions are not inverse to each other",
    )

    # eigen-idempotent certificates through the full presentation product
    idem_at = dict(idem_coords)
    sample_r = range(n) if n <= 7 else [0]
    for r in sample_r:
        c_u, ok = dec.eigenidem_certificate(EigIndex(0, r), idem_at[EigIndex(0, r)])
        _require(ok and c_u == ctx.one(), f"unit certificate fails at r={r}")
        c_u, ok = dec.eigenidem_certificate(EigIndex(1, r), radical[EigIndex(1, r)])
        _require(ok and c_u.is_zero(), f"radical certificate fails at r={r}")
        c_u, ok = dec.eigenidem_certificate(EigIndex(1, r), idem_at[EigIndex(1, r)])
        _require(ok and c_u == ctx.one(), f"corrected idempotent certificate fails at r={r}")
    # cross-component radical products through the full presentation
    rnd2 = _rng("radical-cross", n)
    for _ in range(2):
        j1, j2 = rnd2.randrange(1, h + 1), rnd2.randrange(1, h + 1)
        r1 = rnd2.randrange(n)
        r2 = (r1 + rnd2.randrange(1, n)) % n
        p1 = ring.simple_to_poly(radical[EigIndex(j1, r1)])
        p2 = ring.simple_to_poly(radical[EigIndex(j2, r2)])
        _require(ring.mul(p1, p2).is_zero(), "cross-component radical product not zero")

    if n == 3:
        for r in range(3):
            comp = dec.components[r]
            _require(comp.xi == ctx.root_power(2 * r) * 9, "xi != 9 q^{2r} at n=3")
            _require(comp.thetas[1] == ctx.root_power(r) * (-3), "theta != -3 q^r at n=3")
            _require(comp.nus[1] == ctx.one(), "nu != 1 at n=3")

    # numeric oracle on the algebra level: e^2 - e for one idempotent
    _, coords = idem_coords[0]
    un = coords.embed()
    square = np.zeros(n * n, dtype=complex)
    labels = all_labels(n)
    for pos in np.flatnonzero(coords.nums.any(axis=1)):
        lab = labels[pos]
        square += un[pos] * (un @ embed_mat(ws.mckay(lab.ell, lab.r)))
    oracle.vec_residual(np.abs(square - un))
    return oracle.residual, {"radical": rad_count, "idempotents": len(idem_coords)}


def check_fusion_matrix(ws: Workspace):
    """The fusion matrix on the independent projectives: block pattern and simple spectrum."""
    n, tab = ws.n, ws.tab
    oracle = Oracle()
    h = (n - 1) // 2
    Nr = build_fusion_from_rules(n)
    _require(Nr == build_fusion_blockform(n), "rule-built fusion matrix differs from the block pattern")
    _require(Nr.nrows == n * (h + 1) == n * (n + 1) // 2, f"fusion matrix has {Nr.nrows} rows")
    lams = []
    Ni = Nr.int_array()
    for idx in eig_indices(n):
        lam = tab.lam(idx)
        lams.append(lam)
        oracle.see(relation(Ni, fusion_right_eigvec(n, idx), lam, "right", what=f"fusion {idx}"))
        oracle.see(relation(Ni, fusion_left_eigvec(n, idx), lam, "left", what=f"fusion {idx}"))
    for a in range(len(lams)):
        for b in range(a):
            _require(lams[a] != lams[b], "fusion eigenvalues are not simple")
    # the boundary identities that close the block recursions
    for j in range(h + 1):
        _require(tab.l_vals[j][h] == tab.l_vals[j][h + 1], "L_h != L_{h+1} at an eigenvalue point")
        if h >= 1:
            _require(tab.v_vals[j][h + 1] == tab.v_vals[j][h - 1], "V_{h+1} != V_{h-1} at a point")
    # numeric spectrum match, as a two-sided nearest-point comparison
    num = np.linalg.eigvals(embed_mat(Nr))
    exact = embed_vec(lams)
    oracle.see(float(max(np.min(np.abs(exact - e)) for e in num)))
    oracle.see(float(max(np.min(np.abs(num - e)) for e in exact)))
    return oracle.residual, {"size": Nr.nrows}


def _entrywise_sums(products: CycArray, groups: int) -> CycArray:
    """The entries of `products` summed over `groups` consecutive runs of equal length."""
    nums = products.nums.reshape(groups, -1, products.ctx.degree)
    bound = products.max_abs() * nums.shape[1]
    return CycArray(products.ctx, int_array(nums, bound).sum(axis=1), products.den)


def _pairings(ctx, lrows, rrows) -> list[list[CycNum]]:
    """n sum_b lc[n-1-b] rc[b] for every lc in lrows and rc in rrows, by one entrywise product.

    The pairing couples block b of the (reversed) left family with block b of the right.
    """
    n, d = ctx.n, ctx.degree
    m_left, m_right = len(lrows), len(rrows)
    left = CycArray.from_list(ctx, [lc[n - 1 - b] for lc in lrows for b in range(n)])
    right = CycArray.from_list(ctx, [rc[b] for rc in rrows for b in range(n)])
    # entry (x, y, b) pairs coefficient b of left row x with coefficient b of right row y
    shape = (m_left, m_right, n, d)
    left = CycArray(ctx, np.broadcast_to(left.nums.reshape(m_left, 1, n, d), shape).reshape(-1, d), left.den)
    right = CycArray(ctx, np.broadcast_to(right.nums.reshape(1, m_right, n, d), shape).reshape(-1, d), right.den)
    sums = _entrywise_sums(left * right, m_left * m_right).scaled(ctx.from_rational(n)).to_list()
    return [sums[x * m_right:(x + 1) * m_right] for x in range(m_left)]


def check_dual_pairing(ws: Workspace):
    """Left/right family pairing is block diagonal and invertible; Cartan intertwining."""
    n, tab, ctx, ring = ws.n, ws.tab, ws.ctx, ws.ring
    oracle = Oracle()
    for r1 in range(n):
        for r2 in range(n):
            dot = ctx.from_qpowers((1, 2 * s * (r2 - r1)) for s in range(n))
            _require(
                dot == (ctx.from_rational(n) if r1 == r2 else ctx.zero()),
                "shift eigenvector pairing is not n times a delta",
            )
    idx_a, idx_b = EigIndex(0, 0), EigIndex(1, 0)
    full = _entrywise_sums(tab.left_eigvec(idx_a) * tab.right_eigvec(idx_b), 1)[0]
    _require(
        [[full]] == _pairings(ctx, [tab.left_coeffs(idx_a)], [tab.right_coeffs(idx_b)]),
        "factored pairing disagrees with the dense dot product",
    )
    for r in range(n):
        lrows, rrows = [], []
        for j in range((n + 1) // 2):
            idx = EigIndex(j, r)
            lrows.append(tab.left_coeffs(idx))
            rrows.append(tab.right_coeffs(idx))
            if j:
                lrows.append(tab.gen_left_coeffs(idx))
                rrows.append(tab.gen_right_coeffs(idx))
        _require(RingMatrix(_pairings(ctx, lrows, rrows)).rank_over_field() == n, f"pairing block degenerate at r={r}")
    C = ring.cartan_matrix().int_array()
    Q = ring.projective_mckay(2, 0).int_array()
    for c in ws.certs:
        cv = c.right.left_mul(C)
        oracle.see(relation(Q, cv, c.lam, "right", what=f"C v projective-side eigen at {c.index}"))
    return oracle.residual, {"blocks": n}


CHECKS = {
    "charpoly-table": check_charpoly_table,
    "charpoly-factorization": check_charpoly_factorization,
    "hopf-axioms": check_hopf_axioms,
    "coproduct-trace": check_coproduct_trace,
    "grouplike-traces": check_grouplike_traces,
    "spectral-certificates": check_spectral_certificates,
    "generalized-traces": check_generalized_traces,
    "projective-trace-table": check_projective_trace_table,
    "cartan-structure": check_cartan_structure,
    "mckay-closed-form": check_mckay_closed_form,
    "general-eigenvalues": check_general_eigenvalues,
    "grothendieck-idempotents": check_grothendieck_idempotents,
    "fusion-matrix": check_fusion_matrix,
    "dual-pairing": check_dual_pairing,
}


def check_ids() -> list[str]:
    return list(CHECKS) + ["oracle-concordance"]


@dataclass
class CheckResult:
    id: str
    status: str  # "pass", "fail" (a claim is false) or "error" (the check crashed)
    exact: bool
    oracle_residual: float
    elapsed: float
    detail: dict | None = None

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "status": self.status,
            "exact": self.exact,
            "oracle_residual": self.oracle_residual,
            "elapsed": round(self.elapsed, 6),
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteReport:
    n: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "all_pass": self.all_pass,
            "checks": [c.to_json() for c in self.checks],
        }


def run_suite(n: int, selection=None) -> SuiteReport:
    """Run the selected checks (all by default) for one n, in registry order."""
    limit = max_n()
    if n < 3 or n % 2 == 0 or n > limit:
        raise ValueError(f"n must be odd with 3 <= n <= {limit}; got {n}")
    if selection is not None:
        unknown = [s for s in selection if s not in CHECKS and s != "oracle-concordance"]
        if unknown:
            raise ValueError(f"unknown check ids: {unknown}; known: {check_ids()}")
        wanted = [cid for cid in CHECKS if cid in selection]
        include_concordance = "oracle-concordance" in selection
    else:
        wanted = list(CHECKS)
        include_concordance = True
    ws = get_workspace(n)
    report = SuiteReport(n)
    for cid in wanted:
        t0 = time.perf_counter()
        try:
            residual, detail = CHECKS[cid](ws)
            result = CheckResult(cid, "pass", True, float(residual), time.perf_counter() - t0, detail)
        except AssertionError as exc:  # CheckFailure included
            result = CheckResult(
                cid, "fail", False, float("inf"), time.perf_counter() - t0,
                {"counterexample": str(exc)},
            )
        except Exception as exc:  # a crash in one check must not cost the rest of the report
            result = CheckResult(
                cid, "error", False, float("inf"), time.perf_counter() - t0,
                {"error": f"{type(exc).__name__}: {exc}"},
            )
        report.checks.append(result)
    if include_concordance:
        t0 = time.perf_counter()
        bad = [
            c.id
            for c in report.checks
            if (c.status == "pass") != (c.oracle_residual < ORACLE_TOL)
        ]
        worst = max((c.oracle_residual for c in report.checks if c.status == "pass"), default=0.0)
        report.checks.append(
            CheckResult(
                "oracle-concordance",
                "pass" if not bad else "fail",
                not bad,
                worst,
                time.perf_counter() - t0,
                {"divergent": bad} if bad else None,
            )
        )
    return report


def emit_report(report: SuiteReport, fmt: str = "text") -> str:
    """Deterministic serialization of a report, as JSON or aligned text."""
    if fmt == "json":
        return json.dumps(report.to_json(), sort_keys=True, indent=2)
    if fmt != "text":
        raise ValueError("format must be 'json' or 'text'")
    width = max((len(c.id) for c in report.checks), default=1)
    lines = [f"n = {report.n}"]
    for c in report.checks:
        mark = {"pass": "✓", "fail": "✗"}.get(c.status, "!")
        lines.append(
            f"  {mark} {c.id.ljust(width)}  oracle {c.oracle_residual:9.2e}  {c.elapsed:7.2f}s"
        )
    lines.append("all checks passed" if report.all_pass else "FAILURES present")
    return "\n".join(lines)
