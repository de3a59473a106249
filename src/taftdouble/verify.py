"""Named verification suites: exact checks with a floating-point oracle alongside.

Each check certifies one cluster of claims about the double (characteristic
polynomial table, eigenvector residuals, Cartan structure, idempotent
decomposition, fusion rules, ...) in exact cyclotomic arithmetic, then
re-evaluates the same identities under the complex embedding q -> e^{2*pi*i/n}
and records the worst numeric residual.  Every eigen and Jordan relation of
an integer matrix goes through `polymat.relation`, one call per stack of
vectors (one r, module or i), which runs both routes.  A check passes only through the
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
from .cyclotomic import CycArray, CycNum, int_combination, int_matmul, make_context, segment_sum, sparse_product, sparse_rows
from .dnrep import (
    PbwElement,
    SimpleLabel,
    all_labels,
    coproduct_trace_sides,
    coproduct_trace_terms,
    double_rep,
    label_index,
)
from .grring import groth_ring
from .polymat import CheckFailure, RingMatrix, array_rank, relation
from .spectral import (
    EigIndex,
    block_matrices,
    build_fusion_blockform,
    build_fusion_from_rules,
    build_mckay_blockform,
    certificates,
    divide_by_linear,
    eig_indices,
    gen_trace_combinations,
    groth_decomposition,
    numerators,
    poly_derivative,
    spectral_tables,
    times_linear,
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

DEFAULT_MAX_N = 19
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
    """TAFTDOUBLE_MAX_N if set, else DEFAULT_MAX_N; ValueError unless an integer >= 3 (below, an empty run would pass)."""
    raw = os.environ.get("TAFTDOUBLE_MAX_N", str(DEFAULT_MAX_N))
    if not raw.strip().isdecimal() or int(raw) < 3:
        raise ValueError(f"TAFTDOUBLE_MAX_N must be an integer >= 3; got {raw!r}")
    return int(raw)


# ----------------------------------------------------------------------
# numeric oracle helpers


def _embed(x) -> complex:
    return x.embed() if isinstance(x, CycNum) else complex(x)


def embed_vec(vec) -> np.ndarray:
    return np.array([_embed(x) for x in vec], dtype=complex)


def embed_mat(m: RingMatrix) -> np.ndarray:
    """A matrix over Q(q) under the complex embedding (an integer array embeds by `.astype(complex)`)."""
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
    """Lazily built shared objects for one n, reused by every check.

    McKay matrices come from `ring.mckay_matrix`; the ring owns their state.
    """

    def __init__(self, n: int):
        self.n = n

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
    def M(self) -> np.ndarray:
        return self.ring.mckay_v20()

    @cached_property
    def M_blockform(self) -> np.ndarray:
        return build_mckay_blockform(self.n)

    @cached_property
    def certs(self):
        """`spectral.certificates`, each exact unless a relation of its vectors fails; sets `cert_residual`, the worst oracle residual.

        One `relation` call per r and side: vector j of the stack is the
        eigenvector at (j, r), vector h + j its Jordan completion, chained to vector j.
        """
        tab, n, h = self.tab, self.n, self.tab.h
        out = certificates(n)
        failed, residuals = set(), []
        for r in range(n):
            idx = [EigIndex(j, r) for j in range(h + 1)] + [EigIndex(j, r) for j in range(1, h + 1)]
            lams = [tab.lam(i) for i in idx]
            for side in ("right", "left"):
                stack = tab.stack(side)[r]
                head = stack.nums[:(h + 1) * n * n]
                chains = CycArray(self.ctx, np.concatenate([np.zeros_like(head), head[n * n:]]), stack.den)
                try:
                    residuals.append(self.relation(stack, lams, side, [f"{side} {i}" for i in idx], chains))
                except CheckFailure as failure:
                    failed.update(idx[k] for k in failure.vectors)
        for c in out:
            c.exact = c.index not in failed
        self.cert_residual = float("inf") if failed else max(residuals)
        return out

    def relation(self, vecs: CycArray, lams, side: str, labels, chains: CycArray | None = None) -> float:
        """`relation` against the McKay matrix M of V(2, 0), through the ring's sparse form of M (or of M^T, on the left), built once."""
        return relation(self.M, vecs, lams, side, labels, chains, self.ring.mckay_v20_rows(side))

    @cached_property
    def dec(self):
        return groth_decomposition(self.n)

    @cached_property
    def grouplike_traces(self) -> CycArray:
        """Tr_S(b^i c^k) for every (i, k), vector i n + k of one stack, from one `trace_vectors_S_at` call."""
        i, k = np.divmod(np.arange(self.n**2), self.n)
        return self.rep.trace_vectors_S_at(i, k, np.zeros_like(i))

    @cached_property
    def M_numeric(self) -> np.ndarray:
        return self.M.astype(complex)


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


def _on_line(A: np.ndarray, vecs: CycArray, lams, side: str, lines: CycArray) -> tuple[CycArray, CycArray]:
    """(t_p v, w_p t) for each vector v of the stack vecs, with t its line, p the first nonzero coordinate of t and w = (A - lam) v.

    A is an integer matrix and side as in `relation`; vecs and lines are
    stacks of the same layout, with one eigenvalue in lams per vector.
    `relation` with these vectors and chains certifies t_p w = w_p t, which is
    w = (w_p / t_p) t without a division.  Row p of A V gives every w_p at
    once, and `mul_matrices` multiplies each vector by its own scalar.
    """
    ctx = vecs.ctx
    m, d = len(lams), ctx.degree
    V, T = vecs.nums.reshape(m, -1, d), lines.nums.reshape(m, -1, d)
    spans = T.any(axis=2)
    if not spans.any(axis=1).all():
        raise CheckFailure("the spanning vector of the line is zero")
    p, k = spans.argmax(axis=1), np.arange(m)
    rows = (A if side == "right" else A.T)[p]  # row p of A for each vector
    image = CycArray(ctx, int_matmul(rows[:, None, :], V)[:, 0], vecs.den)
    w_p = image + -(CycArray.from_list(ctx, lams) * CycArray(ctx, V[k, p], vecs.den))
    scaled = CycArray(ctx, int_matmul(V, ctx.mul_matrices(T[k, p])).reshape(-1, d), vecs.den * lines.den)
    chains = CycArray(ctx, int_matmul(T, ctx.mul_matrices(w_p.nums)).reshape(-1, d), lines.den * w_p.den)
    return scaled, chains


def _vectors(stack: CycArray, positions, size: int) -> CycArray:
    """The vectors at `positions` of a stack of vectors with `size` entries each, as a stack."""
    return stack.take((np.asarray(positions)[:, None] * size + np.arange(size)).ravel())


def _first_mismatch(got: CycArray, want: CycArray):
    """The first entry where got and want differ, or None when they are equal (one cross-multiplied comparison)."""
    differ = got.mismatches(want)
    return int(differ.argmax()) if differ.any() else None


def _block_charpoly_values(t: np.ndarray, qk, n: int):
    """The k-th block polynomial and its derivative at the points t, numerically (qk = q^k embedded, or a column of them, one per row of t).

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


def _first_block(got: np.ndarray, want: np.ndarray):
    """The first index along axis 0 where two integer arrays differ, or None."""
    differ = (got != want).reshape(len(got), -1).any(axis=1)
    return int(differ.argmax()) if differ.any() else None


def _specialized(ctx, p) -> np.ndarray:
    """p(t, D) at D = q^k for every k: an (n, deg + 1, phi) integer array, [k, a] the coefficient of t^a."""
    n = ctx.n
    counts = np.zeros((n, max(a for a, _ in p.terms) + 1, n), dtype=np.int64)
    k = np.arange(n)
    for (a, b), c in p.terms.items():
        counts[k, a, k * b % n] += c
    return CycArray.from_qpowers(ctx, counts.reshape(-1, n)).nums.reshape(n, -1, ctx.degree)


def _faddeev_leverrier(ctx, mats: np.ndarray, labels) -> np.ndarray:
    """det(t I - A) for a stack of K matrices A over Z[q], (K, m, m, phi) numerators over 1: (K, m + 1, phi), low degree first.

    The trace recursion M_1 = I, c_{m-k} = -tr(A M_k) / k, M_{k+1} = A M_k + c_{m-k} I.
    A M_k is gathered over the entries of A that are nonzero in some block:
    row l of M_k times the multiplication matrix of A[i, l], summed into row
    i.  A characteristic polynomial over Z[q] has its coefficients in Z[q],
    so every division by k is exact; a remainder raises CheckFailure naming
    the block (labels[s]).
    """
    K, m, _, d = mats.shape
    rows, cols = np.nonzero(mats.any(axis=(0, 3)))  # row-major, so each row's entries are one run
    entries = ctx.mul_matrices(mats[:, rows, cols].reshape(-1, d)).reshape(K, len(rows), d, d)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    diag = np.arange(m)
    M = np.zeros_like(mats)
    M[:, diag, diag, 0] = 1
    coeffs = [M[:, 0, 0].copy()]  # c_m = 1, then descending
    for k in range(1, m + 1):
        AM = np.zeros_like(M)
        AM[:, rows[starts]] = segment_sum(int_matmul(M[:, cols], entries).transpose(1, 0, 2, 3), starts).transpose(1, 0, 2, 3)
        trace = segment_sum(AM[:, diag, diag].transpose(1, 0, 2))
        rem = (trace % k != 0).any(axis=1)
        if rem.any():
            raise CheckFailure(f"generic determinant route: tr(A M_{k}) is not divisible by {k} at block {labels[int(rem.argmax())]}")
        coeffs.append(-(trace // k))
        scalar = np.zeros_like(AM)
        scalar[:, diag, diag] = coeffs[-1][:, None]
        M = int_combination([(1, AM), (1, scalar)])
    return np.stack(coeffs[::-1], axis=1)


def _multiplicity_failures(ctx, polys: np.ndarray, roots: np.ndarray) -> list[int]:
    """The blocks k whose roots lack their stated multiplicities, certified from the polynomials' own coefficients without a division.

    polys (K, L, phi) and roots (K, m, phi) are numerators over 1; roots[k, 0]
    must be simple, p'(root) != 0, and roots[k, j], j >= 1, double,
    p'(root) = 0 and p''(root) != 0.  With the split form
    p = (t - root_0) prod (t - root_j)^2 this makes the roots pairwise
    distinct, so gcd(p, p') = prod (t - root_j).
    """
    K, m, d = roots.shape
    slope = poly_derivative(polys)

    def nonzero(p):
        return divide_by_linear(ctx, np.repeat(p, m, axis=0), roots.reshape(-1, d))[1].any(axis=1).reshape(K, m)

    first, second = nonzero(slope), nonzero(poly_derivative(slope))
    return np.flatnonzero(~first[:, 0] | first[:, 1:].any(axis=1) | ~second[:, 1:].all(axis=1)).tolist()


def _charpoly_scales(tab) -> np.ndarray:
    """Per block, max(1, the largest embedded coefficient): the oracles' normalization."""
    n = tab.n
    return np.maximum(1.0, np.abs(tab.block_polys().embed()).reshape(n, n + 1).max(axis=1))[:, None]


def _qk_embedded(ctx) -> np.ndarray:
    """q^k under the embedding, for k = 0..n-1, as a column."""
    return CycArray.from_qpowers(ctx, np.eye(ctx.n, dtype=np.int64)).embed()[:, None]


def check_charpoly_table(ws: Workspace):
    """Block characteristic polynomials match the frozen table, exactly and per block.

    All n block polynomials are one integer array (`SpectralTables.block_polys`),
    compared at once with the D = q^k specializations of p_n and with the
    Faddeev-LeVerrier determinant of the block matrices (every block for
    n <= 7, blocks 0 and 1 above).
    """
    n, tab, ctx = ws.n, ws.tab, ws.ctx
    oracle = Oracle()
    p = p_n_bivariate(n)
    if n in P_TABLE:
        _require(p.terms == P_TABLE[n], f"p_{n} differs from the frozen coefficient table")
    _require(p == p_n_bivariate_closed(n), "recursion and closed form disagree")
    d = ctx.degree
    polys = tab.block_polys().nums.reshape(n, n + 1, d)
    bad = _first_block(polys, _specialized(ctx, p))
    _require(bad is None, f"block {bad} charpoly differs from the D = q^{bad} specialization")
    blocks = block_matrices(n)
    ks = list(range(n)) if n <= 7 else [0, 1]
    bad = _first_block(_faddeev_leverrier(ctx, blocks.nums.reshape(n, n, n, d)[ks], ks), polys[ks])
    if bad is not None:
        raise CheckFailure(f"generic determinant route disagrees at block {ks[bad]}")
    # numeric oracle: eigenvalues of the embedded blocks solve the embedded polynomials
    vals, _ = _block_charpoly_values(np.linalg.eigvals(blocks.embed().reshape(n, n, n)), _qk_embedded(ctx), n)
    oracle.vec_residual((np.abs(vals) / _charpoly_scales(tab)).ravel())
    return oracle.residual, {"blocks": n}


def check_charpoly_factorization(ws: Workspace):
    """p_n(t) = (t-2) W_h(t)^2, and each block polynomial splits with the stated multiplicities.

    The split form (t - 2q^r) prod (t - lam)^2 is multiplied out for every
    block at once by stacked linear factors, and the multiplicities are
    certified from the derivatives at the roots (`_multiplicity_failures`).
    """
    n, tab, ctx = ws.n, ws.tab, ws.ctx
    oracle = Oracle()
    h, d = (n - 1) // 2, ctx.degree
    _require(p_n_factor_check(n), "integer factorization identity failed")
    w = cheb_poly("W", h)
    for t in (Fraction(3, 10), Fraction(-17, 10), Fraction(5, 2)):
        lhs = bivariate_to_poly(p_n_bivariate(n), 1).eval(t)
        rhs = (t - 2) * w.eval(t) ** 2
        oracle.see(abs(float(lhs - rhs)))
    polys = tab.block_polys().nums.reshape(n, n + 1, d)
    roots = tab.block_roots().nums.reshape(n, h + 1, d)
    split = np.zeros((n, 1, d), dtype=np.int64)
    split[:, 0, 0] = 1
    for j in [0] + [j for j in range(1, h + 1) for _ in range(2)]:
        split = times_linear(ctx, split, roots[:, j])
    bad = _first_block(split, polys)
    _require(bad is None, f"block {bad} does not split as (t - 2q^r) prod (t - lam)^2")
    bad = _multiplicity_failures(ctx, polys, roots)
    if bad:
        raise CheckFailure(f"multiplicity structure wrong in block {bad[0]}: a double root is not exactly double or the simple root not simple")
    # numeric oracle: the embedded polynomial and its derivative vanish at the roots
    # (eigensolvers are sqrt(eps)-accurate on defective matrices, so evaluate instead)
    points = tab.block_roots().embed().reshape(n, h + 1)
    vals, _ = _block_charpoly_values(points, _qk_embedded(ctx), n)
    _, slopes = _block_charpoly_values(points[:, 1:], _qk_embedded(ctx), n)
    oracle.vec_residual((np.abs(vals) / _charpoly_scales(tab)).ravel())
    oracle.vec_residual((np.abs(slopes) / _charpoly_scales(tab)).ravel())
    return oracle.residual, {"blocks": n}


def check_hopf_axioms(ws: Workspace):
    """Defining relations on every simple module; counit, coassociativity and
    multiplicativity of the coproduct on a sample.

    The ten relations of all n^2 modules are one `DoubleRep.verify_relations`
    call, on the generators stacked as weighted shifts, four stacks per
    dimension.  The sample goes through keyed `PbwElement`s, each holding a
    run of samples under their own keys, so that one pass certifies every
    identity for all of them (`_certify_hopf_sample`).
    """
    n, rep, ctx = ws.n, ws.rep, ws.ctx
    oracle = Oracle()
    fails = rep.verify_relations(all_labels(n))
    if fails:
        first = fails[0][0]
        more = len({lab for lab, _ in fails}) - 1
        names = [name for lab, name in fails if lab == first]
        raise CheckFailure(f"relations {names} fail on {first}" + (f" and on {more} more modules" if more else ""))
    # numeric re-check of the mixed relation on the largest module
    na, nb, nc, nd = (x.embed() for x in rep.action_shifts(SimpleLabel(n, 1)))
    q = ctx.root_power(1).embed()
    resid = nd @ na - q * (na @ nd) - (np.eye(n) - nb @ nc)
    oracle.vec_residual(np.abs(resid).ravel())

    monos = _hopf_sample(n)
    _certify_hopf_sample(rep, monos)
    detail = {"labels": n * n, "sampled_monomials": len(monos), "multiplicativity_pairs": len(monos) * len(GENERATORS)}
    return oracle.residual, detail


def _hopf_sample(n: int) -> list[tuple]:
    """The seeded normal-ordered monomials (al, be, ga, de) on which hopf-axioms certifies the coproduct."""
    rnd = _rng("hopf-axioms", n)
    return [(rnd.randrange(n), rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)) for _ in range(20)]


# the most rows of presentation products that one stacked product of
# grothendieck-idempotents returns: the E_u grid runs in passes within it
# (5 at n = 11, 22 at n = 17), which keeps the peak memory of the check at
# that of one product at a time (a whole grid of 66 products at n = 11 took
# 0.7 MB more)
GROTH_PASS_ROWS = 1 << 11

# the generators g of the multiplicativity identities D(xg) = D(x) D(g)
GENERATORS = "abcd"

# the most terms the two sides of the coassociativity identity may have in one
# keyed pass of the hopf-axioms sample: at n = 11 four passes, whose
# temporaries stay near those of one monomial at a time
HOPF_PASS_TERMS = 1 << 13


def _hopf_passes(monos: list[tuple]) -> list[list[int]]:
    """The positions of the sample in runs of consecutive ones, each within HOPF_PASS_TERMS (or a single sample).

    At x = a^al b^be c^ga d^de each side of the coassociativity identity
    has T(al + 1) T(de + 1) terms before they are collected, T(m) = m (m + 1) / 2.
    """
    passes, terms = [[]], 0
    for s, (al, _be, _ga, de) in enumerate(monos):
        size = (al + 1) * (al + 2) * (de + 1) * (de + 2) // 2
        if passes[-1] and terms + size > HOPF_PASS_TERMS:
            passes.append([])
            terms = 0
        passes[-1].append(s)
        terms += size
    return passes


def _certify_hopf_sample(rep, monos: list[tuple]):
    """Counit, coassociativity and multiplicativity of the coproduct at every x = monos[s], a run of samples per pass.

    Raises CheckFailure at the first sample that fails, naming its first
    failing identity (`_hopf_pass`).
    """
    for keys in _hopf_passes(monos):
        found = _hopf_pass(rep, monos, np.array(keys, dtype=np.int64))
        if found:
            s, _, text = min(found)
            raise CheckFailure(text.format(monos[s]))


def _hopf_pass(rep, monos: list[tuple], keys: np.ndarray) -> list[tuple]:
    """Every identity of the hopf-axioms sample at the samples s in keys, in one pass; returns (s, identity, message) per failure.

    x is one `PbwElement` holding monos[s] under key s.  The products x g
    for the four generators g are one element under the keys 4 s + (index
    of g), and each identity compares two keyed elements: the terms of both
    sides are coded, the right-hand side is negated, and the segment sums by
    (key, code) must all vanish.  Identities are numbered in the order
    counit, counit, coassociativity, then D(xg) = D(x) D(g) for g = a, b, c, d.
    """
    ctx, names = rep.ctx, GENERATORS
    codes = np.array([rep.pbw_code(monos[s]) for s in keys], dtype=np.int64)
    x = PbwElement(rep, codes, CycArray.from_list(ctx, [1] * len(keys)), keys)
    delta = x.coproduct()
    eps_id, id_eps = delta.counit_legs()
    found = []
    for rank, (failed, text) in enumerate([
        (eps_id.mismatched_keys(x), "(eps x id) failed on {}"),
        (id_eps.mismatched_keys(x), "(id x eps) failed on {}"),
        (delta.noncoassociative_keys(), "coassociativity failed on {}"),
    ]):
        found += [(int(s), rank, text) for s in failed]
    pairs = (keys[:, None] * len(names) + np.arange(len(names))).ravel()  # key 4 s + g: sample s times generator g
    ones = CycArray.from_list(ctx, [1] * len(pairs))
    xs = PbwElement(rep, np.repeat(codes, len(names)), ones, pairs)
    gens = PbwElement(rep, np.tile(np.concatenate([rep.pbw_generator(g).codes for g in names]), len(keys)), ones, pairs)
    for key in (xs * gens).coproduct().mismatched_keys(xs.coproduct() * gens.coproduct()):
        s, g = divmod(int(key), len(names))
        found.append((s, 3 + g, f"D(x{names[g]}) != D(x) D({names[g]}) at x = {{}}"))
    return found


def check_coproduct_trace(ws: Workspace):
    """The coproduct trace identity for the McKay matrix on a sample of basis monomials."""
    n, rep = ws.n, ws.rep
    oracle = Oracle()
    rnd = _rng("coproduct-trace", n)
    monos = []
    for _ in range(20):  # a^t b^i c^k d^t: a monomial with unequal powers of a and d has no trace
        t, i, k = rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)
        monos.append((t, i, k, t))
    vlabels = [SimpleLabel(2, 0)] if n >= 11 else [SimpleLabel(2, 0), SimpleLabel(3, 1)]
    for vlabel in vlabels:
        Mv = ws.ring.mckay_matrix(vlabel.ell, vlabel.r)
        Mv_rows = sparse_rows(Mv)  # the oracle applies Mv by its nonzeros, without a BLAS call
        for mono in monos:
            left, right = coproduct_trace_terms(rep, mono, vlabel)
            lhs, rhs = coproduct_trace_sides(rep, Mv, left, right)
            _require(lhs == rhs, f"trace identity failed for {mono} against V{tuple(vlabel)}")
            # the oracle weighs the embedded terms itself, in complex arithmetic,
            # relative to the largest of them
            (coeffs, vectors), (rcoeffs, weights, rvectors) = left, right
            tr_x = coeffs.embed() @ vectors.embed().reshape(-1, n * n)
            image = sparse_product(Mv_rows, tr_x[:, None])[:, 0]
            terms = (rcoeffs.embed() * weights.embed())[:, None] * rvectors.embed().reshape(-1, n * n)
            scale = max(1.0, float(np.abs(image).max()), float(np.abs(terms).max(initial=0.0)))
            oracle.vec_residual(np.abs(image - terms.sum(axis=0)) / scale)
    return oracle.residual, {"sampled_monomials": len(monos), "modules": len(vlabels)}


def check_grouplike_traces(ws: Workspace):
    """Grouplike trace vectors are the Chebyshev eigenvectors, with all symmetries.

    The stack of every Tr_S(b^i c^k) is built by one contraction
    (`Workspace.grouplike_traces`); its run at i holds them for every k, and
    is compared in one
    step each with the right eigenvectors gathered at the matching (j, r),
    with the stack of its partners Tr_S(b^{-k} c^{-i}), and with the closed
    form of the characters, and certified by one `relation` call.
    """
    n, tab, ctx, h = ws.n, ws.tab, ws.ctx, ws.tab.h
    oracle = Oracle()
    size = n * n
    labels = all_labels(n)
    right = CycArray.concat(ctx, [stack.take(slice(0, (h + 1) * size)) for stack in tab.stack("right")])  # (r, j) major
    # the character of V(ell, s) is the eigenvalue of its McKay matrix on the family,
    # which is its value at s = 0 times q^{2sr}
    closed = CycArray.from_list(
        ctx, [tab.general_eigenvalue(EigIndex(j, r), ell, 0) for r in range(n) for j in range(h + 1) for ell in range(1, n + 1)]
    ).qpow(2 * np.outer(np.arange(n), np.arange(n)))  # block r over q^{2sr}
    top = label_index(n, SimpleLabel(n, 0))
    for i in range(n):
        traces = _vectors(ws.grouplike_traces, [i * n + k for k in range(n)], size)
        idx = [tab.index_from_grouplike(i, k) for k in range(n)]
        rows = (np.array([x.r * (h + 1) + x.j for x in idx])[:, None] * size + np.arange(size)).ravel()
        bad = _first_mismatch(traces, right.take(rows))
        if bad is not None:
            k = bad // size
            raise CheckFailure(f"Tr_S(b^{i} c^{k}) is not the ({idx[k].j},{idx[k].r}) eigenvector")
        bad = _first_mismatch(traces, _vectors(ws.grouplike_traces, [(-k % n) * n + (-i % n) for k in range(n)], size))
        if bad is not None:
            raise CheckFailure(f"symmetry fails at ({i},{bad // size})")
        bad = _first_mismatch(traces, closed.take(rows))
        if bad is not None:
            raise CheckFailure(f"character closed form fails at {labels[bad % size]}, ({i},{bad // size})")
        for k in range(n):
            if (i + k) % n:
                _require(not traces.nums[k * size + top:(k + 1) * size].any(), f"Tr_S(b^{i} c^{k}) does not vanish on V(n, .)")
        lams = [tab.lam(x) for x in idx]
        oracle.see(ws.relation(traces, lams, "right", [f"Tr_S(b^{i} c^{k}) eigen" for k in range(n)]))
    dims = CycArray.from_list(ctx, ws.ring.dim_simple_vector())
    _require(ws.grouplike_traces.take(slice(0, size)) == dims, "Tr_S(1) is not the dimension vector")
    return oracle.residual, {"pairs": n * n}


def check_spectral_certificates(ws: Workspace):
    """Exact eigen and Jordan relations for every (j, r), plus completeness of both families."""
    n, tab, ctx = ws.n, ws.tab, ws.ctx
    oracle = Oracle()
    _require(np.array_equal(ws.M, ws.M_blockform), "ring-derived McKay matrix differs from its block pattern")
    certs = ws.certs
    inexact = [c.index for c in certs if not c.exact]
    if inexact:
        raise CheckFailure(f"exact eigen or Jordan relation fails at {inexact}")
    lams = [c.lam for c in certs]
    for a in range(len(lams)):
        for b in range(a):
            _require(lams[a] != lams[b], f"eigenvalues coincide: {certs[a].index} vs {certs[b].index}")
    try:
        tab.eigvec("gen_right", EigIndex(0, 0))
    except ValueError:
        pass
    else:
        raise CheckFailure("j = 0 must reject Jordan completions")

    # completeness: the stacked families factor through the shift eigenvectors,
    # so full rank reduces to one Vandermonde and per-r coefficient blocks
    exps = 2 * np.outer(np.arange(n), np.arange(n)).ravel()
    ident = np.eye(n, dtype=np.int64)
    _require(array_rank(CycArray.from_qpowers(ctx, ident[exps % n]), n) == n, "shift eigenvector basis is degenerate")
    _require(array_rank(CycArray.from_qpowers(ctx, ident[-exps % n]), n) == n, "left shift eigenvector basis is degenerate")
    for r, (right, left) in enumerate(zip(tab.coefficients("right"), tab.coefficients("left"))):
        _require(array_rank(right, n) == n, f"right family degenerate at r={r}")
        _require(array_rank(left, n) == n, f"left family degenerate at r={r}")
    if n <= 5:
        dense = CycArray.concat(ctx, tab.stack("right"))
        _require(array_rank(dense, n * n) == n * n, "dense-route completeness check failed")

    oracle.see(ws.cert_residual)
    for side in ("right", "left"):  # embedded r by r, which keeps the float temporaries small
        oracle.rank(np.concatenate([v.embed() for v in tab.stack(side)]).reshape(-1, n * n), n * n)
    return oracle.residual, {"certificates": len(certs)}


def check_generalized_traces(ws: Workspace):
    """Trace combinations of b^i c^k d^l a^l land in the right generalized eigenspace.

    Each i's combinations, for every k, come from one contraction
    (`gen_trace_combinations`), and are certified by one `relation` call.
    """
    n, rep, ctx = ws.n, ws.rep, ws.ctx
    oracle = Oracle()
    size = n * n
    rnd = _rng("generalized-traces", n)
    bcda_samples = {(rnd.randrange(n), rnd.randrange(n)) for _ in range(4)}
    for i in range(n):  # one stack per i: its vectors, chains, eigenvalues and labels
        ks, combos, gammas, lams = gen_trace_combinations(n, i)
        for coeffs in gammas:
            _require(coeffs[-1] == ctx.one(), "the top coefficient must be 1")
        # (M - lam) v lies on the line through the eigenvector t, and (M - lam) t = 0
        lines = _vectors(ws.grouplike_traces, [i * n + k for k in ks], size)
        scaled, chain = _on_line(ws.M, combos, lams, "right", lines)
        vecs, chains, lams = [scaled, lines], [chain, CycArray.zeros(ctx, len(lines))], list(lams) * 2
        labels = [f"residual off the eigenline at ({i},{k})" for k in ks]
        labels += [f"(M - lam)^2 does not annihilate at ({i},{k})" for k in ks]
        for k in (k for k in ks if (i, k) in bcda_samples):
            s = (-(i + k)) % n
            steps = rep.trace_vectors_S_at([i] * (s + 1), [k] * (s + 1), range(s + 1))  # l = 0..s
            for l in range(1, s + 1):
                qint = ctx.quantum_integer(l)
                coeff = (qint * qint * (ctx.one() - ctx.root_power(-1))).mul_qpow(-l - k + 1)
                vecs.append(steps.take(slice(l * size, (l + 1) * size)))
                chains.append(steps.take(slice((l - 1) * size, l * size)).scaled(coeff))
                lams.append(ctx.root_power(l + i) + ctx.root_power(-l - k))
                labels.append(f"stepdown identity at ({i},{k}), l={l}")
        oracle.see(ws.relation(CycArray.concat(ctx, vecs), lams, "right", labels, CycArray.concat(ctx, chains)))
    return oracle.residual, {"pairs": n * n - n}


def check_projective_trace_table(ws: Workspace):
    """Projective trace vectors: left eigenvectors, vanishing pattern, idempotent match."""
    n, rep, ctx, dec = ws.n, ws.rep, ws.ctx, ws.dec
    oracle = Oracle()
    rows = {i: rep.trace_vector_P(i, -i) for i in range(n)}
    lams = [ctx.root_power(-i) * 2 for i in range(n)]  # the trace of b^i c^{-i} on the dual of V(2,0)
    oracle.see(ws.relation(CycArray.concat(ctx, list(rows.values())), lams, "left", [f"Tr_P eigen at i={i}" for i in range(n)]))
    units = {}
    for i, w in rows.items():
        units[i] = dec.idempotent_coords[EigIndex(0, (-i) % n)]
        scal = w.line_coefficient(units[i])
        _require(scal is not None and scal, f"Tr_P(b^{i}c^-{i}) not proportional to the idempotent")
    for i in range(n):
        for k in range(n):
            if (i + k) % n:
                _require(rep.trace_vector_P(i, k).is_zero(), f"Tr_P(b^{i}c^{k}) does not vanish")
    if n == 3:
        for i in range(3):
            expect = [ctx.root_power(e) * c for (c, e) in TABLE_N3_ROWS[i]]
            _require(rows[i].to_list() == expect, f"frozen n=3 row {i} mismatch")
            _require(
                units[i].scaled(ctx.from_rational(81)) == rows[i], f"81 xi^-1 F_0,{-i % 3} does not match the table row"
            )
    return oracle.residual, {"rows": n}


def check_cartan_structure(ws: Workspace):
    """Cartan rank and kernel, and the intertwining QC = CM for every simple module."""
    n, ring = ws.n, ws.ring
    oracle = Oracle()
    C = ring.cartan_matrix()
    _require(ring.cartan_rank() == n * (n + 1) // 2, "Cartan rank differs from n(n+1)/2")
    kb, annihilated, independent = ring.cartan_kernel()
    _require(len(kb) == n * (n - 1) // 2, f"{len(kb)} Cartan kernel vectors")
    _require(annihilated, "stated kernel vector not annihilated")
    _require(independent, "kernel vectors are dependent")
    for lab in all_labels(n):
        row = C[label_index(n, lab)].tolist()
        if lab.ell == n:
            _require(sum(row) == 1 and row[label_index(n, lab)] == 1, f"Cartan row of {lab} is not a unit vector")
        else:
            _require(sorted(x for x in row if x) == [2, 2], f"Cartan row of {lab} is not two entries 2")
    C_numeric = C.astype(float)
    oracle.rank(C_numeric, n * (n + 1) // 2)

    ident = np.eye(n * n, dtype=np.int64)
    _require(np.array_equal(ring.projective_mckay(1, 0), ident), "tensoring with the unit must be the identity")
    _require(
        np.array_equal(ring.projective_mckay_v20_rules(), ring.projective_mckay(2, 0)),
        "rule-built projective McKay matrix differs from the dual-transpose route",
    )
    C_rows, Ct_rows = sparse_rows(C), sparse_rows(C.T)
    rnd = _rng("cartan-structure", n)
    numeric_sample = {(rnd.randrange(1, n + 1), rnd.randrange(n)) for _ in range(3)}
    for ell in range(1, n + 1):
        # the dual of V(ell, s) is V(ell, 1 - s - ell): one ell's arrays serve both sides
        arrays = [ring.mckay_matrix(ell, s) for s in range(n)]
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
        _require(
            np.array_equal(ring.mckay_matrix(ell, s), ring.mckay_matrix_closed(ell, s)),
            f"closed form fails for V({ell},{s})",
        )
    ident = np.eye(n * n, dtype=np.int64)
    for s in range(n):
        _require(np.array_equal(ring.mckay_matrix(1, s), ring.z_shift(ident, s)), f"V(1,{s}) is not the shift Z^{s}")

    ctx = ws.ctx
    svec = ring.dim_simple_vector()
    pvec = ring.dim_projective_vector()
    two = ctx.from_rational(2)
    oracle.see(ws.relation(CycArray.from_list(ctx, svec), [two], "right", ["dimension vector"]))
    oracle.see(ws.relation(CycArray.from_list(ctx, pvec), [two], "left", ["projective dimension vector"]))
    _require(sum(a * b for a, b in zip(pvec, svec)) == n**4, "dimension pairing misses the basis count")

    rnd = _rng("mckay-commute", n)
    for _ in range(4):
        a = (rnd.randrange(1, n + 1), rnd.randrange(n))
        b = (rnd.randrange(1, n + 1), rnd.randrange(n))
        A, B = ring.mckay_matrix(*a), ring.mckay_matrix(*b)
        AB, BA = sparse_product(sparse_rows(A), B), sparse_product(sparse_rows(B), A)  # A @ B and B @ A
        _require(np.array_equal(AB, BA), f"McKay matrices do not commute: {a}, {b}")
        A, B = A.astype(float), B.astype(float)
        oracle.vec_residual(np.abs(A @ B - B @ A).ravel())
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
    V = CycArray.concat(ctx, [tab.eigvec("right", idx) for idx in indices])
    W = CycArray.concat(ctx, [tab.eigvec("left", idx) for idx in indices])
    for ell, s in mods:  # one stack per module and side
        Mv = ws.ring.mckay_matrix(ell, s % n)
        Qv = ws.ring.projective_mckay(ell, s % n)
        vals = [tab.general_eigenvalue(idx, ell, s) for idx in indices]
        pvals = [tab.projective_eigenvalue(idx, ell, s) for idx in indices]
        where = [f"V({ell},{s}), {idx}" for idx in indices]
        oracle.see(relation(Mv, V, vals, "right", [f"right eigenvalue for {x}" for x in where]))
        oracle.see(relation(Mv, W, vals, "left", [f"left eigenvalue for {x}" for x in where]))
        oracle.see(relation(Qv, V, pvals, "left", [f"projective left eigenvalue for {x}" for x in where]))
        oracle.see(relation(Qv, W, pvals, "right", [f"projective right eigenvalue for {x}" for x in where]))
    return oracle.residual, {"modules": len(mods), "indices": len(indices)}


def _items(p) -> CycArray:
    """A presentation element (or stack) over Q(q) as the array of its coefficients."""
    return CycArray(p.ctx, p.nums, p.den)


def _scaled_items(stack: CycArray, table: CycArray, which, size: int) -> CycArray:
    """Element s of a stack (size entries each) times the scalar table[which[s]]: one batched product through their multiplication matrices."""
    d = stack.ctx.degree
    nums = int_matmul(stack.nums.reshape(-1, size, d), stack.ctx.mul_matrices(table.nums)[np.asarray(which)])
    return CycArray(stack.ctx, nums.reshape(-1, d), stack.den * table.den)


def _component_identities(comp, h: int):
    """The products that component `comp` must satisfy, as (basis, table, pairs, expected, names), in check order.

    basis stacks F_0..F_h, G_1..G_h, the numerators N_a of the idempotents
    N_a / D_a and a zero array, all over denominator 1 (`numerators`); each
    pair (a, b) of basis positions has an expected product, the sum of two
    (scalar, basis position) terms over the scalar table 0, 1, xi, theta_j,
    nu_j, D_a: e_a e_b = delta_ab e_a is N_a N_b = delta_ab D_a N_a.
    """
    F, G, E, ZERO = (lambda j: j), (lambda j: h + j), (lambda a: 2 * h + 1 + a), 3 * h + 2
    XI, THETA, NU, D = 2, (lambda j: 2 + j), (lambda j: 2 + h + j), (lambda a: 3 + 2 * h + a)
    r, none = comp.r, (0, ZERO)
    rows = []
    for j in range(1, h + 1):
        rows += [(F(j), F(k), none, none, f"F({j},{r}) F({k},{r}) != 0") for k in range(1, j + 1)]
    rows.append((F(0), F(0), (XI, F(0)), none, f"F(0,{r})^2 != xi F(0,{r})"))
    for j in range(1, h + 1):
        rows.append((G(j), F(j), (THETA(j), F(j)), none, f"G F != theta F at ({j},{r})"))
        rows.append((G(j), G(j), (THETA(j), G(j)), (NU(j), F(j)), f"G^2 != theta G + nu F at ({j},{r})"))
    for a in range(h + 1):
        for b in range(a + 1):
            message = f"idempotency fails at ({a},{r})" if a == b else f"orthogonality fails at ({a},{b},{r})"
            rows.append((E(a), E(b), (D(a), E(a)) if a == b else none, none, message))
    idems, dens = numerators(comp.ctx, comp.idempotent_polys())
    basis = CycArray.concat(comp.ctx, comp.f_polys + comp.g_polys[1:] + [idems, CycArray.zeros(comp.ctx, comp.dec.n)])
    table = CycArray.concat(comp.ctx, [CycArray.from_list(comp.ctx, [0, 1]), comp.scalars, CycArray.from_list(comp.ctx, dens)])
    left, right, first, second, names = zip(*rows)
    return basis, table, (left, right), (first, second), names


def _certify_grouplike_idempotents(dec):
    """E_u E_v = delta_uv E_u and g E_u = q^u E_u through the full presentation product, in passes of at most GROTH_PASS_ROWS product rows."""
    n, size, ring = dec.n, dec.n * dec.n, dec.ring
    E = dec.e_idempotents()
    grid = np.transpose(np.tril_indices(n))  # (u, v), v <= u
    per = max(1, GROTH_PASS_ROWS // size)
    for start in range(0, len(grid), per):
        u, v = grid[start:start + per].T
        got = ring.mul(E.take(u), E.take(v))
        bad = (u != v) & got.nums.reshape(len(u), -1).any(axis=1)  # E_u E_v = 0
        bad[u == v] = _items(got.take(np.flatnonzero(u == v))).mismatches(_items(E.take(u[u == v])), size)  # E_u^2 = E_u
        if bad.any():
            a, b = int(u[bad.argmax()]), int(v[bad.argmax()])
            raise CheckFailure(f"E_{a} is not idempotent" if a == b else f"E_{a} E_{b} != 0")
    shifted = np.roll(E.nums.reshape(n, n, n, -1), 1, axis=1).reshape(E.nums.shape)  # g E_u: the g-index moves by one
    bad = CycArray(dec.ctx, shifted, E.den).mismatches(_items(E).qpow(np.arange(n)), size)
    _require(not bad.any(), f"g E_{bad.argmax()} != q^{bad.argmax()} E_{bad.argmax()}")


def _certify_component(comp, h: int):
    """Every product identity of one component (`_component_identities`) as one stacked product, and the rank of its basis."""
    n = comp.dec.n
    basis, table, (left, right), terms, names = _component_identities(comp, h)
    got = comp.mul(_vectors(basis, left, n), _vectors(basis, right, n))
    parts = [_scaled_items(_vectors(basis, [x for _, x in term], n), table, [c for c, _ in term], n) for term in terms]
    bad = got.mismatches(parts[0] + parts[1], n)
    _require(not bad.any(), names[bad.argmax()])
    spans = _vectors(basis, list(range(2 * h + 1, 3 * h + 2)) + list(range(1, h + 1)), n)
    _require(array_rank(spans, n) == n, f"component {comp.r} basis degenerate")


def check_grothendieck_idempotents(ws: Workspace):
    """Radical basis, orthogonal idempotents, and their eigenvector coordinates.

    Every product identity is one stacked product and one stacked expected
    side: the E_u grid in the presentation, each component's F, G and
    idempotent products, the certificate squares and the cross-component
    products.
    """
    n, dec, ring, tab, ctx = ws.n, ws.dec, ws.ring, ws.tab, ws.ctx
    oracle = Oracle()
    h, size = (n - 1) // 2, n * n
    _certify_grouplike_idempotents(dec)
    for comp in dec.components:
        _certify_component(comp, h)

    # coordinate vectors: exact left (generalized) eigenvectors of the McKay matrix
    radical = dec.radical_coords
    rad_count = len(radical)
    _require(rad_count == n * (n - 1) // 2, f"{rad_count} radical elements")
    idem_coords = dec.idempotent_coords
    _require(len(idem_coords) == n * (n + 1) // 2, f"{len(idem_coords)} idempotents")
    zero = CycArray.zeros(ctx, n * n)
    for r in range(n):  # one stack per r: F_j, then G_j with chain F_j, then the idempotents
        vecs, chains, lams, labels = [], [], [], []
        jordan = dec.jordan_coords(r)
        for j in range(1, h + 1):
            idx, f = EigIndex(j, r), radical[EigIndex(j, r)]
            vecs += [f, jordan.take(slice((j - 1) * size, j * size))]
            chains += [zero, f]
            lams += [tab.lam(idx)] * 2
            labels += [f"radical F{tuple(idx)} eigen", f"Jordan pair G{tuple(idx)}"]
        # the idempotents: at j = 0 an eigenvector; the corrected ones mix the Jordan
        # pair, so (M - lam) lands on the radical line
        idx = [EigIndex(j, r) for j in range(h + 1)]
        mixed, chain = _on_line(
            ws.M, CycArray.concat(ctx, [idem_coords[x] for x in idx[1:]]), [tab.lam(x) for x in idx[1:]], "left",
            CycArray.concat(ctx, [radical[x] for x in idx[1:]]),
        )
        vecs += [idem_coords[idx[0]], mixed]
        chains += [zero, chain]
        lams += [tab.lam(x) for x in idx]
        labels += [f"idempotent at {tuple(x)} leaves the generalized eigenspace" for x in idx]
        oracle.see(ws.relation(CycArray.concat(ctx, vecs), lams, "left", labels, CycArray.concat(ctx, chains)))

    # the two integer basis conversions are inverse to each other, so both are bijective
    _require(
        np.array_equal(int_matmul(ring.to_simple_matrix, ring.to_poly_matrix), np.eye(n * n, dtype=np.int64)),
        "the basis conversions are not inverse to each other",
    )

    # eigen-idempotent certificates through the full presentation product, all squares in one call
    certified = []  # (index, coordinates, expected c_u, message)
    for r in range(n) if n <= 7 else [0]:
        certified += [
            (EigIndex(0, r), idem_coords[EigIndex(0, r)], 1, f"unit certificate fails at r={r}"),
            (EigIndex(1, r), radical[EigIndex(1, r)], 0, f"radical certificate fails at r={r}"),
            (EigIndex(1, r), idem_coords[EigIndex(1, r)], 1, f"corrected idempotent certificate fails at r={r}"),
        ]
    indices, coords, units, names = zip(*certified)
    c_u, exact = dec.eigenidem_certificates(list(indices), list(coords))
    bad = ~exact | c_u.mismatches(CycArray.from_list(ctx, units))
    _require(not bad.any(), names[bad.argmax()])
    # cross-component radical products through the full presentation, in one call
    rnd2 = _rng("radical-cross", n)
    pairs = []
    for _ in range(2):
        j1, j2 = rnd2.randrange(1, h + 1), rnd2.randrange(1, h + 1)
        r1 = rnd2.randrange(n)
        r2 = (r1 + rnd2.randrange(1, n)) % n
        pairs.append((radical[EigIndex(j1, r1)], radical[EigIndex(j2, r2)]))
    p1, p2 = (ring.simple_to_poly(numerators(ctx, side)[0]) for side in zip(*pairs))  # vanishing is homogeneous
    _require(ring.mul(p1, p2).is_zero(), "cross-component radical product not zero")

    if n == 3:
        for r in range(3):
            comp = dec.components[r]
            _require(comp.xi == ctx.root_power(2 * r) * 9, "xi != 9 q^{2r} at n=3")
            _require(comp.thetas[1] == ctx.root_power(r) * (-3), "theta != -3 q^r at n=3")
            _require(comp.nus[1] == ctx.one(), "nu != 1 at n=3")

    # numeric oracle on the algebra level: e^2 - e for one idempotent, in complex arithmetic from
    # the integer products of simple classes.  [V(l, r)][V(ell, s)] is base_products(ell)[l - 1]
    # with every twist moved by r + s, so the twists convolve: a product of DFTs over them
    un = idem_coords[EigIndex(0, 0)].embed()
    base = np.fft.fft(np.stack([ring.base_products(ell) for ell in range(1, n + 1)]).reshape(n, n, n, n), axis=3)  # [ell, l, m, k]
    spec = np.fft.fft(un.reshape(n, n), axis=1)  # [l, k]
    square = np.fft.ifft(np.einsum("lk,ek,elmk->mk", spec, spec, base), axis=1)
    oracle.vec_residual(np.abs(square.ravel() - un))
    return oracle.residual, {"radical": rad_count, "idempotents": len(idem_coords)}


def check_fusion_matrix(ws: Workspace):
    """The fusion matrix on the independent projectives: block pattern and simple spectrum."""
    n, tab = ws.n, ws.tab
    oracle = Oracle()
    h = (n - 1) // 2
    Nr = build_fusion_from_rules(n)
    _require(np.array_equal(Nr, build_fusion_blockform(n)), "rule-built fusion matrix differs from the block pattern")
    _require(len(Nr) == n * (h + 1) == n * (n + 1) // 2, f"fusion matrix has {len(Nr)} rows")
    sparse = {"right": sparse_rows(Nr), "left": sparse_rows(Nr.T)}
    lams = []
    for r in range(n):  # the stacks at r hold the vectors at (j, r), j = 0..h
        idx = [EigIndex(j, r) for j in range(h + 1)]
        lams_r = [tab.lam(i) for i in idx]
        lams += lams_r
        for side in ("right", "left"):
            oracle.see(relation(Nr, tab.stack(f"fusion_{side}")[r], lams_r, side, [f"fusion {i}" for i in idx], None, sparse[side]))
    for a in range(len(lams)):
        for b in range(a):
            _require(lams[a] != lams[b], "fusion eigenvalues are not simple")
    # the boundary identities that close the block recursions
    for j in range(h + 1):
        _require(tab.value("L", j, h) == tab.value("L", j, h + 1), "L_h != L_{h+1} at an eigenvalue point")
        if h >= 1:
            _require(tab.value("V", j, h + 1) == tab.value("V", j, h - 1), "V_{h+1} != V_{h-1} at a point")
    # numeric spectrum match, as a two-sided nearest-point comparison
    num = np.linalg.eigvals(Nr.astype(complex))
    exact = embed_vec(lams)
    oracle.see(float(max(np.min(np.abs(exact - e)) for e in num)))
    oracle.see(float(max(np.min(np.abs(num - e)) for e in exact)))
    return oracle.residual, {"size": len(Nr)}


def _pairing(left: CycArray, right: CycArray) -> CycArray:
    """Entry x * n + y is n sum_b L[x, b] R[y, b], for n x n matrices of `SpectralTables.coefficients`.

    Block b of a left vector pairs with block b of a right one, and the shift
    eigenvectors at one r pair to n: one entrywise product over (b, x, y).
    """
    ctx = left.ctx
    n, d = ctx.n, ctx.degree
    shape = (n, n, n, d)
    lb = np.broadcast_to(left.nums.reshape(n, n, 1, d).transpose(1, 0, 2, 3), shape).reshape(-1, d)
    rb = np.broadcast_to(right.nums.reshape(1, n, n, d).transpose(2, 0, 1, 3), shape).reshape(-1, d)
    products = CycArray(ctx, lb, left.den) * CycArray(ctx, rb, right.den)
    return products.block_sum(n * n).scaled(ctx.from_rational(n))


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
    pairings = [_pairing(left, right) for left, right in zip(tab.coefficients("left"), tab.coefficients("right"))]
    # row and column 0 at r = 0 are the (0, 0) vectors, whose pairing is not zero
    full = (tab.eigvec("left", EigIndex(0, 0)) * tab.eigvec("right", EigIndex(0, 0))).block_sum(1)[0]
    _require(full == pairings[0][0], "factored pairing disagrees with the dense dot product")
    for r, pairing in enumerate(pairings):
        _require(array_rank(pairing, n) == n, f"pairing block degenerate at r={r}")
    C = ring.cartan_matrix()
    Q = ring.projective_mckay(2, 0)
    Q_rows = sparse_rows(Q)
    for r, stack in enumerate(tab.stack("right")):  # C v for the eigenvectors at r, vectors 0..h of the stack
        idx = [EigIndex(j, r) for j in range(tab.h + 1)]
        cv = CycArray(ctx, int_matmul(C, stack.nums[:len(idx) * n * n].reshape(len(idx), n * n, -1)).reshape(-1, ctx.degree), stack.den)
        oracle.see(relation(Q, cv, [tab.lam(i) for i in idx], "right", [f"C v projective-side eigen at {i}" for i in idx], None, Q_rows))
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
