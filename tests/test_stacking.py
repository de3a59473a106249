"""The stacked array vectors against the per-entry routes they replaced.

Every eigenvector, fusion eigenvector and trace vector is built as a
`CycArray`: the spectral families for every (j, r) at once from integer
counts of powers of q (`SpectralTables.blocks`), stacked over powers of q
by `CycArray.qpow`.  The references below are the earlier
constructions, kept as independent cross-checks: the Chebyshev values by
the scalar three-term recurrence at each point, the coefficient blocks of
each (j, r) in `CycNum` arithmetic, and one `mul_qpow` per vector entry.
"""

from functools import lru_cache

import numpy as np
import pytest

from taftdouble.cyclotomic import CycArray, CycNum
from taftdouble.dnrep import Monomial, SimpleLabel, double_rep
from taftdouble.grring import groth_ring
from taftdouble.polymat import CheckFailure
from taftdouble.spectral import (
    EigIndex,
    certificates,
    eig_indices,
    fusion_left_eigvec,
    fusion_right_eigvec,
    spectral_tables,
)
from taftdouble.verify import _on_line


@lru_cache(maxsize=None)
def _chains(n):
    """kind -> [values at point j], U_k, L_k and V_k for k = 0..n+1 by the scalar recurrence c_k = t c_{k-1} - c_{k-2}."""
    ctx = spectral_tables(n).ctx
    out = {"U": [], "L": [], "V": []}
    for j in range((n + 1) // 2):
        t = ctx.root_power(j) + ctx.root_power(-j)
        for kind, c0, c1 in (("U", ctx.one(), t), ("L", ctx.from_rational(2), t), ("V", ctx.one(), t - 1)):
            vals = [c0, c1]
            for _ in range(2, n + 2):
                vals.append(t * vals[-1] - vals[-2])
            out[kind].append(vals)
    return out


def right_coeffs(n, idx):
    """Block l of the right eigenvector: q^{lr} U_l at the point, l = 0..n-1."""
    u = _chains(n)["U"][idx.j]
    return [u[l].mul_qpow(l * idx.r) for l in range(n)]


def gen_right_coeffs(n, idx):
    """Block k of the right Jordan completion: q^{kr} U_k + q^{(k-1)r} sum_s (k - 2s) U_{k-1-2s}."""
    ctx = spectral_tables(n).ctx
    u = _chains(n)["U"][idx.j]
    out = [ctx.one()]
    for k in range(1, n):
        acc = ctx.zero()
        for s in range((k - 1) // 2 + 1):
            acc = acc + u[k - 1 - 2 * s] * (k - 2 * s)
        out.append(u[k].mul_qpow(k * idx.r) + acc.mul_qpow((k - 1) * idx.r))
    return out


def left_coeffs(n, idx):
    """[w_0, ..., w_{n-1}] = [1, q^{kr} L_k]; the left eigenvector stacks them reversed."""
    lv = _chains(n)["L"][idx.j]
    return [spectral_tables(n).ctx.one()] + [lv[k].mul_qpow(k * idx.r) for k in range(1, n)]


def gen_left_coeffs(n, idx):
    """[1, q^r U_1 + 1, ..., q^{kr} (U_k - U_{k-2}) + q^{(k-1)r} k U_{k-1}], stacked reversed."""
    u = _chains(n)["U"][idx.j]
    r = idx.r
    out = [spectral_tables(n).ctx.one(), u[1].mul_qpow(r) + 1]
    for k in range(2, n):
        out.append((u[k] - u[k - 2]).mul_qpow(k * r) + (u[k - 1] * k).mul_qpow((k - 1) * r))
    return out


def fusion_right_coeffs(n, idx):
    """[1, q^{br} L_b] for b = 1..h."""
    lv = _chains(n)["L"][idx.j]
    return [spectral_tables(n).ctx.one()] + [lv[b].mul_qpow(b * idx.r) for b in range(1, (n + 1) // 2)]


def fusion_left_coeffs(n, idx):
    """[1, q^{kr} V_k] for k = 1..h; the left fusion eigenvector stacks them reversed."""
    vv = _chains(n)["V"][idx.j]
    return [spectral_tables(n).ctx.one()] + [vv[k].mul_qpow(k * idx.r) for k in range(1, (n + 1) // 2)]


# family -> (reference coefficients, reversed in the vector)
REFERENCES = {
    "right": (right_coeffs, False),
    "gen_right": (gen_right_coeffs, False),
    "left": (left_coeffs, True),
    "gen_left": (gen_left_coeffs, True),
    "fusion_right": (fusion_right_coeffs, False),
    "fusion_left": (fusion_left_coeffs, True),
}


def _side_rows(n, side, r):
    """The reference coefficient rows of a side at r, in the order of `SpectralTables.blocks`: eigenvectors, then completions."""
    reference, reverse = REFERENCES[side]
    rows = [reference(n, EigIndex(j, r)) for j in range((n + 1) // 2)]
    if "gen_" + side in REFERENCES:
        rows += [REFERENCES["gen_" + side][0](n, EigIndex(j, r)) for j in range(1, (n + 1) // 2)]
    return [row[::-1] if reverse else row for row in rows]


def _stack_reference(coeffs, r, n):
    """Stack coeff_l * v0 over blocks l, v0 = (q^{2sr})_s, one entry at a time."""
    out = []
    for c in coeffs:
        out.extend(c.mul_qpow(2 * s * r) for s in range(n))
    return out


def _stack_left_reference(coeffs, r, n):
    """Blocks in reversed order over w0 = (q^{-2sr})_s."""
    out = []
    for c in reversed(coeffs):
        out.extend(c.mul_qpow(-2 * s * r) for s in range(n))
    return out


def _family_indices(n, family):
    return [idx for idx in eig_indices(n) if idx.j or not family.startswith("gen")]


@pytest.mark.parametrize("n", [3, 5, 9])
def test_tables_match_the_scalar_recurrence(n):
    tab, chains = spectral_tables(n), _chains(n)
    for kind, values in chains.items():
        for j, vals in enumerate(values):
            # the table L holds the first block of the left families, 1, at k = 0
            assert [tab.value(kind, j, k) for k in range(n + 2)] == ([tab.ctx.one()] + vals[1:] if kind == "L" else vals)
    for idx in eig_indices(n):
        assert tab.lam(idx) == chains["U"][idx.j][1].mul_qpow(idx.r)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_blocks_match_the_per_index_coefficients(n):
    tab = spectral_tables(n)
    for side in tab.SIDES:
        coefficients = tab.coefficients(side)
        for r in range(n):
            assert coefficients[r].to_list() == [c for row in _side_rows(n, side, r) for c in row], (side, r)
        assert CycArray.concat(tab.ctx, coefficients) == tab.blocks(side)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_eigenvectors_match_the_per_entry_route(n):
    tab = spectral_tables(n)
    for family, (reference, reverse) in REFERENCES.items():
        stack = _stack_left_reference if reverse else _stack_reference
        for idx in _family_indices(n, family):
            assert tab.eigvec(family, idx).to_list() == stack(reference(n, idx), idx.r, n), (family, idx)
    for idx in eig_indices(n):
        assert fusion_right_eigvec(n, idx) == tab.eigvec("fusion_right", idx)
        assert fusion_left_eigvec(n, idx) == tab.eigvec("fusion_left", idx)


def test_tables_and_certificates_do_no_scalar_arithmetic(monkeypatch):
    """Building the tables and every certificate from scratch makes at most the h + 1 sums q^j + q^{-j}."""
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "inverse"):
        monkeypatch.setattr(CycNum, name, counted(name, getattr(CycNum, name)))
    n = 9
    spectral_tables.cache_clear()
    tab = spectral_tables(n)
    certs = certificates(n)
    assert len(certs) == n * (n + 1) // 2
    assert len(calls) <= tab.h + 1, calls


def _trace_vector_S_reference(rep, mono):
    """Each dimension block filled by shifting the s = 0 character by q^{i-k}."""
    n = rep.n
    shift = (mono.i - mono.k) % n
    out = []
    for ell in range(1, n + 1):
        val = rep.character(SimpleLabel(ell, 0), mono)
        out.append(val)
        for _s in range(1, n):
            val = val.mul_qpow(shift)
            out.append(val)
    return out


def _trace_vector_P_reference(rep, i, k):
    n, ctx = rep.n, rep.ctx
    if (i + k) % n:
        return [ctx.zero()] * (n * n)
    out = []
    for ell in range(1, n):
        out.extend(ctx.root_power((2 * r + ell - 1) * i) * (2 * n) for r in range(n))
    out.extend(ctx.root_power((2 * r - 1) * i) * n for r in range(n))
    return out


@pytest.mark.parametrize("n", [3, 5, 9])
def test_trace_vectors_match_the_per_entry_route(n):
    rep = double_rep(n)
    for i in range(n):
        for k in range(n):
            for t in range(3):
                mono = Monomial(i, k, t)
                assert rep.trace_vector_S(mono).to_list() == _trace_vector_S_reference(rep, mono)
            assert rep.trace_vector_P(i, k).to_list() == _trace_vector_P_reference(rep, i, k)


def test_stacking_past_the_int64_bound_uses_python_ints():
    """`qpow`, the stacking step of every family, switches to Python ints on large coefficients."""
    n = 5
    tab = spectral_tables(n)
    idx = eig_indices(n)[7]
    coeffs = [c * 2**61 for c in gen_right_coeffs(n, idx)]
    big = CycArray.from_list(tab.ctx, coeffs)
    assert big.max_abs() > 2**62
    stacked = big.qpow([[2 * s * idx.r for s in range(n)]])
    assert stacked.nums.dtype == object
    assert stacked.to_list() == _stack_reference(coeffs, idx.r, n)
    small = tab.eigvec("gen_right", idx)
    assert np.array_equal(stacked.nums, small.nums.astype(object) * 2**61) and stacked.den == small.den


def _on_line_reference(A, vec, lam, side, line):
    """(t_p v, w_p t) for one vector in CycNum arithmetic, p the first nonzero entry of t and w = (A - lam) v."""
    ctx = vec.ctx
    v, t = vec.to_list(), line.to_list()
    p = next(k for k, x in enumerate(t) if x)
    row = (A if side == "right" else A.T)[p]
    w_p = sum((int(a) * x for a, x in zip(row, v) if a), ctx.zero()) - lam * v[p]
    return [t[p] * x for x in v], [w_p * x for x in t]


@pytest.mark.parametrize("side", ["right", "left"])
def test_stacked_on_line_matches_the_per_vector_route(side):
    """`verify._on_line` on a stack gives, vector by vector, what the per-vector formula gives; a zero line fails."""
    n = 5
    tab, M = spectral_tables(n), groth_ring(n).mckay_v20()
    idx = [EigIndex(j, r) for r in range(n) for j in range(1, tab.h + 1)]
    vecs = [tab.eigvec(f"gen_{side}", x) for x in idx]
    lines = []
    for k, x in enumerate(idx):  # k leading zeros move p, the first nonzero entry of line k
        t = tab.eigvec(side, x)
        lines.append(CycArray(t.ctx, np.concatenate([np.zeros_like(t.nums[:k]), t.nums[k:]]), t.den))
    lams = [tab.lam(x) for x in idx]
    scaled, chains = _on_line(M, CycArray.concat(tab.ctx, vecs), lams, side, CycArray.concat(tab.ctx, lines))
    want = [_on_line_reference(M, v, lam, side, t) for v, lam, t in zip(vecs, lams, lines)]
    assert scaled.to_list() == [x for s, _ in want for x in s]
    assert chains.to_list() == [x for _, c in want for x in c]
    lines[3] = CycArray.zeros(tab.ctx, n * n)
    with pytest.raises(CheckFailure, match="spanning vector of the line is zero"):
        _on_line(M, CycArray.concat(tab.ctx, vecs), lams, side, CycArray.concat(tab.ctx, lines))
