"""The stacked array vectors against the per-entry routes they replaced.

Every eigenvector, fusion eigenvector and trace vector is built as a
`CycArray` by `CycArray.qpow_blocks`: a column of coefficients stacked over
powers of q.  The references below are the earlier constructions, one
`mul_qpow` per vector entry, kept as independent cross-checks.
"""

import numpy as np
import pytest

from taftdouble.cyclotomic import CycArray
from taftdouble.dnrep import Monomial, SimpleLabel, double_rep
from taftdouble.spectral import eig_indices, fusion_left_eigvec, fusion_right_eigvec, spectral_tables


def _stack_reference(coeffs, r, n):
    """Stack coeff_l * v0 over blocks l, v0 = (q^{2sr})_s, one entry at a time."""
    out = []
    for c in coeffs:
        out.extend(c.mul_qpow(2 * s * r) for s in range(n))
    return out


def _stack_left_reference(coeffs, r, n):
    """Blocks in reversed order over w0 = (q^{-2sr})_s."""
    out = []
    for b in range(n):
        c = coeffs[n - 1 - b]
        out.extend(c.mul_qpow(-2 * s * r) for s in range(n))
    return out


def _fusion_right_reference(n, idx):
    tab = spectral_tables(n)
    lv = tab.l_vals[idx.j]
    out = []
    for b in range(tab.h + 1):
        coeff = tab.ctx.one() if b == 0 else lv[b].mul_qpow(b * idx.r)
        out.extend(coeff.mul_qpow(2 * s * idx.r) for s in range(n))
    return out


def _fusion_left_reference(n, idx):
    tab = spectral_tables(n)
    vv = tab.v_vals[idx.j]
    out = []
    for b in range(tab.h + 1):
        k = tab.h - b
        coeff = tab.ctx.one() if k == 0 else vv[k].mul_qpow(k * idx.r)
        out.extend(coeff.mul_qpow(-2 * s * idx.r) for s in range(n))
    return out


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
def test_eigenvectors_match_the_per_entry_route(n):
    tab = spectral_tables(n)
    for idx in eig_indices(n):
        assert tab.right_eigvec(idx).to_list() == _stack_reference(tab.right_coeffs(idx), idx.r, n)
        assert tab.left_eigvec(idx).to_list() == _stack_left_reference(tab.left_coeffs(idx), idx.r, n)
        if idx.j:
            assert tab.gen_right_eigvec(idx).to_list() == _stack_reference(tab.gen_right_coeffs(idx), idx.r, n)
            assert tab.gen_left_eigvec(idx).to_list() == _stack_left_reference(tab.gen_left_coeffs(idx), idx.r, n)
        assert fusion_right_eigvec(n, idx).to_list() == _fusion_right_reference(n, idx)
        assert fusion_left_eigvec(n, idx).to_list() == _fusion_left_reference(n, idx)


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
    n = 5
    tab = spectral_tables(n)
    idx = eig_indices(n)[7]
    coeffs = [c * 2**61 for c in tab.gen_right_coeffs(idx)]
    assert CycArray.from_list(tab.ctx, coeffs).max_abs() > 2**62
    stacked = tab.shift_stack(coeffs, idx.r)
    assert stacked.nums.dtype == object
    assert stacked.to_list() == _stack_reference(coeffs, idx.r, n)
    small = tab.gen_right_eigvec(idx)
    assert np.array_equal(stacked.nums, small.nums.astype(object) * 2**61) and stacked.den == small.den
