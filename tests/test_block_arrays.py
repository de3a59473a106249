"""The identity families of the charpoly, trace and idempotent checks as array computations.

Each stacked route is compared here with the per-item route it replaced
(kept as a reference in the tests), and the certificates that no longer
divide (the multiplicity certificate, Faddeev-LeVerrier on the block
arrays) must fail loudly on injected defects, also under `python -O`.
"""

import random
from collections import Counter

import numpy as np
import pytest

import taftdouble.verify as verify_mod
from taftdouble.cyclotomic import CycArray, CycNum, make_context
from taftdouble.dnrep import Monomial, double_rep
from taftdouble.grring import GrothRing
from taftdouble.polymat import RingMatrix
from taftdouble.spectral import (
    GrothComponent,
    gen_trace_combination,
    gen_trace_combinations,
    spectral_tables,
    times_linear,
)
from taftdouble.verify import Workspace, _faddeev_leverrier, _multiplicity_failures, run_suite

from test_verify_cli import _run_optimized

SCALAR_OPS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__truediv__", "__pow__", "inverse", "mul_qpow")


def test_charpoly_and_idempotent_checks_make_few_scalar_operations_and_products(monkeypatch):
    """With the workspace built at n = 11, the three checks make at most 300 CycNum operations and 40 Grothendieck product calls.

    One scalar or one pair at a time they made about 18.6k and 588.
    """
    ws = Workspace(11)
    ws.tab, ws.dec, ws.ring, ws.M
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {11: ws})
    counts = Counter()

    def counted(kind, fn):
        def wrapped(*args):
            counts[kind] += 1
            return fn(*args)
        return wrapped

    for name in SCALAR_OPS:
        monkeypatch.setattr(CycNum, name, counted("scalar", getattr(CycNum, name)))
    for owner in (GrothComponent, GrothRing):
        monkeypatch.setattr(owner, "mul", counted("product", owner.mul))
    assert run_suite(11, ["charpoly-table", "charpoly-factorization", "grothendieck-idempotents"]).all_pass
    assert counts["scalar"] <= 300, counts
    assert 0 < counts["product"] <= 40, counts


def _int_polys(ctx, rows):
    """Integer polynomials (low degree first, one row each) as a (K, L, phi) numerator stack."""
    L = max(map(len, rows))
    out = np.zeros((len(rows), L, ctx.degree), dtype=np.int64)
    for k, row in enumerate(rows):
        out[k, :len(row), 0] = row
    return out


def _from_roots(ctx, roots):
    """prod (t - r) over the integer roots of each row, as a numerator stack."""
    polys = _int_polys(ctx, [[1]] * len(roots))
    for j in range(len(roots[0])):
        polys = times_linear(ctx, polys, _int_polys(ctx, [[r[j]] for r in roots])[:, 0])
    return polys


def test_the_multiplicity_certificate_rejects_a_higher_or_lower_multiplicity():
    """root 0 simple and the others exactly double: a fourfold root or a double 'simple' root is named by its block."""
    ctx = make_context(5)
    stated = [[1, 2, 3], [1, 2, 2], [1, 2, 3]]
    polys = _from_roots(ctx, [[1, 2, 2, 3, 3], [1, 2, 2, 2, 2], [1, 1, 2, 2, 3]])
    assert _multiplicity_failures(ctx, polys, _int_polys(ctx, stated)) == [1, 2]  # integer roots: one "coefficient row" each


@pytest.mark.parametrize("n", [3, 5])
def test_faddeev_leverrier_matches_the_scalar_trace_recursion(n):
    """Random matrices over Z[q]: the stacked recursion equals `RingMatrix.char_poly_small` entry by entry."""
    ctx = make_context(n)
    rnd = random.Random(n)
    mats = np.array([[[[rnd.randint(-2, 2) for _ in range(ctx.degree)] for _ in range(4)] for _ in range(4)] for _ in range(3)])
    got = _faddeev_leverrier(ctx, mats, ["a", "b", "c"])
    for k in range(3):
        entries = CycArray(ctx, mats[k].reshape(-1, ctx.degree), 1).to_list()
        want = RingMatrix([entries[i * 4:(i + 1) * 4] for i in range(4)]).char_poly_small()
        assert CycArray(ctx, got[k], 1).to_list() == want


def test_faddeev_leverrier_fails_on_a_remainder(monkeypatch):
    """A trace that k does not divide (here an injected +1) raises CheckFailure naming the block, never a rounded coefficient."""
    real = verify_mod.segment_sum
    monkeypatch.setattr(verify_mod, "segment_sum", lambda nums, starts=None: real(nums, starts) + 1)
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {})
    result = run_suite(5, ["charpoly-table"]).checks[0]
    assert result.status == "fail"
    assert "is not divisible by 2 at block 0" in result.detail["counterexample"]


def test_block_certificates_survive_python_O():
    """Under -O a triple root stated as simple and double fails the multiplicity certificate, and a trace remainder fails Faddeev-LeVerrier."""
    script = """
import sys
assert sys.flags.optimize == 1
import taftdouble.verify as verify
from taftdouble.cyclotomic import CycArray
from taftdouble.spectral import SpectralTables
polys, roots = SpectralTables.block_polys, SpectralTables.block_roots
def triple_polys(self):
    p = polys(self)
    nums = p.nums.copy()
    nums[:4] = 0
    nums[:4, 0] = [1, 3, 3, 1]  # block 0 becomes (t + 1)^3
    return CycArray(p.ctx, nums, p.den)
def triple_roots(self):
    r = roots(self)
    nums = r.nums.copy()
    nums[:2] = 0
    nums[:2, 0] = -1
    return CycArray(r.ctx, nums, r.den)
SpectralTables.block_polys, SpectralTables.block_roots = triple_polys, triple_roots
result = verify.run_suite(3, ["charpoly-factorization"]).checks[0]
print(result.status, result.detail)
SpectralTables.block_polys, SpectralTables.block_roots = polys, roots
real = verify.segment_sum
verify.segment_sum = lambda nums, starts=None: real(nums, starts) + 1
verify._WORKSPACES.clear()
result = verify.run_suite(3, ["charpoly-table"]).checks[0]
print(result.status, result.detail)
"""
    first, second = _run_optimized(script).splitlines()
    assert first.startswith("fail") and "multiplicity structure wrong in block 0:" in first, first
    assert second.startswith("fail") and "not divisible by 2 at block 0" in second, second


@pytest.mark.parametrize("n", [3, 5, 9])
def test_grouplike_trace_stack_matches_the_single_vectors(n):
    """The one-contraction stack of every Tr_S(b^i c^k) equals `trace_vector_S` pair by pair."""
    rep, size = double_rep(n), n * n
    stack = Workspace(n).grouplike_traces
    assert len(stack) == size * size
    for i in range(n):
        for k in range(n):
            assert stack.take(slice((i * n + k) * size, (i * n + k + 1) * size)) == rep.trace_vector_S(Monomial(i, k, 0))


@pytest.mark.parametrize("n", [3, 5, 9])
def test_stacked_trace_combinations_match_the_sum_of_single_trace_vectors(n):
    """`gen_trace_combinations(n, i)` gives, k by k, sum_t gamma_t Tr_S(b^i c^k d^t a^t) added one `trace_vector_S` at a time."""
    rep, ctx, size = double_rep(n), make_context(n), n * n
    for i in range(n):
        ks, vecs, chains, lams = gen_trace_combinations(n, i)
        assert ks == [k for k in range(n) if (i + k) % n]
        for pos, k in enumerate(ks):
            want = CycArray.zeros(ctx, size)
            for t, gamma in enumerate(chains[pos], start=1):
                want = want + rep.trace_vector_S(Monomial(i, k, t)).scaled(gamma)
            assert vecs.take(slice(pos * size, (pos + 1) * size)) == want
            assert lams[pos] == ctx.root_power(i) + ctx.root_power(-k)
            assert gen_trace_combination(n, i, k)[1:] == (chains[pos], lams[pos])


@pytest.mark.parametrize("n", [3, 5, 9])
def test_spectral_stacks_match_one_product_per_r(n):
    """The one-contraction stacks of every side equal the per-r products with the powers q^{+-2sr}."""
    tab = spectral_tables.__wrapped__(n)
    for side, (_, _, sign) in tab.SIDES.items():
        for r, (got, coeffs) in enumerate(zip(tab.stack(side), tab.coefficients(side))):
            assert got == coeffs.qpow([sign * 2 * r * np.arange(n)])
