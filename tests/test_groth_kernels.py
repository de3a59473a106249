"""The integer-array products of the Grothendieck algebra against the scalar routes they replaced.

`_presentation_mul_reference` is the presentation product entry by entry
(CycNum or int coefficients, x^m folded through the ring's table of
reduced powers of x), and `_component_mul_reference` is the RingPoly product followed by
division with remainder by the block polynomial p_n(x, q^{2r}), built
directly rather than twisted from component 0.  Both are kept here as
independent cross-checks of `GrothRing.mul` and `GrothComponent.mul`.
"""

import random

import numpy as np
import pytest

import taftdouble.verify as verify_mod
from taftdouble.chebyshev import p_n_bivariate, p_n_monic
from taftdouble.cyclotomic import CycArray, make_context
from taftdouble.grring import GrothRing, PolyPres, groth_ring
from taftdouble.spectral import GrothComponent, groth_decomposition
from taftdouble.verify import run_suite

from polynomial_reference import RingPoly, component_array, poly_divmod, specialized


def _grid(p: PolyPres):
    """grid[g][x]: the coefficients of p as ints (integer classes) or CycNum."""
    n = p.ring.n
    entries = p.coefficients()
    return [entries[g * n:(g + 1) * n] for g in range(n)]


def _presentation_mul_reference(ring: GrothRing, a: PolyPres, b: PolyPres):
    """The product as a grid, by the entrywise loop and the fold of x^m, m >= n."""
    n = ring.n
    ga, gb = _grid(a), _grid(b)
    zero = ga[0][0] * 0
    tmp = [[zero] * n for _ in range(2 * n - 1)]  # tmp[x][g]
    for g1, row1 in enumerate(ga):
        for x1, v1 in enumerate(row1):
            if v1:
                for g2, row2 in enumerate(gb):
                    for x2, v2 in enumerate(row2):
                        if v2:
                            tmp[x1 + x2][(g1 + g2) % n] = tmp[x1 + x2][(g1 + g2) % n] + v1 * v2
    for x in range(2 * n - 2, n - 1, -1):
        for g in range(n):
            v = tmp[x][g]
            if v:
                reduced = np.roll(ring.x_powers[x], g, axis=0)  # g^g x^x over the basis, [g2, x2]
                for g2, x2 in np.argwhere(reduced).tolist():
                    tmp[x2][g2] = tmp[x2][g2] + v * int(reduced[g2, x2])
    return [[tmp[x][g] for x in range(n)] for g in range(n)]


def _component_mul_reference(comp: GrothComponent, a: CycArray, b: CycArray) -> CycArray:
    """The product by RingPoly multiplication and division with remainder by p_n(x, q^{2r})."""
    ctx = comp.ctx
    modulus = specialized(p_n_bivariate(ctx.n), ctx.root_power(2 * comp.r), ctx.zero())
    rem = poly_divmod(RingPoly(a.to_list(), ctx.zero()) * RingPoly(b.to_list(), ctx.zero()), modulus)[1]
    return component_array(comp, rem)


def _random_cycarray(ctx, rnd, rows, sparsity=0.0):
    nums = [
        [0] * ctx.degree if rnd.random() < sparsity else [rnd.randint(-3, 3) for _ in range(ctx.degree)]
        for _ in range(rows)
    ]
    return CycArray(ctx, np.array(nums, dtype=np.int64), rnd.choice((1, 2, 3, 14)))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_kernels_match_references_on_every_product_of_the_check(n, monkeypatch):
    """Every stacked product the check makes equals the per-pair reference, pair by pair of the stack."""
    products = []
    comp_mul, ring_mul = GrothComponent.mul, GrothRing.mul

    def spy(kind, fn):
        def wrapped(self, a, b):
            out = fn(self, a, b)
            products.append((kind, self, a, b, out))
            return out
        return wrapped

    monkeypatch.setattr(GrothComponent, "mul", spy("component", comp_mul))
    monkeypatch.setattr(GrothRing, "mul", spy("presentation", ring_mul))
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {})
    assert run_suite(n, ["grothendieck-idempotents"]).all_pass
    kinds = {kind for kind, *_ in products}
    assert kinds == {"component", "presentation"}
    pairs = 0
    for kind, owner, a, b, out in products:
        if kind == "component":
            m = len(a) // n
            assert len(b) == len(out) == len(a)
            for s in range(m):
                rows = slice(s * n, (s + 1) * n)
                assert out.take(rows) == _component_mul_reference(owner, a.take(rows), b.take(rows))
        else:
            m = len(a)
            assert len(b) == len(out) == m
            for s in range(m):
                assert _grid(out.take([s])) == _presentation_mul_reference(owner, a.take([s]), b.take([s]))
        pairs += m
    assert pairs > len(products)  # the calls are stacks, not one pair each


def test_integer_classes_match_the_reference():
    ring = groth_ring(5)
    for l1 in range(1, 6):
        for l2 in range(1, 6):
            a, b = ring.f_seq(l1), ring.f_seq(l2)
            out = ring.mul(a, b)
            assert out.ctx is None and out.den == 1
            assert _grid(out) == _presentation_mul_reference(ring, a, b)


def test_random_elements_with_denominators_match_the_references():
    """Presentation products at n = 7, and component products in every component at n = 7 and the composite n = 9."""
    n = 7
    ctx = make_context(n)
    ring = groth_ring(n)
    rnd = random.Random(7)
    for trial in range(6):
        a = _random_cycarray(ctx, rnd, n * n, sparsity=0.2 * (trial % 4))
        b = _random_cycarray(ctx, rnd, n * n, sparsity=0.5)
        pa, pb = (PolyPres(ring, x.nums, x.den, ctx) for x in (a, b))
        assert _grid(ring.mul(pa, pb)) == _presentation_mul_reference(ring, pa, pb)
    for n in (7, 9):
        ctx = make_context(n)
        for comp in groth_decomposition(n).components:
            a, b = _random_cycarray(ctx, rnd, n), _random_cycarray(ctx, rnd, n, sparsity=0.3 * (comp.r % 3))
            assert comp.mul(a, b) == _component_mul_reference(comp, a, b)


@pytest.mark.parametrize("n", [3, 5, 9, 11, 15])
def test_the_shared_fold_reduces_powers_modulo_p_n_at_d_1(n):
    """Column m of the fold is x^m mod p_n(x, 1) over the x^t, t < n."""
    fold, p0 = groth_decomposition(n).fold, RingPoly(p_n_monic(n).tolist())
    assert fold.shape == (n, 2 * n - 1)
    for m in range(2 * n - 1):
        rem = poly_divmod(RingPoly([0] * m + [1]), p0)[1]
        assert fold[:, m].tolist() == [rem[t] for t in range(n)]


def test_products_past_the_int64_bound_use_python_ints():
    """int64 factors whose products pass 2^62 switch the kernels to Python ints, with the same results."""
    n = 5
    ctx = make_context(n)
    ring, comp = groth_ring(n), groth_decomposition(n).components[2]
    rnd = random.Random(5)
    scale = 2**60
    a, b = _random_cycarray(ctx, rnd, n * n, sparsity=0.3), _random_cycarray(ctx, rnd, n * n, sparsity=0.3)
    big_a, big_b = (PolyPres(ring, x.nums * scale, x.den, ctx) for x in (a, b))
    assert big_a.nums.dtype == np.int64
    out = ring.mul(big_a, big_b)
    assert out.nums.dtype == object and max(abs(int(v)) for v in out.nums.ravel()) >= 2**62
    assert _grid(out) == _presentation_mul_reference(ring, big_a, big_b)
    small = ring.mul(PolyPres(ring, a.nums, a.den, ctx), PolyPres(ring, b.nums, b.den, ctx))
    assert out == PolyPres(ring, small.nums.astype(object) * scale * scale, small.den, ctx)

    a, b = _random_cycarray(ctx, rnd, n), _random_cycarray(ctx, rnd, n)
    big_a, big_b = (CycArray(ctx, x.nums * scale, x.den) for x in (a, b))
    out = comp.mul(big_a, big_b)
    assert out.nums.dtype == object and max(abs(int(v)) for v in out.nums.ravel()) >= 2**62
    assert out == _component_mul_reference(comp, big_a, big_b)
    assert out == comp.mul(a, b).scaled(ctx.from_rational(scale * scale))


def test_component_products_of_the_idempotents_stay_int64_at_17():
    """At n = 17 each fold is bounded by the wide product it receives, so the idempotent products stay int64."""
    n = 17
    comp = groth_decomposition(n).components[3]
    idempotents = comp.idempotent_polys()
    for i, e in enumerate(idempotents):
        for f in idempotents[i:i + 2]:
            out = comp.mul(e, f)
            assert out.nums.dtype == np.int64
            assert out == _component_mul_reference(comp, e, f)
