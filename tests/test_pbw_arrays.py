"""The PBW algebra on integer arrays against the dict-of-CycNum route it replaced.

`_DictPbw` normal-orders products by the recursion d a = q a d + 1 - bc on
dicts of `CycNum`, term by term, and `_hopf_sample_dict_reference` is the
sample loop of hopf-axioms written on those dicts.  Both read the coproduct
of a monomial from `DoubleRep.coproduct_monomial`, the one source of the
coproduct, so a defect injected there (or in the Gaussian binomials behind
it) reaches both routes, and they must then agree on which sampled x fails
and why.
"""

import numpy as np
import pytest

import taftdouble.verify as verify_mod
from taftdouble.cyclotomic import CycArray, CycNum, make_context
from taftdouble.dnrep import DoubleRep, PbwElement, TensorElement, _collect, double_rep
from taftdouble.polymat import CheckFailure


def _add(out: dict, key, value):
    cur = out.get(key)
    out[key] = value if cur is None else cur + value


def _nonzero(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v}


class _DictPbw:
    """Normal-ordered products of dict elements {(al, be, ga, de): CycNum}, by recursion."""

    def __init__(self, rep: DoubleRep):
        self.rep, self.n, self.ctx = rep, rep.n, rep.ctx
        self._da_cache, self._left_d_a_cache = {}, {}

    def da_expand(self, m: int, l: int) -> dict:
        """d^m a^l, pushing one d at a time through each normal-ordered term."""
        key = (m, l)
        if key in self._da_cache:
            return self._da_cache[key]
        n, ctx = self.n, self.ctx
        if m == 0:
            out = {(l, 0, 0, 0): ctx.one()} if l < n else {}
        elif l == 0:
            out = {(0, 0, 0, m): ctx.one()} if m < n else {}
        else:
            out = {}
            for (al, be, ga, de), coeff in self.da_expand(m - 1, l).items():
                for (aa, bb, cc, dd), c2 in self.left_d_a(al).items():
                    # d^{dd} b^be c^ga = q^{dd(be+ga)} b^be c^ga d^{dd}
                    if dd + de >= n:
                        continue
                    val = coeff * c2
                    if dd:
                        val = val.mul_qpow(dd * (be + ga))
                    _add(out, (aa, (bb + be) % n, (cc + ga) % n, dd + de), val)
            out = _nonzero(out)
        self._da_cache[key] = out
        return out

    def left_d_a(self, al: int) -> dict:
        """d a^al, from d a = q a d + 1 - bc."""
        if al in self._left_d_a_cache:
            return self._left_d_a_cache[al]
        ctx = self.ctx
        if al == 0:
            out = {(0, 0, 0, 1): ctx.one()}
        else:
            out = {}
            for (aa, bb, cc, dd), coeff in self.left_d_a(al - 1).items():
                if aa + 1 < self.n:
                    _add(out, (aa + 1, bb, cc, dd), coeff.mul_qpow(1))
            _add(out, (al - 1, 0, 0, 0), ctx.one())
            _add(out, (al - 1, 1, 1, 0), -ctx.one().mul_qpow(2 * (al - 1)))
            out = _nonzero(out)
        self._left_d_a_cache[al] = out
        return out

    def mono_mul(self, m1: tuple, m2: tuple) -> dict:
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        n = self.n
        out = {}
        for (aa, bb, cc, dd), coeff in self.da_expand(d1, a2).items():
            if a1 + aa >= n or dd + d2 >= n:
                continue
            val = coeff.mul_qpow(aa * (b1 + c1) + dd * (b2 + c2))
            _add(out, (a1 + aa, (b1 + bb + b2) % n, (c1 + cc + c2) % n, dd + d2), val)
        return out

    def mul(self, x: dict, y: dict) -> dict:
        out = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                for key, v in self.mono_mul(m1, m2).items():
                    _add(out, key, v * c1 * c2)
        return _nonzero(out)

    def tensor_mul(self, x: dict, y: dict) -> dict:
        out = {}
        for (x1, x2), c1 in x.items():
            for (y1, y2), c2 in y.items():
                for k1, v1 in self.mono_mul(x1, y1).items():
                    for k2, v2 in self.mono_mul(x2, y2).items():
                        _add(out, (k1, k2), v1 * v2 * c1 * c2)
        return _nonzero(out)

    def coproduct(self, x: dict) -> dict:
        """D(x), each monomial's coproduct read from `coproduct_monomial` through the dict view."""
        rep, out = self.rep, {}
        for mono, coeff in x.items():
            _src, pairs, coeffs = rep.coproduct_monomial([rep.pbw_code(mono)])
            for pair, c in zip(pairs.tolist(), coeffs.to_list()):
                first, second = divmod(pair, rep.n**4)
                _add(out, (_mono(rep.n, first), _mono(rep.n, second)), c * coeff)
        return _nonzero(out)


def _mono(n: int, code: int) -> tuple:
    out = []
    for _ in range(4):
        code, e = divmod(code, n)
        out.append(e)
    return tuple(reversed(out))


def _hopf_sample_dict_reference(rep: DoubleRep, mono: tuple):
    """The hopf-axioms sample loop on dicts of CycNum: the first failure message at x = mono, or None."""
    ctx, ref = rep.ctx, _DictPbw(rep)
    x = {mono: ctx.one()}
    delta = ref.coproduct(x)
    left, right = {}, {}
    for (m1, m2), coeff in delta.items():
        if m1[0] == 0 and m1[3] == 0:
            _add(left, m2, coeff)
        if m2[0] == 0 and m2[3] == 0:
            _add(right, m1, coeff)
    if _nonzero(left) != x:
        return f"(eps x id) failed on {mono}"
    if _nonzero(right) != x:
        return f"(id x eps) failed on {mono}"
    lhs, rhs = {}, {}
    for (m1, m2), coeff in delta.items():
        for (m1a, m1b), c1 in ref.coproduct({m1: ctx.one()}).items():
            _add(lhs, (m1a, m1b, m2), coeff * c1)
        for (m2a, m2b), c2 in ref.coproduct({m2: ctx.one()}).items():
            _add(rhs, (m1, m2a, m2b), coeff * c2)
    diff = dict(lhs)
    for k, v in rhs.items():
        _add(diff, k, -v)
    if any(diff.values()):
        return f"coassociativity failed on {mono}"
    for g, gmono in zip("abcd", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]):
        gx = {gmono: ctx.one()}
        if ref.coproduct(ref.mul(x, gx)) != ref.tensor_mul(delta, ref.coproduct(gx)):
            return f"D(x{g}) != D(x) D({g}) at x = {mono}"
    return None


def _hopf_sample_array_route(rep: DoubleRep, monos: list):
    """The failure message of the keyed pass over the monomials monos, or None."""
    try:
        verify_mod._certify_hopf_sample(rep, monos)
    except CheckFailure as exc:
        return str(exc)
    return None


def _routes_agree(rep: DoubleRep) -> list:
    """The failure message (or None) of each sampled x, after checking that both routes give the same one."""
    got = []
    for mono in verify_mod._hopf_sample(rep.n):
        array, reference = _hopf_sample_array_route(rep, [mono]), _hopf_sample_dict_reference(rep, mono)
        assert array == reference, (mono, array, reference)
        got.append(array)
    return got


def _raise_coefficient(rep_cls, source: tuple, target: tuple, by: int, *more):
    """Wrap coproduct_monomial so that in D(source) the coefficient of the pair target rises by `by`.

    `more` holds further (target, by) pairs for the same source.
    """
    original = rep_cls.coproduct_monomial
    changes = [(target, by)] + list(zip(more[::2], more[1::2]))

    def wrong(self, codes):
        src, pairs, coeffs = original(self, codes)
        nums = coeffs.nums.copy()
        hit = np.asarray(codes, dtype=np.int64)[src] == self.pbw_code(source)
        for (m1, m2), step in changes:
            nums[hit & (pairs == self.pbw_code(m1) * self.n**4 + self.pbw_code(m2)), 0] += step * coeffs.den
        return src, pairs, CycArray(coeffs.ctx, nums, coeffs.den)

    return wrong


A, B, UNIT = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_da_table_matches_the_dict_recursion(n):
    rep, ref = double_rep(n), _DictPbw(double_rep(n))
    starts, codes, coeffs = rep._da_table
    for m in range(n):
        for l in range(n):
            rows = slice(starts[m * n + l], starts[m * n + l + 1])
            got = PbwElement(rep, codes[rows], coeffs.take(rows))
            assert got.terms == ref.da_expand(m, l), (m, l)


@pytest.mark.parametrize("n", [3, 5])
def test_array_products_match_the_dict_products(n):
    rep, ref = double_rep(n), _DictPbw(double_rep(n))
    monos = [tuple(int(e) for e in np.unravel_index(c, (n,) * 4)) for c in range(n**4)]
    rnd = np.random.default_rng(n)
    for _ in range(40):
        m1, m2 = (monos[i] for i in rnd.integers(len(monos), size=2))
        got = rep.pbw_monomial(*m1) * rep.pbw_monomial(*m2)
        assert got.terms == _nonzero(ref.mono_mul(m1, m2)), (m1, m2)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hopf_sample_routes_agree_on_the_true_coproduct(n):
    assert _routes_agree(double_rep(n)) == [None] * 20


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hopf_sample_routes_agree_after_raising_one_q_binomial(monkeypatch, n):
    original = DoubleRep.quantum_binomial

    def wrong(self, ell, i):
        val = original(self, ell, i)
        return val + 1 if (ell, i) == (2, 1) else val

    monkeypatch.setattr(DoubleRep, "quantum_binomial", wrong)
    failures = _routes_agree(DoubleRep(make_context(n)))
    assert any(failures)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_hopf_sample_routes_agree_after_raising_one_coefficient_of_D_a(monkeypatch, n):
    monkeypatch.setattr(DoubleRep, "coproduct_monomial", _raise_coefficient(DoubleRep, A, (A, B), 1))
    failures = _routes_agree(DoubleRep(make_context(n)))
    assert "D(xa) != D(x) D(a) at x = " in " ".join(f for f in failures if f)


def test_a_difference_moved_to_another_code_fails_the_array_route(monkeypatch):
    """D(a) with +1 on a (x) b and -1 on 1 (x) a: the coefficients still sum to 2, but on the wrong codes."""
    rep = DoubleRep(make_context(3))
    monkeypatch.setattr(DoubleRep, "coproduct_monomial", _raise_coefficient(DoubleRep, A, (A, B), 1, (UNIT, A), -1))
    _src, _pairs, coeffs = rep.coproduct_monomial([rep.pbw_code(A)])
    assert coeffs.nums.sum(axis=0).tolist() == [2, 0]  # the sum over all codes cannot see the defect
    assert coeffs.nums[:, 0].tolist() == [2, 0]  # a (x) b, then 1 (x) a
    assert _hopf_sample_array_route(rep, verify_mod._hopf_sample(3)) is not None
    # the same difference, as an element: +1 and -1 on two codes is not zero
    moved = PbwElement(rep, [rep.pbw_code(A), rep.pbw_code(B)], CycArray.from_list(rep.ctx, [1, -1]))
    assert not moved.is_zero() and len(moved) == 2


def test_segment_sums_past_int64_run_on_python_ints():
    ctx = make_context(3)
    big = 1 << 61
    coeffs = CycArray(ctx, np.array([[big, 1], [big, -1], [-3, 0], [big, 2]], dtype=np.int64), 1)
    codes, sums = _collect(np.array([7, 7, 2, 7]), coeffs)
    assert codes.tolist() == [2, 7]
    assert sums.nums.dtype == object and sums.nums.tolist() == [[-3, 0], [3 * big, 2]]
    codes, sums = _collect(np.array([5, 5]), CycArray(ctx, np.array([[big, 1], [-big, -1]]), 1))
    assert not len(codes)


def test_elements_compare_and_cancel_by_code():
    rep = double_rep(5)
    a, b, c, d = (rep.pbw_generator(g) for g in "abcd")
    assert (a + b) - b == a
    assert (a - a).is_zero() and not (a - b).is_zero()
    delta = (a * d).coproduct()
    assert (delta - delta).is_zero() and not len(delta.noncoassociative_keys())
    assert isinstance(delta, TensorElement) and delta == a.coproduct() * d.coproduct()
    # (eps x id) and (id x eps) both give back the element
    assert delta.counit_legs() == (a * d, a * d)


def test_the_hopf_sample_loop_runs_no_scalar_arithmetic(monkeypatch):
    """Once the first coproduct has built the table of Gaussian binomials, certifying the sample multiplies and adds no CycNum."""
    rep = DoubleRep(make_context(7))
    rep.pbw_generator("a").coproduct()

    def forbidden(*_args):
        raise AssertionError("CycNum arithmetic in the sample loop")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "mul_qpow"):
        monkeypatch.setattr(CycNum, name, forbidden)
    verify_mod._certify_hopf_sample(rep, verify_mod._hopf_sample(7))


@pytest.mark.parametrize("n", [5, 7])
def test_one_corrupted_coproduct_names_its_sample(monkeypatch, n):
    """+1 on one coefficient of D(x) for one sampled x: the keyed passes fail, name that x, and agree with the dict route.

    The same message comes however the sample is split into passes.
    """
    sample = verify_mod._hopf_sample(n)
    target = sample[7]
    assert sample.index(target) == 7  # no earlier sample is the same monomial
    rep = DoubleRep(make_context(n))
    _src, pairs, _coeffs = rep.coproduct_monomial([rep.pbw_code(target)])
    first, second = np.divmod(pairs[-1], n**4)
    monkeypatch.setattr(DoubleRep, "coproduct_monomial", _raise_coefficient(DoubleRep, target, (_mono(n, first), _mono(n, second)), 1))
    rep = DoubleRep(make_context(n))
    singles = [_hopf_sample_array_route(rep, [mono]) for mono in sample]
    assert singles[:7] == [None] * 7 and singles[7] == _hopf_sample_dict_reference(rep, target)
    got = _hopf_sample_array_route(rep, sample)
    assert got == singles[7] and got.endswith(str(target)), got
    for terms in (0, 1 << 40):  # one sample per pass, and the whole sample in one pass
        monkeypatch.setattr(verify_mod, "HOPF_PASS_TERMS", terms)
        assert len(verify_mod._hopf_passes(sample)) == (len(sample) if not terms else 1)
        assert _hopf_sample_array_route(rep, sample) == got


def _keyed_tensor(rep, keys, pairs) -> TensorElement:
    """The sum of m1 (x) m2 under key k, coefficient 1, for (k, (m1, m2)) in zip(keys, pairs)."""
    codes = [rep.pbw_code(m1) * rep.n**4 + rep.pbw_code(m2) for m1, m2 in pairs]
    return TensorElement(rep, codes, CycArray.from_list(rep.ctx, [1] * len(codes)), keys)


def test_keyed_coassociativity_reaches_n_37():
    """The key is sorted beside the three-leg code, not packed into it: codes near n^12 still fit int64 at n = 37.

    Under key 0 the true D(a^36), under key 1 D(d^36) with one stray term:
    only key 1 is reported, and at n = 39 the codes themselves overflow.
    """
    n = 37
    rep = DoubleRep(make_context(n))
    top = n - 1
    x = PbwElement(rep, [rep.pbw_code((top, 0, 0, 0)), rep.pbw_code((0, 0, 0, top))], CycArray.from_list(rep.ctx, [1, 1]), [0, 1])
    delta = x.coproduct()
    assert int(delta.codes.max()) * n**4 + n**4 - 1 > 1 << 62  # three-leg codes pass 2^62
    assert delta.noncoassociative_keys().tolist() == []
    stray = _keyed_tensor(rep, [1], [((top, top, top, top), (top, top, top, top))])
    assert (delta + stray).noncoassociative_keys().tolist() == [1]
    with pytest.raises(OverflowError):
        _keyed_tensor(DoubleRep(make_context(39)), [0], [(UNIT, UNIT)]).noncoassociative_keys()
