import random
from fractions import Fraction
from functools import lru_cache

import pytest

from taftdouble.cyclotomic import CycArray, make_context
from taftdouble.dnrep import (
    DoubleRep,
    Monomial,
    SimpleLabel,
    TensorElement,
    WeightedShift,
    all_labels,
    bckt_to_pbw,
    coproduct_trace_identity,
    double_rep,
    label_index,
)
from taftdouble.grring import groth_ring
from taftdouble.polymat import RingMatrix


def test_label_ordering():
    labs = all_labels(3)
    assert labs[0] == SimpleLabel(1, 0)
    assert labs[-1] == SimpleLabel(3, 2)
    assert [label_index(3, lab) for lab in labs] == list(range(9))


def test_trivial_module_acts_by_counit():
    rep = double_rep(5)
    acts = rep.action_set(SimpleLabel(1, 0))
    assert acts.mat_a.is_zero() and acts.mat_d.is_zero()
    assert acts.mat_b.rows[0][0] == rep.ctx.one()
    assert acts.mat_c.rows[0][0] == rep.ctx.one()


def test_two_dimensional_action_matrices():
    rep = double_rep(5)
    ctx = rep.ctx
    acts = rep.action_set(SimpleLabel(2, 0))
    assert acts.mat_b.rows[0][0] == ctx.one() and acts.mat_b.rows[1][1] == ctx.root_power(1)
    assert acts.mat_c.rows[0][0] == ctx.root_power(-1) and acts.mat_c.rows[1][1] == ctx.one()
    assert rep.alpha(1, 2) == ctx.one() - ctx.root_power(-1)


@pytest.mark.parametrize("n", [3, 5])
def test_relations_hold_everywhere(n):
    assert double_rep(n).verify_relations(all_labels(n)) == []


def _relations_dense_reference(rep, label):
    """Names of the defining relations that fail as dense matrix identities over CycNum.

    The independent cross-check of `DoubleRep.verify_relations`, which
    certifies the same relations on stacks of weighted shifts.
    """
    acts = rep.action_set(label)
    ctx = rep.ctx
    ell, n = label.ell, rep.n
    q = ctx.root_power(1)
    a, b, c, d = acts.mat_a, acts.mat_b, acts.mat_c, acts.mat_d
    ident = RingMatrix.identity(ell, ctx.one(), ctx.zero())
    zero = RingMatrix.zeros(ell, ell, ctx.zero())

    def diag_pow_is_identity(m):
        # b and c act diagonally; exponentiate entrywise once that is certified
        if any(m.rows[i][j] for i in range(ell) for j in range(ell) if i != j):
            return False
        return all(m.rows[i][i] ** n == ctx.one() for i in range(ell))

    checks = {
        "ba=q.ab": b * a == (a * b).scalar_mul(q),
        "ca=q.ac": c * a == (a * c).scalar_mul(q),
        "db=q.bd": d * b == (b * d).scalar_mul(q),
        "dc=q.cd": d * c == (c * d).scalar_mul(q),
        "bc=cb": b * c == c * b,
        "da-q.ad=1-bc": d * a - (a * d).scalar_mul(q) == ident - b * c,
        "a^n=0": a**n == zero,
        "d^n=0": d**n == zero,
        "b^n=1": diag_pow_is_identity(b),
        "c^n=1": diag_pow_is_identity(c),
    }
    return [name for name, ok in checks.items() if not ok]


def _relation_labels(n):
    labels = all_labels(n)
    return labels if n <= 5 else random.Random(n).sample(labels, 12)


def _bump_alpha(target):
    """DoubleRep.alpha with alpha_i on V(ell, *) raised by 1 at target = (i, ell)."""
    original = DoubleRep.alpha

    def alpha(self, i, ell):
        val = original(self, i, ell)
        return val + 1 if (i, ell) == target else val
    return alpha


def _bump_diagonal(which, label, j):
    """DoubleRep._action_stack with entry j of the diagonal of b (which = 1) or c (which = 2) raised by 1 on label."""
    original = DoubleRep._action_stack

    def action_stack(self, ell):
        shifts = list(original(self, ell))
        if ell == label.ell:
            diag = shifts[which].diag
            nums = diag.nums.copy()
            nums[label.r * ell + j, 0] += diag.den
            shifts[which] = WeightedShift(0, ell, CycArray(diag.ctx, nums, diag.den))
        return tuple(shifts)
    return action_stack


@pytest.mark.parametrize("n", [3, 5, 7])
def test_shift_relations_match_the_dense_reference(n):
    rep = DoubleRep(make_context(n))
    assert rep.verify_relations(all_labels(n)) == []
    for lab in all_labels(n):
        assert _relations_dense_reference(rep, lab) == [], lab


@pytest.mark.parametrize("n", [3, 5, 7])
def test_shift_relations_fail_like_the_dense_reference(n, monkeypatch):
    """One defect in the stacked generators fails exactly the modules it reaches, with the relations the dense route names.

    A raised entry of b or c reaches one module; a raised weight of d reaches
    every twist of its dimension, since they share d.
    """
    rnd = random.Random(10 + n)
    for lab in _relation_labels(n):
        defects = [("_action_stack", _bump_diagonal(which, lab, rnd.randrange(lab.ell)), [lab]) for which in (1, 2)]
        if lab.ell > 1:
            reached = [label for label in all_labels(n) if label.ell == lab.ell]
            defects.append(("alpha", _bump_alpha((rnd.randrange(1, lab.ell), lab.ell)), reached))
        for attr, defect, reached in defects:
            with monkeypatch.context() as m:
                m.setattr(DoubleRep, attr, defect)
                rep = DoubleRep(make_context(n))  # builds its stacks with the defect
                fails = rep.verify_relations(all_labels(n))
                assert {label for label, _ in fails} == set(reached), (lab, fails)
                assert fails == [(label, name) for label in reached for name in _relations_dense_reference(rep, label)]


def test_single_module_is_a_stack_of_one():
    """`action_shifts` slices label r out of the stacks of its dimension; a stack of several has no dense matrix."""
    rep = double_rep(5)
    stack = rep._action_stacks[2]
    a, b, c, d = rep.action_shifts(SimpleLabel(3, 7))
    assert [x.size for x in (a, b, c, d)] == [3] * 4 and [len(x.diag) for x in (a, b, c, d)] == [3] * 4
    assert b.diag == stack[1].diag.take(slice(2 * 3, 3 * 3))
    assert d.diag == stack[3].diag.take(slice(0, 3))
    assert rep.verify_relations([SimpleLabel(3, 7), SimpleLabel(1, 0)]) == []
    with pytest.raises(ValueError):
        stack[0].to_matrix()


def test_stacked_products_keep_labels_apart():
    """A product of stacks is the matrix product label by label: no row moves into the next label.

    The first factor has a 1 also on the row the matrix ignores (its source
    lies outside the module), so a row carried across labels would show.
    """
    ctx = make_context(5)
    up = WeightedShift(1, 2, CycArray.from_list(ctx, [1, 1, 1, 1]))
    down = WeightedShift(-1, 2, CycArray.from_list(ctx, [1, 2, 3, 4]))
    for x, y in ((up, down), (down, up), (up, up)):
        for k in range(2):
            assert (x * y).take([k]).to_matrix() == x.take([k]).to_matrix() * y.take([k]).to_matrix(), (x.offset, y.offset, k)


def test_label_validation():
    rep = double_rep(3)
    with pytest.raises(ValueError):
        rep.action_set(SimpleLabel(4, 0))


def test_pbw_products():
    rep = double_rep(5)
    ctx = rep.ctx
    q = ctx.root_power(1)
    a, b, c, d = (rep.pbw_generator(g) for g in "abcd")
    one = rep.pbw_monomial()
    assert b * a == a * b * q
    assert c * a == a * c * q
    assert d * b == b * d * q
    assert (d * a - a * d * q - one + b * c).is_zero()
    assert (rep.pbw_monomial(al=4) * a).is_zero()
    assert rep.pbw_monomial(al=5).is_zero()
    # associativity on a small sample
    rnd = random.Random(3)
    for _ in range(5):
        xs = [
            rep.pbw_monomial(
                rnd.randrange(3), rnd.randrange(5), rnd.randrange(5), rnd.randrange(3),
                coeff=ctx.root_power(rnd.randrange(5)),
            )
            for _ in range(3)
        ]
        assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])


def test_coproducts():
    rep = double_rep(5)
    ctx = rep.ctx
    b, d = rep.pbw_generator("b"), rep.pbw_generator("d")
    assert b.coproduct().terms == {((0, 1, 0, 0), (0, 1, 0, 0)): ctx.one()}
    assert d.coproduct().terms == {
        ((0, 0, 0, 1), (0, 0, 1, 0)): ctx.one(),
        ((0, 0, 0, 0), (0, 0, 0, 1)): ctx.one(),
    }
    a2 = rep.pbw_monomial(al=2)
    expected = {
        ((2, 0, 0, 0), (0, 2, 0, 0)): ctx.one(),
        ((1, 0, 0, 0), (1, 1, 0, 0)): ctx.one() + ctx.root_power(1),
        ((0, 0, 0, 0), (2, 0, 0, 0)): ctx.one(),
    }
    assert a2.coproduct().terms == expected


def _tensor(rep, *pairs):
    """The sum of the tensors m1 (x) m2 of the given monomial pairs, each with coefficient 1."""
    codes = [rep.pbw_code(m1) * rep.n**4 + rep.pbw_code(m2) for m1, m2 in pairs]
    return TensorElement(rep, codes, CycArray.from_list(rep.ctx, [1] * len(codes)))


def _coproduct_multiply_out(rep, mono):
    """D(a)^al D(b)^be D(c)^ga D(d)^de multiplied out in the tensor square.

    The independent cross-check of the closed form in `coproduct_monomial`:
    it is an algebra map by construction and uses no binomial coefficient.
    """
    al, be, ga, de = mono
    unit = (0, 0, 0, 0)
    out = _tensor(rep, (unit, unit))
    factors = (
        (al, _tensor(rep, ((1, 0, 0, 0), (0, 1, 0, 0)), (unit, (1, 0, 0, 0)))),  # D(a)
        (1, _tensor(rep, ((0, be, 0, 0), (0, be, 0, 0)))),                       # D(b)^be
        (1, _tensor(rep, ((0, 0, ga, 0), (0, 0, ga, 0)))),                       # D(c)^ga
        (de, _tensor(rep, ((0, 0, 0, 1), (0, 0, 1, 0)), (unit, (0, 0, 0, 1)))),  # D(d)
    )
    for rep_count, factor in factors:
        for _ in range(rep_count):
            out = out * factor
    return out


@pytest.mark.parametrize("n,sample", [(3, None), (5, None), (7, 60)])
def test_closed_form_coproduct_matches_multiply_out(n, sample):
    rep = double_rep(n)
    monos = [(al, be, ga, de) for al in range(n) for be in range(n) for ga in range(n) for de in range(n)]
    if sample is not None:
        monos = random.Random(n).sample(monos, sample)
    for mono in monos:
        assert rep.pbw_monomial(*mono).coproduct() == _coproduct_multiply_out(rep, mono), mono


def test_coproduct_is_algebra_map():
    rep = double_rep(5)
    rnd = random.Random(9)
    for _ in range(4):
        x = rep.pbw_monomial(rnd.randrange(3), rnd.randrange(5), rnd.randrange(5), rnd.randrange(3))
        y = rep.pbw_monomial(rnd.randrange(3), rnd.randrange(5), rnd.randrange(5), rnd.randrange(3))
        assert ((x * y).coproduct() - x.coproduct() * y.coproduct()).is_zero()


def test_counit():
    rep = double_rep(3)
    assert rep.pbw_generator("a").counit().is_zero()
    assert rep.pbw_generator("d").counit().is_zero()
    assert rep.pbw_generator("b").counit() == rep.ctx.one()
    assert rep.pbw_monomial(be=2, ga=1).counit() == rep.ctx.one()


def test_quantum_binomials():
    rep = double_rep(5)
    ctx = rep.ctx
    q = ctx.root_power(1)
    assert rep.quantum_binomial(2, 1) == ctx.one() + q
    for ell in range(5):
        assert rep.quantum_binomial(ell, 0) == ctx.one()
    assert rep.quantum_binomial(4, 2) == (1 + ctx.root_power(2)) * (
        1 + q + ctx.root_power(2)
    )
    with pytest.raises(ValueError):
        rep.quantum_binomial(2, 3)


def test_character_examples():
    n = 5
    rep = double_rep(n)
    ctx = rep.ctx
    for s in range(n):
        for i in range(n):
            for k in range(n):
                assert rep.character(SimpleLabel(1, s), Monomial(i, k, 0)) == ctx.root_power(s * (i - k))
    for i in range(n):
        for k in range(n):
            assert rep.character(SimpleLabel(2, 0), Monomial(i, k, 0)) == ctx.root_power(i) + ctx.root_power(-k)
    # identity trace is the dimension
    for lab in all_labels(n):
        assert rep.character(lab, Monomial(0, 0, 0)) == lab.ell
    # nilpotency kills the trace once t reaches the dimension
    assert rep.character(SimpleLabel(2, 1), Monomial(1, 1, 3)).is_zero()
    assert rep.character(SimpleLabel(2, 1), Monomial(1, 1, 2)).is_zero()


@lru_cache(maxsize=None)
def _diagonal_reference(rep, ell, t):
    """Diagonal of d^t a^t on V(ell, *): entry j - 1 is alpha_j ... alpha_{j+t-1}, j = 1..ell-t."""
    if t == 0:
        return [rep.ctx.one()] * ell
    prev = _diagonal_reference(rep, ell, t - 1)
    return [prev[j - 1] * rep.alpha(j + t - 1, ell) for j in range(1, ell - t + 1)]


def _character_reference(rep, label, mono):
    """Trace of b^i c^k d^t a^t on V(ell, s), summed entry by entry along the diagonal of d^t a^t."""
    ell, s = label.ell, label.r
    i, k, t = mono
    acc = rep.ctx.zero()
    for j, gamma in enumerate(_diagonal_reference(rep, ell, t), start=1):
        acc = acc + gamma.mul_qpow((s + j - 1) * i + (j - (s + ell)) * k)
    return acc


@pytest.mark.parametrize("n", [3, 5, 9])
def test_trace_vectors_match_the_per_entry_characters(n):
    rep = double_rep(n)
    labels = all_labels(n)
    for i in range(n):
        for k in range(n):
            for t in range(1, n):
                mono = Monomial(i, k, t)
                assert rep.trace_vector_S(mono).to_list() == [_character_reference(rep, lab, mono) for lab in labels]


def test_character_matches_matrix_route():
    rep = double_rep(5)
    rnd = random.Random(1)
    for _ in range(12):
        lab = SimpleLabel(rnd.randint(1, 5), rnd.randrange(5))
        mono = Monomial(rnd.randrange(5), rnd.randrange(5), rnd.randrange(5))
        assert rep.character(lab, mono) == rep.character_matrix_route(lab, mono)


def test_dual_labels():
    rep = double_rep(5)
    assert rep.dual_label(SimpleLabel(2, 0)) == SimpleLabel(2, 4)
    assert rep.dual_label(SimpleLabel(1, 0)) == SimpleLabel(1, 0)
    for lab in all_labels(5):
        assert rep.dual_label(rep.dual_label(lab)) == lab
    for r in range(5):
        assert rep.dual_label(SimpleLabel(5, r)) == SimpleLabel(5, (1 - r) % 5)


def test_projective_composition():
    rep = double_rep(3)
    assert rep.projective_composition(SimpleLabel(1, 0)) == {
        SimpleLabel(1, 0): 2,
        SimpleLabel(2, 1): 2,
    }
    assert rep.projective_composition(SimpleLabel(3, 1)) == {SimpleLabel(3, 1): 1}
    for lab in all_labels(3):
        comp = rep.projective_composition(lab)
        dim = sum(mult * l.ell for l, mult in comp.items())
        assert dim == (2 * 3 if lab.ell < 3 else 3)


def test_trace_vectors():
    rep = double_rep(3)
    ctx = rep.ctx
    assert rep.trace_vector_S(Monomial(0, 0, 0)).to_list() == [
        ctx.from_rational(lab.ell) for lab in all_labels(3)
    ]
    tv = rep.trace_vector_S(Monomial(1, 1, 0))
    assert tv[label_index(3, SimpleLabel(1, 0))] == ctx.one()
    # symmetry under (i, k) -> (-k, -i)
    for i in range(3):
        for k in range(3):
            assert rep.trace_vector_S(Monomial(i, k, 0)) == rep.trace_vector_S(
                Monomial((-k) % 3, (-i) % 3, 0)
            )


def test_projective_trace_vectors():
    rep3 = double_rep(3)
    ctx = rep3.ctx
    q = ctx.root_power
    assert rep3.trace_vector_P(0, 0).to_list() == [ctx.from_rational(x) for x in (6, 6, 6, 6, 6, 6, 3, 3, 3)]
    rows = {i: rep3.trace_vector_P(i, -i).to_list() for i in range(3)}
    table = [
        [q(0) * 6, q(0) * 6, q(0) * 6, q(0) * 6, q(0) * 6, q(0) * 6, q(0) * 3, q(0) * 3, q(0) * 3],
        [q(0) * 6, q(1) * 6, q(2) * 6, q(2) * 6, q(0) * 6, q(1) * 6, q(1) * 3, q(2) * 3, q(0) * 3],
        [q(0) * 6, q(2) * 6, q(1) * 6, q(1) * 6, q(0) * 6, q(2) * 6, q(2) * 3, q(1) * 3, q(0) * 3],
    ]
    assert set(map(tuple, rows.values())) == set(map(tuple, table))
    assert double_rep(5).trace_vector_P(1, 1).is_zero()


def test_coproduct_trace_identity_cases():
    n = 3
    rep = double_rep(n)
    ring = groth_ring(n)
    M = ring.mckay_v20()
    v20 = SimpleLabel(2, 0)
    # grouplike: reduces to the eigen equation
    lhs, rhs = coproduct_trace_identity(rep, M, (0, 1, 1, 0), v20)
    assert lhs == rhs
    # x = a: both sides vanish outright
    lhs, rhs = coproduct_trace_identity(rep, M, (1, 0, 0, 0), v20)
    assert lhs.is_zero() and rhs.is_zero()
    # x = b c d a, fully expanded
    lhs, rhs = coproduct_trace_identity(rep, M, Monomial(1, 1, 1), v20)
    assert lhs == rhs
    rnd = random.Random(5)
    for _ in range(5):
        mono = (rnd.randrange(n), rnd.randrange(n), rnd.randrange(n), rnd.randrange(n))
        lhs, rhs = coproduct_trace_identity(rep, M, mono, v20)
        assert lhs == rhs


def test_bckt_conversion_round_trip():
    rep = double_rep(5)
    mono = Monomial(2, 3, 1)
    elem = bckt_to_pbw(rep, mono)
    # traces agree label by label with the direct evaluation
    for lab in all_labels(5):
        direct = rep.character(lab, mono)
        via_pbw = rep.ctx.zero()
        for coeff, value in zip(elem.coeffs.to_list(), rep.characters_pbw(lab, elem.codes).to_list()):
            via_pbw = via_pbw + coeff * value
        assert direct == via_pbw
