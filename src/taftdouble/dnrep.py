"""The Drinfeld double of the Taft algebra and its simple modules.

The algebra is generated by a, b, c, d subject to

    ba = q ab,   db = q bd,   ca = q ac,   dc = q cd,
    bc = cb,     da - q ad = 1 - bc,
    a^n = 0 = d^n,   b^n = 1 = c^n,

with coproduct D(a) = a (x) b + 1 (x) a, D(d) = d (x) c + 1 (x) d and b, c
grouplike.  Elements are kept in the normal-ordered basis a^al b^be c^ga d^de
(exponents of a and d below n, exponents of b and c mod n).

The simple modules V(ell, r), 1 <= ell <= n, r in Z_n, act by shift and
diagonal matrices; their characters on elements b^i c^k d^t a^t reduce to
explicit diagonal sums and feed every trace-vector computation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cyclotomic import CyclotomicContext, CycArray, CycNum, make_context
from .polymat import RingMatrix

__all__ = [
    "SimpleLabel",
    "Monomial",
    "ActionSet",
    "all_labels",
    "label_index",
    "DoubleRep",
    "double_rep",
    "PbwElement",
    "TensorElement",
]


class SimpleLabel(NamedTuple):
    """Label (ell, r) of a simple module: dimension ell, twist r in Z_n."""

    ell: int
    r: int


class Monomial(NamedTuple):
    """The element b^i c^k d^t a^t (i, k taken mod n, 0 <= t < n)."""

    i: int
    k: int
    t: int


def all_labels(n: int) -> list[SimpleLabel]:
    """All n^2 simple labels in lexicographic order, ell major, r minor."""
    return [SimpleLabel(ell, r) for ell in range(1, n + 1) for r in range(n)]


def label_index(n: int, label: SimpleLabel) -> int:
    return (label.ell - 1) * n + label.r % n


@dataclass(frozen=True)
class ActionSet:
    """Exact matrices of the four generators on one simple module."""

    label: SimpleLabel
    mat_a: RingMatrix
    mat_b: RingMatrix
    mat_c: RingMatrix
    mat_d: RingMatrix


class DoubleRep:
    """Per-n workspace: module actions, characters, trace vectors, PBW arithmetic."""

    def __init__(self, ctx: CyclotomicContext):
        self.ctx = ctx
        self.n = ctx.n
        self._gamma_cache: dict[tuple[int, int], list[CycNum]] = {}
        self._qbinom_cache: dict[tuple[int, int], CycNum] = {}
        self._da_cache: dict[tuple[int, int], dict] = {}
        self._left_d_a_cache: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # module actions and characters

    def alpha(self, i: int, ell: int) -> CycNum:
        """The scalar [i] * (1 - q^{i-ell}) appearing in the action of d."""
        ctx = self.ctx
        return ctx.quantum_integer(i) * (ctx.one() - ctx.root_power(i - ell))

    def action_set(self, label: SimpleLabel) -> ActionSet:
        ell, r = label.ell, label.r % self.n
        self._check_label(label)
        ctx = self.ctx
        zero, one = ctx.zero(), ctx.one()
        a = RingMatrix.zeros(ell, ell, zero)
        d = RingMatrix.zeros(ell, ell, zero)
        for j in range(1, ell):
            a.rows[j][j - 1] = one          # a.v_j = v_{j+1}
            d.rows[j - 1][j] = self.alpha(j, ell)  # d.v_{j+1} = alpha_j v_j
        b = RingMatrix.zeros(ell, ell, zero)
        c = RingMatrix.zeros(ell, ell, zero)
        for j in range(1, ell + 1):
            b.rows[j - 1][j - 1] = ctx.root_power(r + j - 1)
            c.rows[j - 1][j - 1] = ctx.root_power(j - (r + ell))
        return ActionSet(SimpleLabel(ell, r), a, b, c, d)

    def verify_relations(self, label: SimpleLabel) -> list[str]:
        """Names of defining relations that fail as matrix identities (empty = all hold)."""
        acts = self.action_set(label)
        ctx = self.ctx
        ell, n = label.ell, self.n
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

    def _check_label(self, label: SimpleLabel):
        if not 1 <= label.ell <= self.n:
            raise ValueError(f"label dimension must lie in 1..{self.n}, got {label.ell}")

    def _gamma(self, ell: int, t: int) -> list[CycNum]:
        """Diagonal of d^t a^t on V(ell, *): entry j-1 is the product of alpha_u, u = j..j+t-1."""
        key = (ell, t)
        got = self._gamma_cache.get(key)
        if got is not None:
            return got
        if t == 0:
            out = [self.ctx.one()] * ell
        else:
            prev = self._gamma(ell, t - 1)
            out = [prev[j - 1] * self.alpha(j + t - 1, ell) for j in range(1, ell - t + 1)]
        self._gamma_cache[key] = out
        return out

    def character(self, label: SimpleLabel, mono: Monomial) -> CycNum:
        """Trace of b^i c^k d^t a^t on V(ell, s), via the diagonal form of d^t a^t."""
        ell, s = label.ell, label.r
        i, k, t = mono
        if t >= ell:
            return self.ctx.zero()
        if t == 0:
            return self.grouplike_character_closed(label, i, k)
        gamma = self._gamma(ell, t)
        acc = self.ctx.zero()
        for j in range(1, ell - t + 1):
            e = (s + j - 1) * i + (j - (s + ell)) * k
            acc = acc + gamma[j - 1].mul_qpow(e)
        return acc

    def character_matrix_route(self, label: SimpleLabel, mono: Monomial) -> CycNum:
        """Same trace, by literal matrix products (cross-check path, small sizes only)."""
        acts = self.action_set(label)
        m = acts.mat_b ** (mono.i % self.n)
        m = m * acts.mat_c ** (mono.k % self.n)
        m = m * acts.mat_d**mono.t
        m = m * acts.mat_a**mono.t
        return m.trace()

    def character_pbw(self, label: SimpleLabel, pbw_mono: tuple) -> CycNum:
        """Trace of the normal-ordered monomial a^al b^be c^ga d^de (zero unless al = de)."""
        al, be, ga, de = pbw_mono
        if al != de:
            return self.ctx.zero()
        return self.character(label, Monomial(be, ga, al))

    def grouplike_character_closed(self, label: SimpleLabel, i: int, k: int) -> CycNum:
        """Trace of b^i c^k on V(ell, s): the sum of q^{(s+t-1)i + (t-(s+ell))k}, t = 1..ell."""
        ell, s = label.ell, label.r
        return self.ctx.from_qpowers(
            (1, (s + t - 1) * i + (t - (s + ell)) * k) for t in range(1, ell + 1)
        )

    def dual_label(self, label: SimpleLabel) -> SimpleLabel:
        """The dual of V(ell, r) is V(ell, 1 - r - ell)."""
        return SimpleLabel(label.ell, (1 - label.r - label.ell) % self.n)

    def projective_composition(self, label: SimpleLabel) -> dict[SimpleLabel, int]:
        """Composition multiplicities of the projective cover of V(ell, r)."""
        ell, r = label.ell, label.r % self.n
        if ell == self.n:
            return {SimpleLabel(ell, r): 1}
        return {
            SimpleLabel(ell, r): 2,
            SimpleLabel(self.n - ell, (r + ell) % self.n): 2,
        }

    # ------------------------------------------------------------------
    # trace vectors

    def trace_vector_S(self, mono: Monomial) -> CycArray:
        """Simple-module trace vector of b^i c^k d^t a^t, in lexicographic label order.

        The twist s enters every term of the trace through the same factor
        q^{s(i-k)}, so block ell is the s = 0 value stacked over those powers
        instead of resummed.
        """
        n = self.n
        values = [self.character(SimpleLabel(ell, 0), mono) for ell in range(1, n + 1)]
        return CycArray.from_list(self.ctx, values).qpow_blocks([s * (mono.i - mono.k) for s in range(n)])

    def trace_vector_S_pbw(self, pbw_mono: tuple) -> CycArray:
        al, be, ga, de = pbw_mono
        if al != de:
            return CycArray.zeros(self.ctx, self.n * self.n)
        return self.trace_vector_S(Monomial(be, ga, al))

    def trace_vector_P(self, i: int, k: int) -> CycArray:
        """Projective trace vector of b^i c^k, ordered P(1,.), ..., P(n-1,.), then V(n,.).

        Zero unless i + k = 0 mod n; otherwise block ell has entries
        2n q^{(2r + ell - 1)i} and the final block has n q^{(2r-1)i}: the
        values at r = 0 stacked over (q^{2ri})_r.
        """
        n, ctx = self.n, self.ctx
        if (i + k) % n:
            return CycArray.zeros(ctx, n * n)
        values = [ctx.root_power((ell - 1) * i) * (2 * n) for ell in range(1, n)] + [ctx.root_power(-i) * n]
        return CycArray.from_list(ctx, values).qpow_blocks([2 * r * i for r in range(n)])

    # ------------------------------------------------------------------
    # quantum binomials and the PBW algebra

    def quantum_binomial(self, ell: int, i: int) -> CycNum:
        """Gaussian binomial [ell choose i], by the Pascal recursion (no division)."""
        if not 0 <= i <= ell:
            raise ValueError(f"binomial index out of range: ({ell}, {i})")
        if i == 0 or i == ell:
            return self.ctx.one()
        key = (ell, i)
        got = self._qbinom_cache.get(key)
        if got is None:
            got = self.quantum_binomial(ell - 1, i - 1) + self.quantum_binomial(
                ell - 1, i
            ).mul_qpow(i)
            self._qbinom_cache[key] = got
        return got

    def pbw(self, terms) -> "PbwElement":
        return PbwElement(self, dict(terms))

    def pbw_monomial(self, al=0, be=0, ga=0, de=0, coeff=1) -> "PbwElement":
        n = self.n
        if al >= n or de >= n:
            return PbwElement(self, {})
        c = coeff if isinstance(coeff, CycNum) else self.ctx.from_rational(coeff)
        return PbwElement(self, {(al, be % n, ga % n, de): c})

    def pbw_generator(self, name: str) -> "PbwElement":
        return self.pbw_monomial(**{{"a": "al", "b": "be", "c": "ga", "d": "de"}[name]: 1})

    def _da_expand(self, m: int, l: int) -> dict:
        """Normal-ordered expansion of d^m a^l as {(al, be, ga, de): CycNum}."""
        key = (m, l)
        got = self._da_cache.get(key)
        if got is not None:
            return got
        n, ctx = self.n, self.ctx
        if m == 0:
            out = {(l, 0, 0, 0): ctx.one()} if l < n else {}
        elif l == 0:
            out = {(0, 0, 0, m): ctx.one()} if m < n else {}
        else:
            # d * (d^{m-1} a^l), pushing the extra d through each normal term
            out = {}
            for (al, be, ga, de), coeff in self._da_expand(m - 1, l).items():
                for (aa, bb, cc, dd), c2 in self._left_d_a(al).items():
                    # d^{dd} b^be c^ga = q^{dd(be+ga)} b^be c^ga d^{dd}
                    dtot = dd + de
                    if dtot >= n:
                        continue
                    key2 = (aa, (bb + be) % n, (cc + ga) % n, dtot)
                    val = coeff * c2
                    if dd:
                        val = val.mul_qpow(dd * (be + ga))
                    out[key2] = out.get(key2, ctx.zero()) + val
            out = {k: v for k, v in out.items() if v}
        self._da_cache[key] = out
        return out

    def _left_d_a(self, al: int) -> dict:
        """Expansion of d a^al: d a = q a d + 1 - bc drives the recursion."""
        got = self._left_d_a_cache.get(al)
        if got is not None:
            return got
        ctx = self.ctx
        if al == 0:
            out = {(0, 0, 0, 1): ctx.one()}
        else:
            out = {}
            for (aa, bb, cc, dd), coeff in self._left_d_a(al - 1).items():
                if aa + 1 < self.n:
                    key = (aa + 1, bb, cc, dd)
                    out[key] = out.get(key, ctx.zero()) + coeff.mul_qpow(1)
            one_term = (al - 1, 0, 0, 0)
            out[one_term] = out.get(one_term, ctx.zero()) + ctx.one()
            bc_term = (al - 1, 1, 1, 0)
            out[bc_term] = out.get(bc_term, ctx.zero()) - ctx.one().mul_qpow(2 * (al - 1))
            out = {k: v for k, v in out.items() if v}
        self._left_d_a_cache[al] = out
        return out

    def _mono_mul(self, m1: tuple, m2: tuple) -> dict:
        """Product of two normal-ordered monomials as a normal-ordered dict."""
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        n, ctx = self.n, self.ctx
        out = {}
        for (aa, bb, cc, dd), coeff in self._da_expand(d1, a2).items():
            atot = a1 + aa
            dtot = dd + d2
            if atot >= n or dtot >= n:
                continue
            # b^b1 c^c1 a^aa = q^{aa(b1+c1)} a^aa b^b1 c^c1 ;  d^dd b^b2 c^c2 = q^{dd(b2+c2)} ...
            e = aa * (b1 + c1) + dd * (b2 + c2)
            key = (atot, (b1 + bb + b2) % n, (c1 + cc + c2) % n, dtot)
            val = coeff.mul_qpow(e) if e % n else coeff
            out[key] = out.get(key, ctx.zero()) + val
        return out

    def coproduct_monomial(self, mono: tuple) -> dict:
        """Coproduct of a normal-ordered monomial, as {(mono, mono): CycNum}.

        D(a) = X + Y with X = a (x) b, Y = 1 (x) a and XY = q YX, and
        D(d) = Z + W with Z = d (x) c, W = 1 (x) d and WZ = q ZW.  The
        Gaussian binomial theorem, (x + y)^m = sum_k [m k]_q x^k y^{m-k}
        whenever yx = q xy, expands both powers into normal-ordered terms:

            D(a^al b^be c^ga d^de) = sum over j <= al, k <= de of
                [al j]_q [de k]_q  a^{al-j} b^be c^ga d^k
                                   (x) a^j b^{be+al-j} c^{ga+k} d^{de-k}

        (exponents of b and c mod n).  This is not an algebra map by
        construction: hopf-axioms certifies multiplicativity on a sample, and
        the tests compare it with D(a)^al D(b)^be D(c)^ga D(d)^de multiplied
        out.
        """
        n = self.n
        al, be, ga, de = mono
        out = {}
        for j in range(al + 1):
            binom_a = self.quantum_binomial(al, j)
            right_b = (be + al - j) % n
            for k in range(de + 1):
                key = ((al - j, be, ga, k), (j, right_b, (ga + k) % n, de - k))
                out[key] = binom_a * self.quantum_binomial(de, k)
        return out


@lru_cache(maxsize=None)
def double_rep(n: int) -> DoubleRep:
    return DoubleRep(make_context(n))


def bckt_to_pbw(rep: DoubleRep, mono: Monomial) -> "PbwElement":
    """The element b^i c^k d^t a^t rewritten into the normal-ordered basis."""
    n = rep.n
    return PbwElement(rep, rep._mono_mul((0, mono.i % n, mono.k % n, mono.t), (mono.t, 0, 0, 0)))


def coproduct_trace_identity(rep: DoubleRep, mckay: np.ndarray, x, vlabel: SimpleLabel):
    """Both sides of the trace identity M_V Tr_S(x) = sum tr_V(x_(2)) Tr_S(x_(1)).

    The left side multiplies the simple trace vector by mckay, the integer
    McKay array of V(vlabel); the right side expands the coproduct of x and
    weighs each tensor factor by its trace on V(vlabel).  Accepts a
    normal-ordered exponent tuple, a Monomial (b^i c^k d^t a^t), or a
    PbwElement.
    """
    if isinstance(x, Monomial):
        elem = bckt_to_pbw(rep, x)
    elif isinstance(x, tuple):
        elem = rep.pbw_monomial(*x)
    else:
        elem = x
    size = rep.n * rep.n
    tr_x = rhs = CycArray.zeros(rep.ctx, size)
    for mono, coeff in elem.terms.items():
        tr_x = tr_x + rep.trace_vector_S_pbw(mono).scaled(coeff)
        for (m1, m2), c in rep.coproduct_monomial(mono).items():
            weight = rep.character_pbw(vlabel, m2)
            if weight:
                rhs = rhs + rep.trace_vector_S_pbw(m1).scaled(coeff * c * weight)
    return tr_x.left_mul(mckay), rhs


class PbwElement:
    """An element of the double in the normal-ordered basis."""

    __slots__ = ("rep", "terms")

    def __init__(self, rep: DoubleRep, terms: dict):
        self.rep = rep
        self.terms = {k: v for k, v in terms.items() if v}

    def __eq__(self, other):
        return isinstance(other, PbwElement) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return PbwElement(self.rep, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PbwElement(self.rep, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int,)) or isinstance(other, CycNum):
            return PbwElement(self.rep, {k: v * other for k, v in self.terms.items()})
        out = {}
        rep = self.rep
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                for k, v in rep._mono_mul(m1, m2).items():
                    cur = out.get(k)
                    term = v * c12
                    out[k] = term if cur is None else cur + term
        return PbwElement(self.rep, out)

    def coproduct(self) -> "TensorElement":
        out = {}
        for mono, coeff in self.terms.items():
            for pair, c in self.rep.coproduct_monomial(mono).items():
                cur = out.get(pair)
                term = c * coeff
                out[pair] = term if cur is None else cur + term
        return TensorElement(self.rep, out)

    def counit(self) -> CycNum:
        acc = self.rep.ctx.zero()
        for (al, _be, _ga, de), coeff in self.terms.items():
            if al == 0 and de == 0:
                acc = acc + coeff
        return acc

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "PbwElement(0)"
        bits = []
        for (al, be, ga, de), coeff in sorted(self.terms.items()):
            mono = "".join(
                s for s, e in (("a^%d" % al, al), ("b^%d" % be, be), ("c^%d" % ga, ga), ("d^%d" % de, de)) if e
            )
            bits.append(f"({coeff})*{mono or '1'}")
        return "PbwElement(" + " + ".join(bits) + ")"


class TensorElement:
    """An element of the tensor square, keyed by pairs of normal-ordered monomials."""

    __slots__ = ("rep", "terms")

    def __init__(self, rep: DoubleRep, terms: dict):
        self.rep = rep
        self.terms = {k: v for k, v in terms.items() if v}

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.terms == other.terms

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            cur = out.get(k)
            out[k] = -v if cur is None else cur - v
        return TensorElement(self.rep, out)

    def __mul__(self, other):
        out = {}
        rep = self.rep
        for (x1, x2), c1 in self.terms.items():
            for (y1, y2), c2 in other.terms.items():
                c12 = c1 * c2
                for k1, v1 in rep._mono_mul(x1, y1).items():
                    for k2, v2 in rep._mono_mul(x2, y2).items():
                        key = (k1, k2)
                        term = v1 * v2 * c12
                        cur = out.get(key)
                        out[key] = term if cur is None else cur + term
        return TensorElement(self.rep, out)

    def is_zero(self) -> bool:
        return not self.terms
