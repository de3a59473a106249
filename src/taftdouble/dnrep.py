"""The Drinfeld double of the Taft algebra and its simple modules.

The algebra is generated by a, b, c, d subject to

    ba = q ab,   db = q bd,   ca = q ac,   dc = q cd,
    bc = cb,     da - q ad = 1 - bc,
    a^n = 0 = d^n,   b^n = 1 = c^n,

with coproduct D(a) = a (x) b + 1 (x) a, D(d) = d (x) c + 1 (x) d and b, c
grouplike.  Elements are kept in the normal-ordered basis a^al b^be c^ga d^de
(exponents of a and d below n, exponents of b and c mod n).

On a simple module V(ell, r), 1 <= ell <= n, r in Z_n, every generator
acts as a weighted shift (`WeightedShift`): a raises the basis index by one,
d lowers it with the weights alpha_j, and b and c act diagonally by powers
of q.  `DoubleRep.verify_relations` certifies the defining relations on
these shifts, where a product of two shifts is an offset and one entrywise
product of their diagonals, so every relation is an entrywise identity of
`CycArray`s.  The characters of b^i c^k d^t a^t are sums along the diagonal
of d^t a^t, whose entries are products of consecutive alphas (the gamma
table, built once per n by entrywise products); one contraction of that
table with the powers of q gives the character of every dimension at once,
and feeds every trace-vector computation downstream.  The dense matrices
(`action_set`, `character_matrix_route`) are kept as independent
cross-checks for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .cyclotomic import CyclotomicContext, CycArray, CycNum, int_array, make_context
from .polymat import RingMatrix

__all__ = [
    "SimpleLabel",
    "Monomial",
    "ActionSet",
    "WeightedShift",
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


def _shift_rows(nums: np.ndarray, offset: int) -> np.ndarray:
    """Row i of the result is row i - offset of nums, zero where that row does not exist."""
    out = np.zeros_like(nums)
    size = len(nums)
    if offset >= 0:
        out[offset:] = nums[:max(size - offset, 0)]
    else:
        out[:max(size + offset, 0)] = nums[-offset:]
    return out


class WeightedShift:
    """An operator on a module of dimension len(diag) that sends basis vector i - offset to diag[i] times vector i.

    Its matrix has entry (i, i - offset) = diag[i] and no other.  Entries
    whose source i - offset lies outside the module are zero, so a product
    whose offset reaches the dimension has no entry left.
    """

    __slots__ = ("offset", "diag")

    def __init__(self, offset: int, diag: CycArray):
        self.offset = offset
        self.diag = diag

    @staticmethod
    def diagonal(ctx: CyclotomicContext, exps) -> "WeightedShift":
        """The diagonal operator with entries q^e, e in exps."""
        return WeightedShift(0, CycArray(ctx, ctx._qpow_mul[np.asarray(exps, dtype=np.int64) % ctx.n, 0], 1))

    def __mul__(self, other: "WeightedShift") -> "WeightedShift":
        """The matrix product: offsets add, and entry i is diag[i] times other.diag[i - offset]."""
        moved = CycArray(other.diag.ctx, _shift_rows(other.diag.nums, self.offset), other.diag.den)
        return WeightedShift(self.offset + other.offset, self.diag * moved)

    def __pow__(self, k: int) -> "WeightedShift":
        """k-th power, k >= 1, by square-and-multiply."""
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __add__(self, other: "WeightedShift") -> "WeightedShift":
        if self.offset != other.offset:
            raise ValueError(f"shifts by {self.offset} and {other.offset} do not add to a weighted shift")
        return WeightedShift(self.offset, self.diag + other.diag)

    def scaled(self, c: CycNum) -> "WeightedShift":
        return WeightedShift(self.offset, self.diag.scaled(c))

    def __eq__(self, other):
        """Equality of the matrices: same offset and diagonal, or no entry on either side."""
        if not isinstance(other, WeightedShift):
            return NotImplemented
        if self.offset == other.offset:
            return self.diag == other.diag
        return self.diag.is_zero() and other.diag.is_zero()

    __hash__ = None

    def _rows(self) -> range:
        """The rows i whose source i - offset lies in the module."""
        size = len(self.diag)
        return range(max(0, self.offset), min(size, size + self.offset))

    def to_matrix(self) -> RingMatrix:
        ctx = self.diag.ctx
        mat = RingMatrix.zeros(len(self.diag), len(self.diag), ctx.zero())
        entries = self.diag.to_list()
        for i in self._rows():
            mat.rows[i][i - self.offset] = entries[i]
        return mat

    def embed(self) -> np.ndarray:
        """The matrix under q -> exp(2 pi i / n), as a dense complex array."""
        size = len(self.diag)
        rows = np.arange(size)[self._rows()]
        out = np.zeros((size, size), dtype=complex)
        out[rows, rows - self.offset] = self.diag.embed()[rows]
        return out


@dataclass(frozen=True)
class ActionSet:
    """Exact dense matrices of the four generators on one simple module."""

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
        self._qbinom_cache: dict[tuple[int, int], CycNum] = {}
        self._da_cache: dict[tuple[int, int], dict] = {}
        self._left_d_a_cache: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # module actions and characters

    def alpha(self, i: int, ell: int) -> CycNum:
        """The scalar [i] * (1 - q^{i-ell}) appearing in the action of d."""
        ctx = self.ctx
        return ctx.quantum_integer(i) * (ctx.one() - ctx.root_power(i - ell))

    def _alphas(self, ell: int, size: int) -> CycArray:
        """alpha_1, ..., alpha_{ell-1} on V(ell, *), then zeros up to length size."""
        return CycArray.from_list(self.ctx, [self.alpha(j, ell) for j in range(1, ell)] + [0] * (size - ell + 1))

    def action_shifts(self, label: SimpleLabel) -> tuple[WeightedShift, ...]:
        """The generators a, b, c, d on V(ell, r) as weighted shifts.

        a.v_j = v_{j+1}, d.v_{j+1} = alpha_j v_j, b.v_j = q^{r+j-1} v_j and
        c.v_j = q^{j-r-ell} v_j, for the basis v_1, ..., v_ell.
        """
        self._check_label(label)
        ell, r, ctx = label.ell, label.r % self.n, self.ctx
        a = WeightedShift(1, CycArray.from_list(ctx, [0] + [1] * (ell - 1)))  # v_1 is no image of a
        b = WeightedShift.diagonal(ctx, [r + j for j in range(ell)])
        c = WeightedShift.diagonal(ctx, [j + 1 - r - ell for j in range(ell)])
        d = WeightedShift(-1, self._alphas(ell, ell))
        return a, b, c, d

    def action_set(self, label: SimpleLabel) -> ActionSet:
        """The same generators as dense matrices (for cross-checks)."""
        a, b, c, d = (x.to_matrix() for x in self.action_shifts(label))
        return ActionSet(SimpleLabel(label.ell, label.r % self.n), a, b, c, d)

    def verify_relations(self, label: SimpleLabel) -> list[str]:
        """Names of defining relations that fail on V(ell, r) (empty = all hold).

        Each relation is an identity of weighted shifts, so an entrywise
        identity of their diagonals; the powers are carried out by
        square-and-multiply.
        """
        a, b, c, d = self.action_shifts(label)
        n, q = self.n, self.ctx.root_power(1)
        one = WeightedShift.diagonal(self.ctx, [0] * label.ell)
        zero = WeightedShift(0, CycArray.zeros(self.ctx, label.ell))
        bc = b * c
        checks = {
            "ba=q.ab": b * a == (a * b).scaled(q),
            "ca=q.ac": c * a == (a * c).scaled(q),
            "db=q.bd": d * b == (b * d).scaled(q),
            "dc=q.cd": d * c == (c * d).scaled(q),
            "bc=cb": bc == c * b,
            "da-q.ad=1-bc": d * a + bc == one + (a * d).scaled(q),  # both differences moved across
            "a^n=0": a**n == zero,
            "d^n=0": d**n == zero,
            "b^n=1": b**n == one,
            "c^n=1": c**n == one,
        }
        return [name for name, ok in checks.items() if not ok]

    def _check_label(self, label: SimpleLabel):
        if not 1 <= label.ell <= self.n:
            raise ValueError(f"label dimension must lie in 1..{self.n}, got {label.ell}")

    @cached_property
    def _gamma_table(self) -> CycArray:
        """Diagonals of d^t a^t: row (t n + ell - 1) n + j - 1 is alpha_j ... alpha_{j+t-1} on V(ell, *).

        Rows with j + t > ell are zero, since alpha_ell vanishes there.  Step t
        is one entrywise product of step t - 1 with the alphas moved up by t - 1.
        """
        n, ctx = self.n, self.ctx
        alphas = [self._alphas(ell, n) for ell in range(1, n + 1)]
        if any(a.den != 1 for a in alphas):
            raise ArithmeticError("the weights alpha_j of d must lie in Z[q]")
        steps = [CycArray.from_list(ctx, [int(j <= ell) for ell in range(1, n + 1) for j in range(1, n + 1)])]
        for t in range(1, n):
            moved = np.concatenate([_shift_rows(a.nums, 1 - t) for a in alphas])
            steps.append(steps[-1] * CycArray(ctx, moved, 1))
        bound = max(x.max_abs() for x in steps)
        return CycArray(ctx, np.concatenate([int_array(x.nums, bound) for x in steps]), 1)

    def _twist_zero_characters(self, i: int, k: int, ts, ells) -> CycArray:
        """Traces of b^i c^k d^t a^t on V(ell, 0), in row t_index * len(ells) + ell_index.

        Entry j of the diagonal of b^i c^k d^t a^t on V(ell, 0) is
        gamma_j q^{(j-1)i + (j-ell)k}, with exponents that do not depend on t,
        so the traces for every t and ell are one contraction of the gamma
        table with the matrices of multiplication by those powers.
        """
        n, ctx = self.n, self.ctx
        d = ctx.degree
        ts, ells = np.asarray(ts), np.asarray(ells)
        gamma = self._gamma_table
        rows = gamma.nums.reshape(n, n, n * d)[np.ix_(ts, ells - 1)]  # [t, ell, (j, m)]
        j = np.arange(1, n + 1)
        tables = ctx._qpow_mul[((j - 1) * i + (j - ells[:, None]) * k) % n].reshape(len(ells), n * d, d)
        bound = n * d * (int(np.abs(rows).max()) if rows.size else 0) * ctx._qpow_mul_max
        nums = int_array(rows, bound).transpose(1, 0, 2) @ int_array(tables, bound)  # [ell, t, p]
        return CycArray(ctx, nums.transpose(1, 0, 2).reshape(-1, d), gamma.den)

    def character(self, label: SimpleLabel, mono: Monomial) -> CycNum:
        """Trace of b^i c^k d^t a^t on V(ell, s): the twist-0 value times q^{s(i-k)}."""
        ell, s = label.ell, label.r
        if mono.t >= ell:
            return self.ctx.zero()
        return self._twist_zero_characters(mono.i, mono.k, [mono.t], [ell])[0].mul_qpow(s * (mono.i - mono.k))

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
        values = self._twist_zero_characters(mono.i, mono.k, [mono.t], np.arange(1, n + 1))
        return values.qpow_blocks([s * (mono.i - mono.k) for s in range(n)])

    def trace_vector_S_sum(self, i: int, k: int, coeffs) -> CycArray:
        """Simple-module trace vector of sum_t coeffs[t-1] b^i c^k d^t a^t, t = 1..len(coeffs).

        The twist factor q^{s(i-k)} does not depend on t, so the sum is taken
        over the twist-0 values, which come from one contraction for all t.
        """
        n, ctx = self.n, self.ctx
        values = self._twist_zero_characters(i, k, range(1, len(coeffs) + 1), np.arange(1, n + 1))
        weighted = values * CycArray.from_list(ctx, coeffs).qpow_blocks([0] * n)  # row t n + ell - 1
        nums = weighted.nums.reshape(len(coeffs), n, ctx.degree)
        total = int_array(nums, weighted.max_abs() * len(coeffs)).sum(axis=0)
        return CycArray(ctx, total, weighted.den).qpow_blocks([s * (i - k) for s in range(n)])

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


def coproduct_trace_terms(rep: DoubleRep, x, vlabel: SimpleLabel):
    """The terms of both sides of the trace identity M_V Tr_S(x) = sum tr_V(x_(2)) Tr_S(x_(1)).

    Returns (left, right): left holds (coeff, Tr_S(mono)) for each term coeff
    * mono of x; right holds (coeff, c, tr_V(m2), Tr_S(m1)) for each term
    c m1 (x) m2 of D(mono) whose trace on V(vlabel) is nonzero.  Accepts a
    normal-ordered exponent tuple, a Monomial (b^i c^k d^t a^t), or a
    PbwElement.
    """
    if isinstance(x, Monomial):
        elem = bckt_to_pbw(rep, x)
    elif isinstance(x, tuple):
        elem = rep.pbw_monomial(*x)
    else:
        elem = x
    left, right = [], []
    for mono, coeff in elem.terms.items():
        left.append((coeff, rep.trace_vector_S_pbw(mono)))
        for (m1, m2), c in rep.coproduct_monomial(mono).items():
            weight = rep.character_pbw(vlabel, m2)
            if weight:
                right.append((coeff, c, weight, rep.trace_vector_S_pbw(m1)))
    return left, right


def coproduct_trace_sides(rep: DoubleRep, mckay: np.ndarray, left, right):
    """Both sides of the trace identity, exactly, from the terms of `coproduct_trace_terms`.

    The left side multiplies the simple trace vector of x by mckay, the
    integer McKay array of V; the right side weighs each Tr_S(x_(1)) by the
    trace of x_(2) on V.
    """
    tr_x = rhs = CycArray.zeros(rep.ctx, rep.n * rep.n)
    for coeff, tv in left:
        tr_x = tr_x + tv.scaled(coeff)
    for coeff, c, weight, tv in right:
        rhs = rhs + tv.scaled(coeff * c * weight)
    return tr_x.left_mul(mckay), rhs


def coproduct_trace_identity(rep: DoubleRep, mckay: np.ndarray, x, vlabel: SimpleLabel):
    """Both sides of M_V Tr_S(x) = sum tr_V(x_(2)) Tr_S(x_(1)) for V = V(vlabel), exactly."""
    return coproduct_trace_sides(rep, mckay, *coproduct_trace_terms(rep, x, vlabel))


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
