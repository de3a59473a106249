"""The Drinfeld double of the Taft algebra and its simple modules.

The algebra is generated by a, b, c, d subject to

    ba = q ab,   db = q bd,   ca = q ac,   dc = q cd,
    bc = cb,     da - q ad = 1 - bc,
    a^n = 0 = d^n,   b^n = 1 = c^n,

with coproduct D(a) = a (x) b + 1 (x) a, D(d) = d (x) c + 1 (x) d and b, c
grouplike.  Elements are kept in the normal-ordered basis a^al b^be c^ga d^de
(exponents of a and d below n, exponents of b and c mod n).

An element of the double (`PbwElement`) or of its tensor square
(`TensorElement`) is a pair of arrays: sorted, distinct int64 codes, one per
term, and a `CycArray` of the nonzero coefficients.  a^al b^be c^ga d^de has
code ((al n + be) n + ga) n + de, and m1 (x) m2 has code(m1) n^4 + code(m2).
A sum concatenates the terms and adds the coefficients of equal codes (one
sort and one segment sum), so equality is `array_equal` on the codes and on
the numerators.  A product gathers the normal-ordered expansion of d^m a^l
from a ragged table built once per n, and each coefficient of a coproduct
is a product of two Gaussian binomials gathered from another.  An element
may carry an int64 key beside each code, which makes it a family of
elements told apart by key: every operation acts key by key, so one keyed
element takes a whole sample through an identity at once.

On a simple module V(ell, r), 1 <= ell <= n, r in Z_n, every generator
acts as a weighted shift: a raises the basis index by one, d lowers it with
the weights alpha_j, and b and c act diagonally by powers of q.  Every
module of one dimension ell has the same shape, the same a and the same
weights of d; only the powers of q in b and c depend on r.  So the
generators of all n^2 modules are built once per n as four stacks per
dimension (`WeightedShift`, whose leading axis is the label r), and the
action on one module (`action_shifts`) is a stack of one sliced from them.
`DoubleRep.verify_relations` certifies the defining relations on these
stacks for every given label in one call: a product of two shifts is an
offset and one entrywise product of their diagonals, within each label, so
every relation is an entrywise identity of `CycArray`s, label by label.
The characters of b^i c^k d^t a^t are sums along the diagonal of d^t a^t,
whose entries are products of consecutive alphas (the gamma table, built
once per n by entrywise products).  The diagonal entry j of b^i c^k d^t a^t
on V(ell, s) is gamma_j q^{(j-1)(i+k) + (1-ell)k + s(i-k)}, so one shift
of that table by the powers q^{(j-1)u}, summed over j, for every u = i + k
at once, gives a trace table from which every trace vector downstream is
gathered and twisted by powers of q (`CycArray.qpow`, like every shift).
The dense matrices (`action_set`, `character_matrix_route`) are kept as
independent cross-checks for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .cyclotomic import CyclotomicContext, CycArray, CycNum, int_combination, make_context, segment_sum
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
    """Row i of each block of the (blocks, size, phi) array nums moved to row i + offset of its block.

    Rows moved past either end of their block are dropped, and rows that no
    row moves into are zero, so nothing crosses from one block to the next.
    """
    out = np.zeros_like(nums)
    size = nums.shape[1]
    if offset >= 0:
        out[:, offset:] = nums[:, :max(size - offset, 0)]
    else:
        out[:, :max(size + offset, 0)] = nums[:, -offset:]
    return out


class WeightedShift:
    """A stack of operators, one per label, on modules of one dimension `size`.

    Label k sends basis vector i - offset to diag[k size + i] times vector i:
    its matrix has entry (i, i - offset) = diag[k size + i] and no other.
    Entries whose source i - offset lies outside the module are zero, so a
    product whose offset reaches the dimension has no entry left.  Rows move
    only within their label, and a single module is a stack of one.
    """

    __slots__ = ("offset", "size", "diag")

    def __init__(self, offset: int, size: int, diag: CycArray):
        self.offset = offset
        self.size = size
        self.diag = diag

    @staticmethod
    def diagonal(ctx: CyclotomicContext, exps) -> "WeightedShift":
        """The diagonal operators with entries q^e: row k of the integer array exps is label k."""
        exps = np.asarray(exps, dtype=np.int64)
        return WeightedShift(0, exps.shape[1], CycArray.from_list(ctx, [1]).qpow([exps.ravel()]))

    def __mul__(self, other: "WeightedShift") -> "WeightedShift":
        """The matrix products, label by label: offsets add, and entry i is diag[i] times other.diag[i - offset]."""
        offset, d = self.offset + other.offset, other.diag.ctx.degree
        if abs(offset) >= self.size:  # no source lies in the module: no entry is left
            return WeightedShift(offset, self.size, CycArray.zeros(self.diag.ctx, len(self.diag)))
        moved = _shift_rows(other.diag.nums.reshape(-1, self.size, d), self.offset).reshape(-1, d)
        return WeightedShift(offset, self.size, self.diag * CycArray(other.diag.ctx, moved, other.diag.den))

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
        return WeightedShift(self.offset, self.size, self.diag + other.diag)

    def scaled(self, c: CycNum) -> "WeightedShift":
        return WeightedShift(self.offset, self.size, self.diag.scaled(c))

    def take(self, labels) -> "WeightedShift":
        """The operators of the labels at the given positions of the stack, in that order."""
        rows = np.asarray(labels, dtype=np.int64)[:, None] * self.size + np.arange(self.size)
        return WeightedShift(self.offset, self.size, self.diag.take(rows.ravel()))

    def differs(self, other: "WeightedShift") -> np.ndarray:
        """Per label, whether the two matrices differ: in the diagonal at equal offsets, else by an entry on either side."""
        if self.offset == other.offset:
            diff = int_combination([(other.diag.den, self.diag.nums), (-self.diag.den, other.diag.nums)])
        else:
            diff = np.concatenate([self.diag.nums, other.diag.nums], axis=1)
        return diff.reshape(len(diff) // self.size, -1).astype(bool).any(axis=1)

    def _rows(self) -> range:
        """The rows i whose source i - offset lies in the module."""
        return range(max(0, self.offset), min(self.size, self.size + self.offset))

    def _single(self):
        """Raise unless the stack holds exactly one label."""
        if len(self.diag) != self.size:
            raise ValueError("a dense matrix is the operator of a single label")

    def to_matrix(self) -> RingMatrix:
        """The operator of a stack of one, as a dense matrix."""
        self._single()
        ctx = self.diag.ctx
        mat = RingMatrix.zeros(self.size, self.size, ctx.zero())
        entries = self.diag.to_list()
        for i in self._rows():
            mat.rows[i][i - self.offset] = entries[i]
        return mat

    def embed(self) -> np.ndarray:
        """The operator of a stack of one under q -> exp(2 pi i / n), as a dense complex array."""
        self._single()
        rows = np.arange(self.size)[self._rows()]
        out = np.zeros((self.size, self.size), dtype=complex)
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

    # ------------------------------------------------------------------
    # module actions and characters

    def alpha(self, i: int, ell: int) -> CycNum:
        """The scalar [i] * (1 - q^{i-ell}) appearing in the action of d."""
        ctx = self.ctx
        return ctx.quantum_integer(i) * (ctx.one() - ctx.root_power(i - ell))

    @cached_property
    def _alpha_table(self) -> CycArray:
        """Row (ell - 1) n + j - 1 is alpha_j on V(ell, *), for j = 1..n: zero from j = ell on."""
        n = self.n
        return CycArray.from_list(
            self.ctx, [self.alpha(j, ell) if j < ell else 0 for ell in range(1, n + 1) for j in range(1, n + 1)]
        )

    def _action_stack(self, ell: int) -> tuple[WeightedShift, ...]:
        """The generators a, b, c, d on V(ell, r) for every r, as stacks of weighted shifts in which label r is V(ell, r).

        a.v_j = v_{j+1}, d.v_{j+1} = alpha_j v_j, b.v_j = q^{r+j-1} v_j and
        c.v_j = q^{j-r-ell} v_j, for the basis v_1, ..., v_ell.  Every twist
        has the same a and d; b and c differ only in their powers of q.
        """
        n, ctx = self.n, self.ctx
        j, r = np.arange(ell), np.arange(n)[:, None]
        a = np.zeros((n, ell, ctx.degree), dtype=np.int64)
        a[:, 1:, 0] = 1  # v_1 is no image of a
        alphas = self._alpha_table.take(slice((ell - 1) * n, (ell - 1) * n + ell))
        return (
            WeightedShift(1, ell, CycArray(ctx, a.reshape(-1, ctx.degree), 1)),
            WeightedShift.diagonal(ctx, r + j),
            WeightedShift.diagonal(ctx, j + 1 - r - ell),
            WeightedShift(-1, ell, CycArray(ctx, np.tile(alphas.nums, (n, 1)), alphas.den)),
        )

    @cached_property
    def _action_stacks(self) -> list[tuple[WeightedShift, ...]]:
        """`_action_stack(ell)` for ell = 1..n, built once: the one source of the module actions."""
        return [self._action_stack(ell) for ell in range(1, self.n + 1)]

    def action_shifts(self, label: SimpleLabel) -> tuple[WeightedShift, ...]:
        """The generators a, b, c, d on V(ell, r): label r of the stacks of dimension ell."""
        self._check_label(label)
        return tuple(x.take([label.r % self.n]) for x in self._action_stacks[label.ell - 1])

    def action_set(self, label: SimpleLabel) -> ActionSet:
        """The same generators as dense matrices (for cross-checks)."""
        a, b, c, d = (x.to_matrix() for x in self.action_shifts(label))
        return ActionSet(SimpleLabel(label.ell, label.r % self.n), a, b, c, d)

    def verify_relations(self, labels) -> list[tuple[SimpleLabel, str]]:
        """The (label, relation) pairs of the defining relations that fail on the given modules (empty = all hold).

        The modules of one dimension are certified together, on the stacks of
        `_action_stack`: each relation is an identity of weighted shifts, so
        an entrywise identity of their diagonals, label by label.  The powers
        are carried out by square-and-multiply.  Pairs come in the order of
        `labels`, and of the relations within a label.
        """
        n, ctx, q = self.n, self.ctx, self.ctx.root_power(1)
        labels = [SimpleLabel(lab.ell, lab.r % n) for lab in labels]
        for lab in labels:
            self._check_label(lab)
        failing = {}
        for ell in sorted({lab.ell for lab in labels}):
            rs = [lab.r for lab in labels if lab.ell == ell]
            a, b, c, d = (x.take(rs) for x in self._action_stacks[ell - 1])
            one = WeightedShift.diagonal(ctx, np.zeros((len(rs), ell)))
            zero = WeightedShift(0, ell, CycArray.zeros(ctx, len(rs) * ell))
            bc = b * c
            checks = {
                "ba=q.ab": (b * a).differs((a * b).scaled(q)),
                "ca=q.ac": (c * a).differs((a * c).scaled(q)),
                "db=q.bd": (d * b).differs((b * d).scaled(q)),
                "dc=q.cd": (d * c).differs((c * d).scaled(q)),
                "bc=cb": bc.differs(c * b),
                "da-q.ad=1-bc": (d * a + bc).differs(one + (a * d).scaled(q)),  # both differences moved across
                "a^n=0": (a**n).differs(zero),
                "d^n=0": (d**n).differs(zero),
                "b^n=1": (b**n).differs(one),
                "c^n=1": (c**n).differs(one),
            }
            for pos, r in enumerate(rs):
                failing[SimpleLabel(ell, r)] = [name for name, bad in checks.items() if bad[pos]]
        return [(lab, name) for lab in labels for name in failing[lab]]

    def _check_label(self, label: SimpleLabel):
        if not 1 <= label.ell <= self.n:
            raise ValueError(f"label dimension must lie in 1..{self.n}, got {label.ell}")

    @cached_property
    def _gamma_table(self) -> CycArray:
        """Diagonals of d^t a^t: row (t n + ell - 1) n + j - 1 is alpha_j ... alpha_{j+t-1} on V(ell, *).

        Rows with j + t > ell are zero, since alpha_ell vanishes there.  Step t
        is one entrywise product of step t - 1 with the alphas moved up by t - 1.
        """
        n, ctx, alphas = self.n, self.ctx, self._alpha_table
        if alphas.den != 1:
            raise ArithmeticError("the weights alpha_j of d must lie in Z[q]")
        steps = [CycArray.from_list(ctx, [int(j <= ell) for ell in range(1, n + 1) for j in range(1, n + 1)])]
        for t in range(1, n):
            moved = _shift_rows(alphas.nums.reshape(n, n, -1), 1 - t).reshape(-1, ctx.degree)
            steps.append(steps[-1] * CycArray(ctx, moved, 1))
        return CycArray.concat(ctx, steps)

    @cached_property
    def _trace_table(self) -> CycArray:
        """Row (t n + ell - 1) n + u is sum_j gamma_j q^{(j-1)u}, for the diagonal gamma of d^t a^t on V(ell, *) (`_gamma_table`).

        One `qpow` call for every u at once: row j of each diagonal shifted by
        (j-1)u and summed over j before the fold.  The trace of b^i c^k d^t a^t
        on V(ell, s) is row (t, ell, i + k mod n) times q^{(1-ell)k + s(i-k)}
        (`_twisted`).
        """
        n = self.n
        return self._gamma_table.qpow(np.tile(np.outer(np.arange(n), np.arange(n)), (n * n, 1)), group=n)

    def _twisted(self, values: CycArray, i: np.ndarray, k: np.ndarray) -> CycArray:
        """Trace vectors from rows of the trace table, by one `qpow` call: entry (ell, s) of vector m is row m n + ell - 1 of values times q^{(1-ell)k_m + s(i_m - k_m)}."""
        ell, s = np.ix_(range(self.n), range(self.n))
        return values.qpow((-ell * k[:, None, None] + s * (i - k)[:, None, None]).reshape(-1, self.n))

    def trace_vectors_S_at(self, i, k, t) -> CycArray:
        """Simple-module trace vectors of b^i c^k d^t a^t for the pairs of arrays i, k and t, one after another (n^2 entries each)."""
        n = self.n
        i, k, t = (np.asarray(x, dtype=np.int64) for x in (i, k, t))
        rows = (t[:, None] * n + np.arange(n)) * n + ((i + k) % n)[:, None]  # [m, ell]
        return self._twisted(self._trace_table.take(rows.ravel()), i, k)

    def trace_vectors_S_sum(self, i, k, coeffs: CycArray) -> CycArray:
        """Simple-module trace vectors of sum_t coeffs[m T + t - 1] b^i c^k d^t a^t, t = 1..T, for the pairs (i[m], k[m]), one after another.

        T = len(coeffs) / len(i).  The twist does not depend on t, so the sum
        is taken over rows of the trace table, one entrywise product for all.
        """
        n, d = self.n, self.ctx.degree
        i, k = np.asarray(i, dtype=np.int64), np.asarray(k, dtype=np.int64)
        m, T = len(i), len(coeffs) // len(i)
        rows = (np.arange(1, T + 1)[:, None] * n + np.arange(n)) * n + ((i + k) % n)[:, None, None]  # [m, t, ell]
        values = self._trace_table.take(rows.ravel()) * coeffs.take(np.repeat(np.arange(m * T), n))
        sums = segment_sum(values.nums.reshape(m, T, n, d).transpose(1, 0, 2, 3))
        return self._twisted(CycArray(self.ctx, sums.reshape(-1, d), values.den), i, k)

    def character(self, label: SimpleLabel, mono: Monomial) -> CycNum:
        """Trace of b^i c^k d^t a^t on V(ell, s)."""
        if mono.t >= label.ell:
            return self.ctx.zero()
        return self.characters_pbw(label, [self.pbw_code((mono.t, mono.i, mono.k, mono.t))])[0]

    def characters_pbw(self, label: SimpleLabel, codes) -> CycArray:
        """Traces of the normal-ordered monomials `codes` on V(ell, s), one entry each.

        a^t b^i c^k d^t has the trace of b^i c^k d^t a^t, row (t, ell, i + k)
        of the trace table times q^{(1-ell)k + s(i-k)}; a monomial with
        unequal powers of a and d moves every basis vector, and has trace zero.
        """
        self._check_label(label)
        n, ell, s = self.n, label.ell, label.r
        al, be, ga, de = _decode(n, np.asarray(codes, dtype=np.int64))
        values = self._trace_table.take((al * n + ell - 1) * n + (be + ga) % n).qpow((1 - ell) * ga + s * (be - ga))
        return CycArray(self.ctx, values.nums * (al == de)[:, None], values.den)

    def character_matrix_route(self, label: SimpleLabel, mono: Monomial) -> CycNum:
        """Same trace, by literal matrix products (cross-check path, small sizes only)."""
        acts = self.action_set(label)
        m = acts.mat_b ** (mono.i % self.n)
        m = m * acts.mat_c ** (mono.k % self.n)
        m = m * acts.mat_d**mono.t
        m = m * acts.mat_a**mono.t
        return m.trace()

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
        """Simple-module trace vector of b^i c^k d^t a^t, in lexicographic label order."""
        return self.trace_vectors_S_at([mono.i], [mono.k], [mono.t])

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
        return CycArray.from_list(ctx, values).qpow([[2 * r * i for r in range(n)]])

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

    @cached_property
    def _qbinomials(self) -> CycArray:
        """Row _tri(m, j) is the Gaussian binomial [m j]_q, for j <= m < n, from `quantum_binomial`.

        Every coefficient of a coproduct is a product of two of them; a batch
        multiplies each distinct pair it needs once, in one entrywise product.
        """
        n = self.n
        return CycArray.from_list(self.ctx, [self.quantum_binomial(m, j) for m in range(n) for j in range(m + 1)])

    def pbw_code(self, mono) -> int:
        """The code ((al n + be) n + ga) n + de of the monomial a^al b^be c^ga d^de."""
        al, be, ga, de = mono
        return int(_encode(self.n, al, be % self.n, ga % self.n, de))

    def pbw_monomial(self, al=0, be=0, ga=0, de=0, coeff=1) -> "PbwElement":
        n = self.n
        if al >= n or de >= n:
            return PbwElement(self, np.zeros(0, dtype=np.int64), CycArray.zeros(self.ctx, 0))
        return PbwElement(self, np.array([self.pbw_code((al, be, ga, de))]), CycArray.from_list(self.ctx, [coeff]))

    def pbw_generator(self, name: str) -> "PbwElement":
        return self.pbw_monomial(**{{"a": "al", "b": "be", "c": "ga", "d": "de"}[name]: 1})

    @cached_property
    def _da_table(self) -> tuple[np.ndarray, np.ndarray, CycArray]:
        """Normal-ordered expansions of d^m a^l for m, l < n, as a ragged table (starts, codes, coeffs).

        The terms of d^m a^l are rows starts[m n + l] to starts[m n + l + 1] - 1,
        each a^aa (bc)^j d^dd with b and c to the same power.  Level m comes
        from level m - 1 by one more d on the left, through

            d a^aa = q^aa a^aa d + [aa] a^(aa-1) (1 - q^(aa-1) bc),   d (bc)^j = q^(2j) (bc)^j d,

        so each term gives at most three, and terms with equal codes are summed.
        """
        n, ctx = self.n, self.ctx
        big = n**4
        # a level holds the terms of d^m a^l for every l, keyed l n^4 + code
        ls = np.arange(n, dtype=np.int64)
        level = (ls * big + _encode(n, ls, 0, 0, 0), CycArray.from_list(ctx, [1] * n))  # d^0 a^l = a^l
        levels = [level]
        qints = CycArray.from_list(ctx, [ctx.quantum_integer(m) for m in range(n)])
        for _ in range(1, n):
            keys, coeffs = level
            l, codes = np.divmod(keys, big)
            aa, j, _, dd = _decode(n, codes)
            up, low = dd + 1 < n, aa > 0
            shifted = coeffs.take(up).qpow((aa + 2 * j)[up])
            lowered = coeffs.take(low) * qints.take(aa[low])
            paired = lowered.qpow((aa - 1)[low])
            keys = np.concatenate([
                keys[up] + 1,
                keys[low] - n**3,
                l[low] * big + _encode(n, aa[low] - 1, (j[low] + 1) % n, (j[low] + 1) % n, dd[low]),
            ])
            level = _collect(keys, CycArray.concat(ctx, [shifted, lowered, -paired]))
            levels.append(level)
        rows = np.concatenate([m * n + keys // big for m, (keys, _) in enumerate(levels)])
        codes = np.concatenate([keys % big for keys, _ in levels])
        starts = np.searchsorted(rows, np.arange(n * n + 1))
        return starts, codes, CycArray.concat(ctx, [c for _, c in levels])

    def _mono_mul(self, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, CycArray]:
        """The products left[p] * right[p] of normal-ordered monomials (codes), as (p of each term, codes, coeffs).

        In a^a1 b^b1 c^c1 d^d1 a^a2 b^b2 c^c2 d^d2 the middle d^d1 a^a2 is a
        gather from the ragged table, and each of its terms a^aa (bc)^j d^dd
        moves into place by b^b1 c^c1 a^aa = q^{aa(b1+c1)} a^aa b^b1 c^c1 and
        d^dd b^b2 c^c2 = q^{dd(b2+c2)} b^b2 c^c2 d^dd.  Terms with a power of a
        or d of n or more vanish.
        """
        n = self.n
        starts, table_codes, table_coeffs = self._da_table
        a1, b1, c1, d1 = _decode(n, left)
        a2, b2, c2, d2 = _decode(n, right)
        entry = d1 * n + a2
        src, off = _ragged(starts[entry + 1] - starts[entry])
        rows = starts[entry][src] + off
        aa, j, _, dd = _decode(n, table_codes[rows])
        al, de = a1[src] + aa, dd + d2[src]
        keep = (al < n) & (de < n)
        src, rows, aa, j, dd, al, de = (v[keep] for v in (src, rows, aa, j, dd, al, de))
        codes = _encode(n, al, (b1[src] + j + b2[src]) % n, (c1[src] + j + c2[src]) % n, de)
        return src, codes, table_coeffs.take(rows).qpow(aa * (b1 + c1)[src] + dd * (b2 + c2)[src])

    def coproduct_monomial(self, codes) -> tuple[np.ndarray, np.ndarray, CycArray]:
        """Coproducts of a batch of normal-ordered monomials (codes), as (monomial of each term, pair codes, coeffs).

        D(a) = X + Y with X = a (x) b, Y = 1 (x) a and XY = q YX, and
        D(d) = Z + W with Z = d (x) c, W = 1 (x) d and WZ = q ZW.  The
        Gaussian binomial theorem, (x + y)^m = sum_k [m k]_q x^k y^{m-k}
        whenever yx = q xy, expands both powers into normal-ordered terms:

            D(a^al b^be c^ga d^de) = sum over j <= al, k <= de of
                [al j]_q [de k]_q  a^{al-j} b^be c^ga d^k
                                   (x) a^j b^{be+al-j} c^{ga+k} d^{de-k}

        (exponents of b and c mod n).  Term t belongs to codes[src[t]], its
        pair code is code(m1) n^4 + code(m2), and its coefficient is the
        product of two rows of the table of binomials.  This is not an
        algebra map by construction: hopf-axioms certifies multiplicativity
        on a sample, and the tests compare it with D(a)^al D(b)^be D(c)^ga
        D(d)^de multiplied out.
        """
        n = self.n
        al, be, ga, de = _decode(n, np.asarray(codes, dtype=np.int64))
        src, off = _ragged((al + 1) * (de + 1))
        al, be, ga, de = al[src], be[src], ga[src], de[src]
        j, k = np.divmod(off, de + 1)
        pairs = _encode(n, al - j, be, ga, k) * n**4 + _encode(n, j, (be + al - j) % n, (ga + k) % n, de - k)
        # each distinct pair of binomials is multiplied once, and the products gathered
        binomials = self._qbinomials
        rows = _tri(al, j) * len(binomials) + _tri(de, k)
        distinct = _distinct(np.sort(rows))
        products = binomials.take(distinct // len(binomials)) * binomials.take(distinct % len(binomials))
        return src, pairs, products.take(np.searchsorted(distinct, rows))

    def trace_vectors_S(self, codes) -> CycArray:
        """Simple-module trace vectors of normal-ordered monomials, n^2 rows each, stacked.

        a^t b^i c^k d^t has the trace of b^i c^k d^t a^t (traces are cyclic),
        and a monomial with unequal powers of a and d has trace zero.
        """
        al, be, ga, de = _decode(self.n, np.asarray(codes, dtype=np.int64))
        keep = al == de
        vecs = self.trace_vectors_S_at(be[keep], ga[keep], al[keep])
        nums = np.zeros((len(al), self.n**2, self.ctx.degree), dtype=vecs.nums.dtype)
        nums[keep] = vecs.nums.reshape(-1, self.n**2, self.ctx.degree)
        return CycArray(self.ctx, nums.reshape(-1, self.ctx.degree), vecs.den)


def _encode(n: int, al, be, ga, de):
    return ((al * n + be) * n + ga) * n + de


def _decode(n: int, codes: np.ndarray):
    """The exponents (al, be, ga, de) of the monomial codes."""
    rest, de = np.divmod(codes, n)
    rest, ga = np.divmod(rest, n)
    al, be = np.divmod(rest, n)
    return al, be, ga, de


def _tri(m, j):
    """Position of (m, j), j <= m, in the rows of the lower triangle read row by row."""
    return m * (m + 1) // 2 + j


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, off) for a ragged gather: entry t belongs to group src[t] and is its off[t]-th member."""
    src = np.repeat(np.arange(len(counts)), counts)
    return src, np.arange(len(src)) - (np.cumsum(counts) - counts)[src]


def _collect(codes: np.ndarray, coeffs: CycArray) -> tuple[np.ndarray, CycArray]:
    """Sorted distinct codes with the summed coefficients of each, zero sums dropped (`_collect_keyed` under one key)."""
    _keys, codes, coeffs = _collect_keyed(np.zeros_like(codes), codes, coeffs)
    return codes, coeffs


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (without `np.unique`, whose first call imports `numpy.ma`)."""
    return keys[np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))]


def _collect_keyed(keys: np.ndarray, codes: np.ndarray, coeffs: CycArray) -> tuple[np.ndarray, np.ndarray, CycArray]:
    """Sorted distinct (key, code) pairs with the summed coefficients of each, zero sums dropped.

    One `np.lexsort` and one `segment_sum`, which picks int64 or Python ints
    from the longest run and the largest numerator.  The key is sorted on
    beside the code rather than packed into it, so it costs the codes no
    range.
    """
    if not len(codes):
        return keys, codes, coeffs
    order = np.lexsort((codes, keys))
    keys, codes = keys[order], codes[order]
    starts = np.flatnonzero(np.concatenate(([True], (codes[1:] != codes[:-1]) | (keys[1:] != keys[:-1]))))
    nums = segment_sum(coeffs.nums[order], starts)
    keep = nums.astype(bool).any(axis=1)
    return keys[starts[keep]], codes[starts[keep]], CycArray(coeffs.ctx, nums[keep], coeffs.den)


@lru_cache(maxsize=None)
def double_rep(n: int) -> DoubleRep:
    return DoubleRep(make_context(n))


def bckt_to_pbw(rep: DoubleRep, mono: Monomial) -> "PbwElement":
    """The element b^i c^k d^t a^t rewritten into the normal-ordered basis."""
    left, right = rep.pbw_code((0, mono.i, mono.k, mono.t)), rep.pbw_code((mono.t, 0, 0, 0))
    _src, codes, coeffs = rep._mono_mul(np.array([left]), np.array([right]))
    return PbwElement(rep, codes, coeffs)


def coproduct_trace_terms(rep: DoubleRep, x, vlabel: SimpleLabel):
    """The terms of both sides of the trace identity M_V Tr_S(x) = sum tr_V(x_(2)) Tr_S(x_(1)).

    Returns (left, right) as arrays.  left = (coeffs, vectors): the
    coefficient of each term of x whose trace vector can be nonzero, and
    those trace vectors Tr_S(mono), n^2 rows each.  right = (coeffs, weights,
    vectors): for each term c m1 (x) m2 of D(x) with tr_V(m2) != 0 and Tr_S(m1)
    possibly nonzero, c, tr_V(m2) and Tr_S(m1).  Accepts a normal-ordered
    exponent tuple, a Monomial (b^i c^k d^t a^t), or a PbwElement.
    """
    if isinstance(x, Monomial):
        elem = bckt_to_pbw(rep, x)
    elif isinstance(x, tuple):
        elem = rep.pbw_monomial(*x)
    else:
        elem = x
    n = rep.n
    al, _, _, de = _decode(n, elem.codes)
    diagonal = al == de
    left = (elem.coeffs.take(diagonal), rep.trace_vectors_S(elem.codes[diagonal]))
    delta = elem.coproduct()
    first, second = delta.legs()
    weights = rep.characters_pbw(vlabel, second)
    al, _, _, de = _decode(n, first)
    keep = weights.nums.astype(bool).any(axis=1) & (al == de)
    right = (delta.coeffs.take(keep), weights.take(keep), rep.trace_vectors_S(first[keep]))
    return left, right


def coproduct_trace_sides(rep: DoubleRep, mckay: np.ndarray, left, right):
    """Both sides of the trace identity, exactly, from the terms of `coproduct_trace_terms`.

    The left side multiplies the simple trace vector of x by mckay, the
    integer McKay array of V; the right side weighs each Tr_S(x_(1)) by the
    trace of x_(2) on V.
    """
    size = rep.n * rep.n
    (coeffs, vectors), (rcoeffs, weights, rvectors) = left, right
    tr_x = (coeffs.take(np.repeat(np.arange(len(coeffs)), size)) * vectors).block_sum(size)
    terms = (rcoeffs * weights).take(np.repeat(np.arange(len(rcoeffs)), size)) * rvectors
    return tr_x.left_mul(mckay), terms.block_sum(size)


def coproduct_trace_identity(rep: DoubleRep, mckay: np.ndarray, x, vlabel: SimpleLabel):
    """Both sides of M_V Tr_S(x) = sum tr_V(x_(2)) Tr_S(x_(1)) for V = V(vlabel), exactly."""
    return coproduct_trace_sides(rep, mckay, *coproduct_trace_terms(rep, x, vlabel))


def _pairs(x: "_Combination", y: "_Combination") -> tuple[np.ndarray, np.ndarray]:
    """(i, j) over the pairs of terms of x and y under equal keys, i major (every pair when neither has keys)."""
    lo = np.searchsorted(y.keys, x.keys, "left")
    i, off = _ragged(np.searchsorted(y.keys, x.keys, "right") - lo)
    return i, lo[i] + off


class _Combination:
    """A finite sum of basis elements with coefficients in Q(q), or a family of them told apart by integer keys.

    The terms are sorted distinct (key, code) pairs, int64 each, with a
    CycArray of coefficients; an element built without keys has key 0 on
    every term.  Every coefficient is nonzero, so two equal elements have
    equal key and code arrays, and equality is `array_equal` on them and on
    the cross-multiplied numerators.  Sums, products, coproducts and counits
    act key by key: a product meets only terms under equal keys, so one
    keyed element carries a whole sample through each identity at once.
    """

    __slots__ = ("rep", "keys", "codes", "coeffs")

    def __init__(self, rep: DoubleRep, codes, coeffs: CycArray, keys=None):
        self.rep = rep
        codes = np.asarray(codes, dtype=np.int64)
        keys = np.zeros_like(codes) if keys is None else np.asarray(keys, dtype=np.int64)
        self.keys, self.codes, self.coeffs = _collect_keyed(keys, codes, coeffs)

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        same_terms = np.array_equal(self.keys, other.keys) and np.array_equal(self.codes, other.codes)
        return same_terms and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        return type(self)(
            self.rep, np.concatenate([self.codes, other.codes]),
            CycArray.concat(self.rep.ctx, [self.coeffs, other.coeffs]), np.concatenate([self.keys, other.keys]),
        )

    def __neg__(self):
        return type(self)(self.rep, self.codes, -self.coeffs, self.keys)

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self) -> bool:
        return not len(self.codes)

    def mismatched_keys(self, other) -> np.ndarray:
        """The sorted keys under which self and other differ: those left in self - other."""
        return _distinct((self - other).keys)

    @property
    def terms(self) -> dict:
        """The element as {basis element: CycNum}, a view built from the arrays (of an element without keys)."""
        return {self._basis(code): c for code, c in zip(self.codes.tolist(), self.coeffs.to_list())}


class PbwElement(_Combination):
    """An element of the double in the normal-ordered basis (or a keyed family of them), one term per monomial code."""

    __slots__ = ()

    def _basis(self, code: int) -> tuple:
        return tuple(int(e) for e in _decode(self.rep.n, code))

    def __mul__(self, other):
        rep = self.rep
        if isinstance(other, (int, Fraction, CycNum)):
            scalar = other if isinstance(other, CycNum) else rep.ctx.from_rational(other)
            return PbwElement(rep, self.codes, self.coeffs.scaled(scalar), self.keys)
        i, j = _pairs(self, other)
        src, codes, coeffs = rep._mono_mul(self.codes[i], other.codes[j])
        weights = self.coeffs.take(i) * other.coeffs.take(j)
        return PbwElement(rep, codes, coeffs * weights.take(src), self.keys[i][src])

    def coproduct(self) -> "TensorElement":
        src, pairs, coeffs = self.rep.coproduct_monomial(self.codes)
        return TensorElement(self.rep, pairs, coeffs * self.coeffs.take(src), self.keys[src])

    def counit(self) -> CycNum:
        """The sum of the coefficients of the monomials without a and d (b and c are grouplike)."""
        al, _, _, de = _decode(self.rep.n, self.codes)
        return self.coeffs.take((al == 0) & (de == 0)).block_sum(1)[0]

    def __repr__(self):
        if self.is_zero():
            return "PbwElement(0)"
        bits = []
        for (al, be, ga, de), coeff in self.terms.items():
            mono = "".join(
                s for s, e in (("a^%d" % al, al), ("b^%d" % be, be), ("c^%d" % ga, ga), ("d^%d" % de, de)) if e
            )
            bits.append(f"({coeff})*{mono or '1'}")
        return "PbwElement(" + " + ".join(bits) + ")"


class TensorElement(_Combination):
    """An element of the tensor square (or a keyed family of them), one term per pair code code(m1) n^4 + code(m2)."""

    __slots__ = ()

    def _basis(self, code: int) -> tuple:
        first, second = divmod(code, self.rep.n**4)
        return tuple(tuple(int(e) for e in _decode(self.rep.n, c)) for c in (first, second))

    def legs(self) -> tuple[np.ndarray, np.ndarray]:
        """The monomial codes of the first and second tensor legs of every term."""
        return np.divmod(self.codes, self.rep.n**4)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Legwise products: every left-leg term of x1 y1 meets every right-leg term of x2 y2."""
        rep = self.rep
        (x1, x2), (y1, y2) = self.legs(), other.legs()
        i, j = _pairs(self, other)
        src1, codes1, coeffs1 = rep._mono_mul(x1[i], y1[j])
        src2, codes2, coeffs2 = rep._mono_mul(x2[i], y2[j])
        weights = self.coeffs.take(i) * other.coeffs.take(j)
        coeffs1 = coeffs1 * weights.take(src1)
        counts = np.bincount(src2, minlength=len(i))
        t1, off = _ragged(counts[src1])
        t2 = (np.cumsum(counts) - counts)[src1[t1]] + off
        return TensorElement(
            rep, codes1[t1] * rep.n**4 + codes2[t2], coeffs1.take(t1) * coeffs2.take(t2), self.keys[i][src1[t1]]
        )

    def counit_legs(self) -> tuple[PbwElement, PbwElement]:
        """(eps (x) id) and (id (x) eps) of this element: eps(a^al b^be c^ga d^de) is 1 when al = de = 0, else 0."""
        first, second = self.legs()

        def apply_counit(leg, other):
            al, _, _, de = _decode(self.rep.n, leg)
            unit = (al == 0) & (de == 0)
            return PbwElement(self.rep, other[unit], self.coeffs.take(unit), self.keys[unit])

        return apply_counit(first, second), apply_counit(second, first)

    def noncoassociative_keys(self) -> np.ndarray:
        """The sorted keys under which (D (x) id) and (id (x) D) of this element differ.

        Both sides are coded over three legs, code(m1) n^8 + code(m2) n^4 +
        code(m3), each term under the key of the term it comes from; the
        right-hand side is negated, and a key keeps a term of the collected
        concatenation exactly where the two sides differ under it.
        """
        n, big = self.rep.n, self.rep.n**4
        if n**12 >= 1 << 63:
            raise OverflowError(f"three-leg codes at n = {n} do not fit in int64")
        first, second = self.legs()
        src, pairs, coeffs = self.rep.coproduct_monomial(first)
        lhs = (pairs * big + second[src], coeffs * self.coeffs.take(src), self.keys[src])
        src, pairs, coeffs = self.rep.coproduct_monomial(second)
        rhs = (first[src] * big * big + pairs, coeffs * self.coeffs.take(src), self.keys[src])
        keys, _codes, _coeffs = _collect_keyed(
            np.concatenate([lhs[2], rhs[2]]), np.concatenate([lhs[0], rhs[0]]),
            CycArray.concat(self.rep.ctx, [lhs[1], -rhs[1]]),
        )
        return _distinct(keys)
