"""Exact arithmetic in the cyclotomic field Q(q), q a primitive n-th root of unity.

An element is stored as an integer numerator vector of length phi(n) over
the power basis 1, q, ..., q^{phi(n)-1} together with one positive common
denominator, always reduced modulo the n-th cyclotomic polynomial and
normalized (the gcd of all numerators and the denominator is 1), so
equality is component-wise.  Everything is exact; floating point enters
only through the complex embedding, which serves as an independent
numeric oracle.

Vectors over Q(q) are `CycArray`s: an (N, phi(n)) integer numpy array of
numerators over one common denominator.  Products with integer matrices
and with a fixed scalar run as integer matrix products, the entrywise
product `*` is one batched convolution folded back by the rows of q^m, and
exact equality is `array_equal` on cross-multiplied numerators.  `CycArray.qpow_blocks`
stacks a column of coefficients over powers of q, the shape of every
eigenvector and trace vector downstream.  `gather_products` multiplies
every row of one such array with every row of another through the
multiplication tensor of the power basis in one batched contraction; the
Grothendieck-algebra products are built on it.  `split_prime(n)` gives a prime p = 1 (mod n) with an element of order
n in F_p, so q -> omega maps Z[q] onto F_p; ranks are certified there.

Only odd n >= 3 are accepted: the whole construction downstream (the
Drinfeld double of the Taft algebra and its McKay spectral theory)
assumes that hypothesis, and 2 must be invertible mod n.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm

import numpy as np

__all__ = [
    "cyclotomic_polynomial",
    "make_context",
    "CyclotomicContext",
    "CycNum",
    "CycArray",
    "int_array",
    "same_fractions",
    "reduce_fraction",
    "gather_products",
    "split_prime",
]

# int64 arithmetic is used only when a bound on every intermediate value
# stays below this; otherwise the same code runs on Python ints (dtype=object)
INT64_LIMIT = 1 << 62


def int_array(a, bound: int) -> np.ndarray:
    """Integer rows or array as int64 when `bound`, a bound on what the caller computes, allows; else as Python ints."""
    return np.asarray(a, dtype=np.int64 if bound < INT64_LIMIT else object)


def _array_max(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def same_fractions(a: np.ndarray, da: int, b: np.ndarray, db: int) -> bool:
    """Whether the integer arrays a / da and b / db are equal, by cross-multiplied numerators."""
    bound = max(_array_max(a) * db, _array_max(b) * da)
    return a.shape == b.shape and np.array_equal(int_array(a, bound) * db, int_array(b, bound) * da)


def reduce_fraction(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """(nums / g, den / g) for g the gcd of den and every numerator."""
    g = gcd(den, int(np.gcd.reduce(nums, axis=None))) if nums.size else den
    return (nums // g, den // g) if g > 1 else (nums, den)


# the multiplication tensor of Z: integer coefficient arrays are arrays with one column
INT_TENSOR = np.ones((1, 1, 1), dtype=np.int64)


def gather_products(a: np.ndarray, b: np.ndarray, tensor: np.ndarray, target: np.ndarray, size: int, fold_norm: int = 1):
    """Sums of the products a_i b_j of every row pair, gathered into row target[i, j] of a (size, d) array.

    a (Na, d) and b (Nb, d) are integer coordinate rows and tensor[k, e] holds
    the coordinates of basis element k times basis element e: ctx._mul_tensor
    for Q(q), INT_TENSOR for Z.  The products are one batched contraction and
    the gather one unbuffered add.  The result is int64 when a bound on it
    times fold_norm (the largest absolute row sum of whatever the caller
    applies to it next) stays below INT64_LIMIT, and Python ints otherwise.
    """
    d = tensor.shape[0]
    hits = int(np.bincount(target.ravel(), minlength=1).max()) if target.size else 0
    bound = hits * d * d * _array_max(a) * _array_max(b) * _array_max(tensor) * fold_norm
    a, b, tensor = (int_array(x, bound) for x in (a, b, tensor))
    by_basis = np.tensordot(b, tensor, axes=([1], [1]))  # [j, k] = b_j times basis element k
    pairs = np.tensordot(a, by_basis, axes=([1], [1]))  # [i, j] = a_i b_j
    out = np.zeros((size, d), dtype=pairs.dtype)
    np.add.at(out, target.ravel(), pairs.reshape(-1, d))
    return out


@lru_cache(maxsize=None)
def split_prime(n: int) -> tuple[int, int]:
    """(p, omega): the least prime p = 1 (mod 2n) above 2^30 and an element of order exactly n in F_p.

    The elements of order n are the roots of Phi_n modulo p, so q -> omega is
    a ring map Z[q]/Phi_n -> F_p (for n = 1, Z -> F_p).  Residues stay below
    2^31, so products of two fit in int64.
    """
    p = (1 << 30) // (2 * n) * (2 * n) + 1
    while p <= 1 << 30 or not all(p % f for f in range(3, isqrt(p) + 1, 2)):
        p += 2 * n
    factors = {f for f in range(2, n + 1) if n % f == 0 and all(f % e for e in range(2, f))}
    for a in range(2, p):
        omega = pow(a, (p - 1) // n, p)
        if all(pow(omega, n // f, p) != 1 for f in factors):
            return p, omega
    raise ArithmeticError(f"no element of order {n} modulo {p}")


def _divexact(num, den):
    """Exact quotient of integer polynomials (coefficient lists, low degree first)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        if c % den[dd]:
            raise ArithmeticError("division not exact")
        c //= den[dd]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[:dd]):
        raise ArithmeticError("nonzero remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, computed by dividing x^n - 1 by all Phi_d, d | n, d < n."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _divexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class CyclotomicContext:
    """Shared immutable data for Q(q): the modulus Phi_n and reduction tables."""

    def __init__(self, n: int):
        if n < 3 or n % 2 == 0:
            raise ValueError(
                "n must be an odd integer >= 3 (standing hypothesis for the "
                "Taft double and its root of unity q); got n=%r" % (n,)
            )
        self.n = n
        self.phi_n = cyclotomic_polynomial(n)
        self.degree = len(self.phi_n) - 1
        d = self.degree
        # canonical integer coefficient rows for x^e mod Phi_n, for all exponents
        # reachable by a product of two reduced elements (e <= 2d-2) or by a
        # power-of-q shift of a reduced element (e <= d+n-2)
        rows = []
        for e in range(d + max(d, n) - 1):
            if e < d:
                row = [0] * d
                row[e] = 1
            else:
                # x^e = x * x^{e-1} reduced by the monic modulus
                prev = rows[e - 1]
                row = [0] + list(prev[: d - 1])
                top = prev[d - 1]
                if top:
                    for j in range(d):
                        row[j] -= top * self.phi_n[j]
            rows.append(row)
        self._qpow_rows = tuple(tuple(r) for r in rows[:n])
        # reduction rows for x^{d+j}, consumed by _reduce after convolutions and shifts
        self._red = tuple(tuple(r) for r in rows[d:])
        self._zero = CycNum(self, (0,) * d, 1)
        self._one = CycNum(self, (1,) + (0,) * (d - 1), 1)
        self._qtable = tuple(CycNum(self, self._qpow_rows[e], 1) for e in range(n))
        self._unit = [cmath.exp(2j * cmath.pi * e / n) for e in range(d)]
        self._unit_array = np.array(self._unit)
        # _qpow_mul[e] = mul_matrix(q^e), row k holding the coefficients of q^(e+k);
        # its first phi slices are the multiplication tensor of the power basis,
        # _mul_tensor[k, e] = coefficients of q^(k+e), so a numerator vector
        # contracted against it gives the rows of a multiplication matrix
        self._qpow_mul = np.array(
            [[self._qpow_rows[(e + k) % n] for k in range(d)] for e in range(n)], dtype=np.int64
        )
        self._qpow_mul_max = int(np.abs(self._qpow_mul).max())
        self._mul_tensor = self._qpow_mul[:d]
        # for entrywise products: window m of a row padded by d - 1 zeros on each
        # side reads its coefficients m - d + 1 .. m, and row m of the fold is q^m
        self._conv_windows = np.arange(2 * d - 1)[:, None] + np.arange(d)
        self._conv_fold = self._qpow_mul[np.arange(2 * d - 1) % n, 0]
        self._inv_cache: dict[tuple, CycNum] = {}

    def __repr__(self):
        return f"CyclotomicContext(n={self.n})"

    def zero(self) -> "CycNum":
        return self._zero

    def one(self) -> "CycNum":
        return self._one

    def from_rational(self, a) -> "CycNum":
        c = Fraction(a)
        return _norm(self, [c.numerator] + [0] * (self.degree - 1), c.denominator)

    def from_coeffs(self, coeffs) -> "CycNum":
        """Element with the given rational coordinates (reduced if overlong)."""
        coeffs = [Fraction(c) for c in coeffs]
        den = 1
        for c in coeffs:
            den = den // gcd(den, c.denominator) * c.denominator
        nums = [int(c * den) for c in coeffs]
        if len(nums) > self.degree:
            nums = self._reduce(nums)
        else:
            nums += [0] * (self.degree - len(nums))
        return _norm(self, nums, den)

    def root_power(self, e: int) -> "CycNum":
        """Canonical form of q^(e mod n)."""
        return self._qtable[e % self.n]

    def from_qpowers(self, pairs) -> "CycNum":
        """Sum of coeff * q^exp over (coeff, exp) pairs with integer coeffs."""
        acc = [0] * self.degree
        rows = self._qpow_rows
        n = self.n
        for coeff, e in pairs:
            if not coeff:
                continue
            row = rows[e % n]
            for j, r in enumerate(row):
                if r:
                    acc[j] += coeff * r
        return _norm(self, acc, 1)

    def _reduce(self, conv):
        """Fold an integer convolution (any supported length) back into the power basis."""
        d = self.degree
        low = conv[:d]
        low += [0] * (d - len(low))
        for j, hi in enumerate(conv[d:]):
            if hi:
                row = self._red[j]
                for i in range(d):
                    if row[i]:
                        low[i] += hi * row[i]
        return low

    def quantum_integer(self, m: int) -> "CycNum":
        """[m] = 1 + q + ... + q^{m-1}."""
        return self.from_qpowers((1, e) for e in range(m))

    def mul_matrix(self, c: "CycNum") -> np.ndarray:
        """phi x phi integer matrix whose row e holds the numerators of c * q^e (over c.den).

        A numerator row vector x times this matrix is the numerator of x * c.
        """
        bound = _max_abs(c.num) * self.degree * self._qpow_mul_max
        return np.tensordot(int_array(c.num, bound), self._mul_tensor, axes=1)


@lru_cache(maxsize=None)
def make_context(n: int) -> CyclotomicContext:
    return CyclotomicContext(n)


def _norm(ctx, nums, den):
    """Canonical form: gcd of all numerators and the denominator is 1, denominator > 0."""
    g = den
    for a in nums:
        if a:
            g = gcd(g, a)
            if g == 1:
                break
    if g > 1:
        den //= g
        nums = [a // g for a in nums]
    return CycNum(ctx, tuple(nums), den)


class CycNum:
    """An element of Q(q), immutable, in canonical reduced form."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CyclotomicContext, num: tuple, den: int):
        self.ctx = ctx
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """Rational coordinates over the power basis 1, q, ..., q^{phi(n)-1}."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, CycNum):
            return self.ctx is other.ctx and self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num[0] == other and not any(self.num[1:])
        if isinstance(other, Fraction):
            return (
                not any(self.num[1:])
                and self.num[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        ctx = self.ctx
        if isinstance(other, (int, Fraction)):
            other = ctx.from_rational(other)
        da, db = self.den, other.den
        if da == db:
            return _norm(ctx, [a + b for a, b in zip(self.num, other.num)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return _norm(ctx, [a * ma + b * mb for a, b in zip(self.num, other.num)], da * ma)

    __radd__ = __add__

    def __sub__(self, other):
        ctx = self.ctx
        if isinstance(other, (int, Fraction)):
            other = ctx.from_rational(other)
        da, db = self.den, other.den
        if da == db:
            return _norm(ctx, [a - b for a, b in zip(self.num, other.num)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return _norm(ctx, [a * ma - b * mb for a, b in zip(self.num, other.num)], da * ma)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycNum(self.ctx, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, int):
            if not other:
                return ctx._zero
            g = gcd(other, self.den)
            return CycNum(ctx, tuple(a * (other // g) for a in self.num), self.den // g)
        if isinstance(other, Fraction):
            return _norm(
                ctx,
                [a * other.numerator for a in self.num],
                self.den * other.denominator,
            )
        a, b = self.num, other.num
        d = ctx.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return _norm(ctx, ctx._reduce(conv), self.den * other.den)

    __rmul__ = __mul__

    def mul_qpow(self, e: int) -> "CycNum":
        """Multiply by q^e (e any integer)."""
        e %= self.ctx.n
        if e == 0:
            return self
        d = self.ctx.degree
        conv = [0] * e + list(self.num)
        if len(conv) <= d:
            conv += [0] * (d - len(conv))
            return CycNum(self.ctx, tuple(conv), self.den)
        return _norm(self.ctx, self.ctx._reduce(conv), self.den)

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm against Phi_n."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        cache = self.ctx._inv_cache
        key = (self.num, self.den)
        hit = cache.get(key)
        if hit is not None:
            return hit
        # r0 = Phi_n, r1 = self; track t with t*self = r (mod Phi_n)
        r0 = [Fraction(c) for c in self.ctx.phi_n]
        r1 = list(self.coeffs)
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv_c = 1 / r1[0]
                result = self.ctx.from_coeffs([c * inv_c for c in t1])
                break
            q, r = _polydivmod(r0, r1)
            t_new = _polysub(t0, _polymul(q, t1))
            r0, r1 = r1, r
            t0, t1 = t1, t_new
        if len(cache) < 4096:
            cache[key] = result
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx._one
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def embed(self) -> complex:
        """Fast double-precision image under q -> exp(2*pi*i/n)."""
        units = self.ctx._unit
        acc = 0j
        for a, u in zip(self.num, units):
            if a:
                acc += a * u
        return acc / self.den

    def to_json(self) -> dict:
        return {"n": self.ctx.n, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj) -> "CycNum":
        ctx = make_context(obj["n"])
        coeffs = [Fraction(s) for s in obj["coeffs"]]
        if len(coeffs) != ctx.degree:
            raise ValueError("coefficient vector has wrong length for n=%d" % ctx.n)
        return ctx.from_coeffs(coeffs)

    def __repr__(self):
        terms = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append(f"{c}*q" if c != 1 else "q")
            else:
                terms.append(f"{c}*q^{e}" if c != 1 else f"q^{e}")
        return " + ".join(terms) if terms else "0"


def _max_abs(values) -> int:
    return max(map(abs, values), default=0)


class CycArray:
    """A length-N vector over Q(q): an (N, phi(n)) integer array of numerators over one denominator.

    Row i holds the power-basis numerators of entry i, all over the common
    positive denominator `den`.  Rows are not normalized, so two arrays of
    the same vector may differ by a common factor; `to_list` returns the
    canonical `CycNum` entries.  The array is int64 when every operation's
    bound stays below INT64_LIMIT, and holds Python ints (dtype=object)
    otherwise; each operation checks its own bound.
    """

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: CyclotomicContext, nums: np.ndarray, den: int):
        self.ctx = ctx
        self.nums = nums
        self.den = den

    @staticmethod
    def zeros(ctx: CyclotomicContext, size: int) -> "CycArray":
        return CycArray(ctx, np.zeros((size, ctx.degree), dtype=np.int64), 1)

    @staticmethod
    def from_list(ctx: CyclotomicContext, vec) -> "CycArray":
        """Array form of a list of CycNum (ints and Fractions are accepted as rationals)."""
        entries = [x if isinstance(x, CycNum) else ctx.from_rational(x) for x in vec]
        den = lcm(*(x.den for x in entries)) if entries else 1
        rows = [x.num if x.den == den else [a * (den // x.den) for a in x.num] for x in entries]
        nums = int_array(rows, _max_abs(chain.from_iterable(rows)))
        return CycArray(ctx, nums.reshape(len(entries), ctx.degree), den)

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, i: int) -> CycNum:
        """Entry i as a canonical CycNum."""
        return _norm(self.ctx, self.nums[i].tolist(), self.den)

    def __eq__(self, other):
        if not isinstance(other, CycArray):
            return NotImplemented
        return self.ctx is other.ctx and same_fractions(self.nums, self.den, other.nums, other.den)

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.nums.any()

    def reduced(self) -> "CycArray":
        """The same vector with the common factor of the numerators and the denominator divided out."""
        return CycArray(self.ctx, *reduce_fraction(self.nums, self.den))

    def max_abs(self) -> int:
        return _array_max(self.nums)

    def to_list(self) -> list:
        """The entries as canonical CycNum."""
        ctx, den = self.ctx, self.den
        return [_norm(ctx, row, den) for row in self.nums.tolist()]

    def embed(self) -> np.ndarray:
        """Complex images of the entries under q -> exp(2*pi*i/n), one product with (1, zeta, ...)."""
        return (self.nums.astype(float) @ self.ctx._unit_array) / self.den

    def scaled(self, c: "CycNum") -> "CycArray":
        """Every entry times the scalar c."""
        L = self.ctx.mul_matrix(c)
        bound = self.max_abs() * self.ctx.degree * int(np.abs(L).max())
        nums = int_array(self.nums, bound) @ int_array(L, bound)
        return CycArray(self.ctx, nums, self.den * c.den)

    def __mul__(self, other: "CycArray") -> "CycArray":
        """The entrywise product: entry i is entry i of self times entry i of other.

        Each entry is one convolution of the two numerator rows, read off
        windows of the zero-padded rows of other, and its 2 phi - 1
        coefficients are folded back into the power basis by the rows of q^m.
        """
        ctx = self.ctx
        d = ctx.degree
        # entry i is bounded through the largest numerators of both rows i (in
        # floating point, which cannot misjudge the factor of 2 below int64's range)
        pairs = np.abs(self.nums).max(axis=1, initial=0).astype(float) * np.abs(other.nums).max(axis=1, initial=0)
        bound = d * (2 * d - 1) * float(pairs.max(initial=0)) * ctx._qpow_mul_max
        a, b = int_array(self.nums, bound), int_array(other.nums, bound)
        padded = np.zeros((len(b), 3 * d - 2), dtype=b.dtype)
        padded[:, d - 1:2 * d - 1] = b
        # [i, m] = sum over k of a_i[k] b_i[m - k]
        conv = (padded[:, ctx._conv_windows] @ a[:, ::-1, None])[:, :, 0]
        return CycArray(ctx, conv @ int_array(ctx._conv_fold, bound), self.den * other.den)

    def qpow_blocks(self, exps) -> "CycArray":
        """Row l * m + s is row l times q^{exps[s]}, for m = len(exps): each entry stacked over the powers of q.

        One contraction with the slices ctx._qpow_mul[e] = mul_matrix(q^e).
        """
        ctx = self.ctx
        tables = ctx._qpow_mul[np.asarray(exps, dtype=np.int64) % ctx.n]
        bound = self.max_abs() * ctx.degree * ctx._qpow_mul_max
        nums = np.tensordot(int_array(self.nums, bound), int_array(tables, bound), axes=([1], [1]))
        return CycArray(ctx, nums.reshape(-1, ctx.degree), self.den)

    def line_coefficient(self, line: "CycArray"):
        """The c with self = c * line, or None when self is off the line through `line` (or line is zero)."""
        rows = np.flatnonzero(line.nums.any(axis=1))
        if not rows.size:
            return None
        c = self[int(rows[0])] / line[int(rows[0])]
        return c if self == line.scaled(c) else None

    def left_mul(self, A: np.ndarray) -> "CycArray":
        """The integer matrix A times this column vector."""
        bound = self.max_abs() * int(np.abs(A).sum(axis=1).max(initial=0))
        return CycArray(self.ctx, int_array(A, bound) @ int_array(self.nums, bound), self.den)

    def __add__(self, other: "CycArray") -> "CycArray":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        bound = self.max_abs() * fa + other.max_abs() * fb
        return CycArray(self.ctx, int_array(self.nums, bound) * fa + int_array(other.nums, bound) * fb, den)


def _polydivmod(a, b):
    """Division with remainder for Fraction coefficient lists (b trimmed, nonzero)."""
    a = list(a)
    db = len(b) - 1
    lead = b[db]
    q = [Fraction(0)] * (max(len(a) - db, 0))
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db] / lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return q, a[:db]


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _polysub(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for j, bj in enumerate(b):
        out[j] -= bj
    return out

