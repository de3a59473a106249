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
product `*` goes through the multiplication tensor of the power basis
(or, past float64, is a convolution folded back by the rows of q^m), and
exact equality is `array_equal` on cross-multiplied numerators.
`CycArray.qpow` is the one statement of multiplication by powers of q (a
rotation in Z[x]/(x^n - 1), folded back by the table of q^k mod Phi_n,
which no other module reads): it stacks coefficients over powers of q, the
shape of every eigenvector and trace vector downstream, and twists every
component, trace and product.  `gather_products` multiplies every row of
one such array with every row of another through the multiplication
tensor in one batched contraction, for a whole stack of factor pairs at
once, and `poly_products` multiplies stacks of polynomials by degree; the
Grothendieck-algebra products are built on them.  `split_prime(n)` gives a
prime p = 1 (mod n) with an element of order n in F_p, so q -> omega maps
Z[q] onto F_p; `reduce_mod_p` takes a numerator array there in one step,
and ranks are certified on the residues.

`json_texts(values)` is the batch encoder of the JSON output: the text of
many CycArrays (a list of entries), CycNums and `ArrayEntry`s (one entry
each) and 2-D integer arrays (a list of rows) at once.  An integral entry is
a plain int, every other one {"coeffs": [...], "n": n} with each coordinate
as str(Fraction(a, den)) (`_coeff_text`, the one statement of that format,
which `CycNum.to_json` uses too), exactly as json.dumps(..., sort_keys=True)
writes that form.  The text is made of tokens.  A cached table of (n, den)
(`_token_table`) holds, for every |a| up to its bound, the coordinate a / den
as the first coordinate of an entry (with the opening {"coeffs": [), a
middle one, the last one (with the closing ], "n": n}, followed by ", " or
not), and as a plain int where den | a; its bound is the least power of two
from TOKEN_MIN_BOUND that covers the coefficients it is asked for, at most
TOKEN_BOUND, so the tables stay as small as the values.  A row is
integral exactly when its coordinates 1..phi-1 are 0 and den divides the
first; it takes one integer token and empty ones, so no row is brought to
lowest terms.  The rows of all values of one denominator are written
JSON_BATCH_ROWS at a time: one fancy-index gather from the table per batch
and one join per value.  Coefficients past the bound, and those of
Python-int arrays, get their tokens from the same statement, filled into the
gathered array in place.  An integer array is one gather of the integer
tokens of the tables of n = 1, den = 1.

This module is the one place that chooses the width of exact integer
arithmetic: float64, int64 or Python ints (dtype=object).  Every exact
integer computation of the package runs through one of its kernels
(`int_matmul`, `sparse_product`, `gather_products`, `poly_products`,
`segment_sum`, `int_combination`, `int_rows`, `CycArray.__mul__`,
`CycArray.qpow`), which bounds every partial sum from the values of its
operands (a fixed table of the field by the bound its context took once),
and `_width` picks from that bound, once per call.  A bound by row sums of
|a| (`int_matmul`, `sparse_product`, `mul_matrices`, `from_qpowers`,
`qpow`) is first the row length times max |a|, read from the largest and
the least entry with no |a| temporary, and the row sums are taken only when
that cheap bound does not give the narrowest width (`_row_sum_bound`);
`__mul__` takes its row maxima only when max |a| max |b| does not give
float64.  The width is therefore always the exact bound's.  A matrix product (`int_matmul` unless
a factor is a single row or column, `poly_products`, `gather_products`,
`__mul__` and the fold of `qpow`) runs in float64 through BLAS below
FLOAT64_LIMIT = 2^53 and returns int64: every partial sum is then an
integer below 2^53, which float64 holds exactly, so the product is exact in
any summation order, fused multiply-adds included.  Every kernel runs in
int64 below INT64_LIMIT = 2^62 and on Python ints from there on.  A long
float64 `int_matmul` or `__mul__`, and the pairs of `gather_products` and
the count-space temporary of `qpow` at every width, run one block of rows
at a time (`_row_blocks`).

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
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "cyclotomic_polynomial",
    "make_context",
    "CyclotomicContext",
    "CycNum",
    "CycArray",
    "int_matmul",
    "int_combination",
    "int_rows",
    "segment_sum",
    "same_fractions",
    "reduce_fraction",
    "gather_products",
    "poly_products",
    "sparse_rows",
    "sparse_product",
    "split_prime",
    "reduce_mod_p",
    "ArrayEntry",
    "json_texts",
]

# a kernel runs in int64 only when a bound on every partial sum it forms
# stays below this; otherwise the same kernel runs on Python ints (dtype=object)
INT64_LIMIT = 1 << 62
# a matrix-product kernel runs in float64, through BLAS, when its bound stays
# below this (exact: see the module docstring), and casts its result to int64
FLOAT64_LIMIT = 1 << 53
# a float64 product of more multiply-adds than this (rows times inner length
# times columns) runs as one BLAS call per block of rows (`_row_blocks`), each
# doing at most this many.  `int_matmul` casts each block into its int64
# result as it is written: one whole float64 copy (18.8 MB) raised the peak
# RSS of the n = 19 suite from 168.3 to 172.8 MB.  `CycArray.__mul__` holds
# the multiplication matrices of one block at a time.  At this size OpenBLAS
# also keeps each call on the calling thread.  `gather_products` and `qpow` hold
# at most this many pairs or counts at a time (whole pairs: n = 19 RSS +16 MB)
BLAS_CALL_WORK = 1 << 18


def _width(bound, blas: bool = False):
    """The dtype of a kernel whose partial sums are all bounded by `bound`: float64 for a product through BLAS (`blas`) below FLOAT64_LIMIT, int64 below INT64_LIMIT, Python ints (object) otherwise."""
    if blas and bound < FLOAT64_LIMIT:
        return np.float64
    return np.int64 if bound < INT64_LIMIT else object


def int_array(a, bound: int) -> np.ndarray:
    """Integer rows or array as int64 when `bound`, a kernel's bound on what it computes, allows; else as Python ints."""
    return np.asarray(a, dtype=_width(bound))


def _integer(out: np.ndarray) -> np.ndarray:
    """A kernel's result as integers: a float64 one, whose entries are exact integers below 2^53, as int64."""
    return out.astype(np.int64) if out.dtype == np.float64 else out


def _row_blocks(rows: int, work: int) -> list[slice]:
    """range(rows) as the fewest nearly equal blocks of at most BLAS_CALL_WORK // work rows (at least one), for a product doing `work` multiply-adds per row; one block if rows is 0."""
    count = max(1, -(-rows // max(1, BLAS_CALL_WORK // max(1, work))))
    cuts = [rows * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _array_max(a: np.ndarray) -> int:
    """max |a| as a Python int (0 for an empty array), from the largest and the least entry: no |a| temporary."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _row_sum_bound(a: np.ndarray, scale: int, limit: int) -> int:
    """A bound on scale times every sum of |a| along the last axis, exact from `limit` on (0 for an empty array).

    The cheap bound, row length times max |a| times scale, is returned when
    it is below `limit`, the least bound that does not give a kernel its
    narrowest width (FLOAT64_LIMIT for a product through BLAS, INT64_LIMIT
    otherwise); the exact one, the largest row sum times scale, only
    otherwise.  The kernel's width is therefore the one the exact bound
    gives, without a row sum where the cheap bound decides it.
    """
    top = _array_max(a)
    cheap = a.shape[-1] * top * scale
    if cheap < limit:
        return cheap
    mags = np.abs(a)
    if a.dtype != object and top * a.shape[-1] >= 1 << 63:
        mags = mags.astype(object)  # int64 row sums could wrap
    return int(mags.sum(axis=-1).max()) * scale


def int_rows(rows) -> np.ndarray:
    """Rows of Python ints as an array, int64 when every |entry| < INT64_LIMIT (the dtype is always given, so never uint64 or float64)."""
    rows = list(rows)
    return int_array(rows, max(map(abs, chain.from_iterable(rows)), default=0))


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for integer arrays, batch axes allowed, in the width (`_width`) of its bound: the largest absolute row sum of a times max |b|."""
    return _matmul(a, b, _array_max(b))


def _matmul(a: np.ndarray, b: np.ndarray, scale: int) -> np.ndarray:
    """a @ b for integer arrays with max |b| at most `scale` (a fixed table's, taken once by its owner), in the width of the largest absolute row sum of a times scale (`_row_sum_bound`).

    A long float64 product is written to its int64 result one block of rows
    at a time.  A product with one row or one column per batch item uses
    each entry of the other factor once.  There BLAS gains nothing and a
    float64 copy of that factor costs more time and memory than the product,
    so it stays on int64 (or Python ints).
    """
    blas = a.ndim > 1 and b.ndim > 1 and min(a.shape[-2], b.shape[-1]) > 1
    width = _width(_row_sum_bound(a, scale, FLOAT64_LIMIT if blas else INT64_LIMIT), blas=blas)
    a, b = np.asarray(a, width), np.asarray(b, width)
    if width is not np.float64 or a.shape[-2] * a.shape[-1] * b.shape[-1] <= BLAS_CALL_WORK:
        return _integer(a @ b)
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1]), dtype=np.int64)
    for rows in _row_blocks(a.shape[-2], a.shape[-1] * b.shape[-1]):
        out[..., rows, :] = a[..., rows, :] @ b
    return out


def int_combination(terms) -> np.ndarray:
    """Sum of c * x over pairs of a Python int c and an integer array x; int64 when sum |c| max(1, max |x|) < INT64_LIMIT.

    A lone int64 term with c = 1 is returned as it is, not copied: a kernel
    writes int64 only below INT64_LIMIT, and no caller writes into the sum.
    """
    terms = list(terms)
    if len(terms) == 1 and terms[0][0] == 1 and terms[0][1].dtype == np.int64:
        return terms[0][1]
    bound = sum(abs(c) * max(1, _array_max(x)) for c, x in terms)
    first, *rest = (int_array(x, bound) * c for c, x in terms)
    return sum(rest, first)


def segment_sum(nums: np.ndarray, starts=None) -> np.ndarray:
    """Sums along axis 0 of an integer array: of the runs beginning at the increasing `starts` (`np.add.reduceat`), or of all of it.

    Equal-length groups are the second case once reshaped onto axis 0.
    int64 when the longest run times max |nums| is below INT64_LIMIT.
    """
    if starts is None:
        return int_array(nums, len(nums) * _array_max(nums)).sum(axis=0)
    longest = int(np.diff(starts, append=len(nums)).max(initial=0))
    return np.add.reduceat(int_array(nums, longest * _array_max(nums)), starts, axis=0)


def same_fractions(a: np.ndarray, da: int, b: np.ndarray, db: int) -> bool:
    """Whether the integer arrays a / da and b / db are equal, by cross-multiplied numerators."""
    return a.shape == b.shape and np.array_equal(int_combination([(db, a)]), int_combination([(da, b)]))


def reduce_fraction(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """(nums / g, den / g) for g the gcd of den and every numerator."""
    g = gcd(den, int(np.gcd.reduce(nums, axis=None))) if nums.size else den
    return (nums // g, den // g) if g > 1 else (nums, den)


def _tensor(ctx) -> tuple[np.ndarray, int]:
    """The multiplication tensor of the coefficients and its largest entry: ctx's over Q(q), Z's (integer rows, one column) for ctx None."""
    return (np.ones((1, 1, 1), dtype=np.int64), 1) if ctx is None else (ctx._mul_tensor, ctx._mul_tensor_max)


def gather_products(a: np.ndarray, b: np.ndarray, ctx, target: np.ndarray, size: int):
    """Sums of the products a_i b_j of every row pair, gathered into row target[i, j] of a (size, d) array.

    a (Na, d) and b (Nb, d) are integer coordinate rows over ctx's Q(q), or
    integers (one column) for ctx None; the multiplication tensor of that
    ring (`_tensor`), tensor[k, e], holds the coordinates of basis element k
    times basis element e.  Stacks a (m, Na, d) and b (m, Nb, d) are m
    such pairs of factors, gathered pair by pair into (m, size, d).  The
    products are one batched contraction (b through the tensor gives the
    multiplication matrix of each of its rows, one batched matmul applies
    them to the rows of a, a block of rows at a time) and the gather one
    unbuffered add per block, both in the width (`_width`) of the most
    products gathered into one row times d^2 max |a| max |b| max |tensor|.
    """
    stacked = a.ndim == 3
    a, b = (a, b) if stacked else (a[None], b[None])
    (tensor, top), (m, nb, _) = _tensor(ctx), b.shape
    d = tensor.shape[0]
    hits = int(np.bincount(target.ravel(), minlength=1).max()) if target.size else 0
    width = _width(hits * d * d * _array_max(a) * _array_max(b) * top, blas=True)
    a, b, tensor = (np.asarray(x, width) for x in (a, b, tensor))
    by_basis = b.reshape(m * nb, d) @ tensor.transpose(1, 0, 2).reshape(d, d * d)  # [(s, j), (k, p)] = b_j times basis element k
    mats = by_basis.reshape(m, nb, d, d).transpose(0, 2, 1, 3).reshape(m, d, nb * d)
    rows = np.arange(m)[:, None, None] * size + target  # [s, i, j]
    out = np.zeros((m * size, d), dtype=width)
    for part in _row_blocks(target.shape[0], nb * d):
        np.add.at(out, rows[:, part].ravel(), (a[:, part] @ mats).reshape(-1, d))  # [s, i, (j, p)] = a_i b_j
    out = _integer(out).reshape(m, size, d)
    return out if stacked else out[0]


def poly_products(a: np.ndarray, b: np.ndarray, ctx) -> np.ndarray:
    """The products of m pairs of polynomials over ctx's Q(q) (over Z for ctx None): a (m, La, d) and b (m, Lb, d) hold coefficient rows, low degree first.

    Returns (m, La + Lb - 1, d).  For each degree t of a, the multiplication
    matrices of the coefficients a[:, t] (their rows through the tensor) are
    applied to all of b in one batched matmul and added at degree t + 0..Lb-1,
    so no temporary holds more than one coefficient's products.  The width
    is that of `gather_products` with min(La, Lb) products per row.
    """
    (m, la, d), lb, (tensor, top) = a.shape, b.shape[1], _tensor(ctx)
    width = _width(min(la, lb) * d * d * _array_max(a) * _array_max(b) * top, blas=True)
    a, b, flat = (np.asarray(x, width) for x in (a, b, tensor.reshape(d, d * d)))
    out = np.zeros((m, la + lb - 1, d), dtype=width)
    for t in range(la):
        out[:, t:t + lb] += b @ (a[:, t] @ flat).reshape(m, d, d)
    return _integer(out)


def sparse_rows(A: np.ndarray):
    """The nonzero entries of each row of the integer matrix A, as (cols, vals) arrays of shape (rows, w).

    w is the most nonzeros any row holds; shorter rows are padded with value 0.
    """
    rows, cols = np.divmod(np.flatnonzero(A), A.shape[1])
    counts = np.bincount(rows, minlength=len(A))
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    out_cols = np.zeros((len(A), counts.max(initial=0)), dtype=np.int64)
    out_vals = np.zeros(out_cols.shape, dtype=A.dtype)
    out_cols[rows, slot] = cols
    out_vals[rows, slot] = A[rows, cols]
    return out_cols, out_vals


def sparse_product(sparse, B: np.ndarray) -> np.ndarray:
    """A @ B for A given by `sparse_rows`: each row of the product gathers and adds w rows of B.

    The w gathers are weighed into one reused buffer and added one at a
    time, so no temporary is larger than the product, and each gather is
    the only array allocated per nonzero.  For an integer B the product is
    int64 when the largest row sum of |vals| times max |B| is below
    INT64_LIMIT (`_row_sum_bound`), and Python ints otherwise; a float or
    complex B is multiplied in its own type.
    """
    cols, vals = sparse
    if B.dtype.kind not in "fc":
        bound = _row_sum_bound(vals, _array_max(B), INT64_LIMIT)
        vals, B = int_array(vals, bound), int_array(B, bound)
    out = np.zeros((len(cols),) + B.shape[1:], dtype=np.result_type(vals, B))
    term = np.empty_like(out)
    for k in range(cols.shape[1]):
        np.multiply(vals[:, k, None], B[cols[:, k]], out=term)
        out += term
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


def reduce_mod_p(nums: np.ndarray, den: int, n: int):
    """The int64 residues in F_p of nums / den under q -> omega of `split_prime(n)`, or None when p | den.

    nums holds power-basis numerators on its last axis; each is reduced mod p
    before it is weighed by omega^k, so every product stays below 2^62.
    """
    p, omega = split_prime(n)
    if den % p == 0:
        return None
    powers = np.array([pow(omega, k, p) for k in range(nums.shape[-1])], dtype=np.int64)
    residues = np.asarray(nums % p, dtype=np.int64)
    return (residues * powers % p).sum(axis=-1) % p * pow(den, -1, p) % p


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
        # canonical integer coefficient rows for q^e = x^e mod Phi_n, e < n; since
        # Phi_n divides x^n - 1, row e mod n is that of x^e for every e
        rows = []
        for e in range(n):
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
        self._qpow_rows = tuple(tuple(r) for r in rows)
        self._zero = CycNum(self, (0,) * d, 1)
        self._one = CycNum(self, (1,) + (0,) * (d - 1), 1)
        self._qtable = tuple(CycNum(self, self._qpow_rows[e], 1) for e in range(n))
        self._unit = [cmath.exp(2j * cmath.pi * e / n) for e in range(d)]
        # the fold table, row k = q^k, the multiplication tensor, [k, e] = q^(k+e) (a
        # numerator vector against it gives a multiplication matrix's rows), and the
        # fold of a convolution, row m = q^m; the bounds of the tables are taken here
        self._fold = np.array(self._qpow_rows, dtype=np.int64)
        self._mul_tensor = self._fold[np.add.outer(np.arange(d), np.arange(d)) % n]
        self._conv_fold = self._fold[np.arange(2 * d - 1) % n]
        self._fold_max = _array_max(self._fold)
        self._mul_tensor_max = _array_max(self._mul_tensor)
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
        """Sum of coeff * q^exp over (coeff, exp) pairs with integer coeffs: the counts of each power, folded (`CycArray.from_qpowers`)."""
        counts = [0] * self.n
        for coeff, e in pairs:
            counts[e % self.n] += coeff
        return CycArray.from_qpowers(self, int_rows([counts]))[0]

    def _reduce(self, conv):
        """Fold an integer convolution (any length) back into the power basis by the rows of q^e."""
        d = self.degree
        low = conv[:d]
        low += [0] * (d - len(low))
        for j, hi in enumerate(conv[d:]):
            if hi:
                row = self._qpow_rows[(d + j) % self.n]
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
        return self.mul_matrices(int_rows([c.num]))[0]

    def mul_matrices(self, nums: np.ndarray) -> np.ndarray:
        """The `mul_matrix` of the element with numerators nums[k], for every row k at once (one integer product)."""
        d = self.degree
        return _matmul(nums, self._mul_tensor.reshape(d, d * d), self._mul_tensor_max).reshape(-1, d, d)


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

    def _combine(self, other, sign: int):
        """self + sign * other, for other a CycNum, an int or a Fraction."""
        ctx = self.ctx
        if isinstance(other, (int, Fraction)):
            other = ctx.from_rational(other)
        g = gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g * sign
        return _norm(ctx, [a * ma + b * mb for a, b in zip(self.num, other.num)], self.den * ma)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

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
        """Multiply by q^e (e any integer); a scalar route, as one entry through `CycArray.qpow` takes five times as long."""
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
        """n and the coordinates, each written as str(Fraction(a, den))."""
        return {"n": self.ctx.n, "coeffs": [_coeff_text(a, self.den) for a in self.num]}

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


class CycArray:
    """A length-N vector over Q(q): an (N, phi(n)) integer array of numerators over one denominator.

    Row i holds the power-basis numerators of entry i, all over the common
    positive denominator `den`.  Rows are not normalized, so two arrays of
    the same vector may differ by a common factor; `to_list` returns the
    canonical `CycNum` entries.  The array is int64 or holds Python ints
    (dtype=object), as the kernel that produced it chose from the values;
    every operation runs through a kernel of this module, which bounds it.
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
        return CycArray(ctx, int_rows(rows).reshape(len(entries), ctx.degree), den)

    @staticmethod
    def from_qpowers(ctx: CyclotomicContext, counts: np.ndarray) -> "CycArray":
        """Entry i is sum_e counts[i, e] q^e over the exponents e = 0..n-1 (an integer array)."""
        return CycArray(ctx, _matmul(counts, ctx._fold, ctx._fold_max), 1)

    @staticmethod
    def concat(ctx: CyclotomicContext, parts) -> "CycArray":
        """The entries of every part, one after another, over the least common denominator."""
        den = lcm(*(p.den for p in parts)) if parts else 1
        nums = [int_combination([(den // p.den, p.nums)]) for p in parts]
        return CycArray(ctx, np.concatenate(nums) if nums else np.zeros((0, ctx.degree), dtype=np.int64), den)

    def __len__(self):
        return len(self.nums)

    def take(self, idx) -> "CycArray":
        """The entries at the positions (or boolean mask) idx, as an array."""
        return CycArray(self.ctx, self.nums[idx], self.den)

    def __neg__(self) -> "CycArray":
        return CycArray(self.ctx, -self.nums, self.den)

    def __getitem__(self, i: int) -> CycNum:
        """Entry i as a canonical CycNum."""
        return _norm(self.ctx, self.nums[i].tolist(), self.den)

    def __eq__(self, other):
        if not isinstance(other, CycArray):
            return NotImplemented
        return self.ctx is other.ctx and same_fractions(self.nums, self.den, other.nums, other.den)

    __hash__ = None

    def mismatches(self, other: "CycArray", size: int = 1) -> np.ndarray:
        """For each block of `size` consecutive entries, whether self and other differ there (one cross-multiplied comparison)."""
        differ = int_combination([(other.den, self.nums), (-self.den, other.nums)]).any(axis=1)
        return differ.reshape(-1, size).any(axis=1)

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

    def entries(self) -> list["ArrayEntry"]:
        """Each entry as an `ArrayEntry`, for output that writes the entries one by one."""
        return [ArrayEntry(self, i) for i in range(len(self.nums))]

    def embed(self) -> np.ndarray:
        """Complex images of the entries under q -> exp(2*pi*i/n), bit for bit those of `CycNum.embed`.

        As there, each entry is in lowest terms (its row divided by the gcd
        with den), the terms a_k zeta^k are added in power-basis order, from
        zero, and the sum is divided by the entry's reduced denominator, the
        real and the imaginary part apart, as Python divides a complex by an
        int.  The sums run one column at a time, so no temporary is larger
        than a column: float(a_k) times zeta^k is Python's a_k * zeta^k, a
        complex product with (a_k, 0).
        """
        nums, dens = _lowest_terms(self.nums, int_array([self.den], self.den)) if self.den > 1 else (self.nums, np.ones(1))
        sums = np.zeros(len(nums), dtype=complex)
        for k, unit in enumerate(self.ctx._unit):
            sums += nums[:, k].astype(float) * unit
        dens = dens.astype(float)
        out = np.empty(len(nums), dtype=complex)
        out.real, out.imag = sums.real / dens, sums.imag / dens
        return out

    def scaled(self, c: "CycNum") -> "CycArray":
        """Every entry times the scalar c."""
        return CycArray(self.ctx, int_matmul(self.nums, self.ctx.mul_matrix(c)), self.den * c.den)

    def __mul__(self, other: "CycArray") -> "CycArray":
        """The entrywise product: entry i is entry i of self times entry i of other.

        The width (`_width`) comes from a bound on every entry's partial sums,
        phi (2 phi - 1) max |q^m| times the largest numerators of both rows i;
        max |self| max |other| stands for that product of row maxima where
        it already gives float64.
        In float64 (below 2^53) row i of other goes through the
        multiplication tensor to its multiplication matrix, (rows, phi) by
        (phi, phi^2) in one BLAS product per `_row_blocks` block of rows, so
        the matrices alive at once stay small, and row i of self is
        contracted with it; through BLAS this is faster than the convolution
        below in float64.  In int64 or on Python ints, where those matrices
        would cost phi^3 multiply-adds per entry without BLAS, entry i is one
        convolution of the two rows, phi multiply-adds of shifted columns,
        whose 2 phi - 1 coefficients are folded back into the power basis by
        the rows of q^m.
        """
        ctx = self.ctx
        d = ctx.degree
        bound = d * (2 * d - 1) * _array_max(self.nums) * _array_max(other.nums) * ctx._fold_max
        if bound >= FLOAT64_LIMIT:
            # the row by row bound, taken in floating point, which decides both
            # limits exactly: an integer product of integer factors below 2^53
            # is exact, and one at or past a power of two never rounds below it
            pairs = np.abs(self.nums).max(axis=1, initial=0).astype(float) * np.abs(other.nums).max(axis=1, initial=0)
            bound = d * (2 * d - 1) * float(pairs.max(initial=0)) * ctx._fold_max
        width = _width(bound, blas=True)
        a, b = np.asarray(self.nums, width), np.asarray(other.nums, width)
        if width is np.float64:
            tensor = np.asarray(ctx._mul_tensor.transpose(1, 0, 2).reshape(d, d * d), width)  # [e, (k, p)]
            out = np.empty((len(b), d), dtype=np.int64)
            for rows in _row_blocks(len(b), d ** 3):
                mats = (b[rows] @ tensor).reshape(-1, d, d)  # [i, k] = b_i times basis element k
                out[rows] = np.einsum("ik,ikp->ip", a[rows], mats)
            return CycArray(ctx, out, self.den * other.den)
        # [i, m] = sum over k of a_i[k] b_i[m - k]
        conv = np.zeros((len(b), 2 * d - 1), dtype=width)
        for k in range(d):
            conv[:, k:k + d] += a[:, k, None] * b
        return CycArray(ctx, conv @ np.asarray(ctx._conv_fold, width), self.den * other.den)

    def qpow(self, exps, group: int = 1) -> "CycArray":
        """Rows times powers of q: exps (B,) or (B, m) holds one exponent, or m, per block of rows (B blocks split the rows evenly).

        Row (i // group) m + s is the sum over the `group` consecutive rows
        of row i of row i times q^{exps[b, s]}, b the block of row i: B = len
        for one power per row, B = 1 to stack every row over m powers.  Each
        row is padded from phi to n coordinates, rotated by e in
        Z[x]/(x^n - 1) (one index gather), summed with its group there, and
        folded once by the table of q^k mod Phi_n, one `_row_blocks` block
        of at most BLAS_CALL_WORK count entries at a time.  The
        width bounds every partial sum by group times the largest row sum of
        |self| times the largest entry of the fold table.
        """
        ctx, n, d = self.ctx, self.ctx.n, self.ctx.degree
        exps = np.asarray(exps, dtype=np.int64)
        exps = exps[:, None] if exps.ndim == 1 else exps
        (blocks, m), rows = exps.shape, len(self.nums)
        size = rows // blocks if blocks else 0
        if blocks * size != rows or rows % group:
            raise ValueError(f"{rows} rows do not split into {blocks} blocks and groups of {group}")
        starts = np.repeat(n - exps % n, size, axis=0)  # row i times q^e: coordinates n - e.. of the row written twice
        width = _width(_row_sum_bound(self.nums, group * ctx._fold_max, FLOAT64_LIMIT), blas=True)
        fold = np.asarray(ctx._fold, width)
        out = np.empty((rows // group * m, d), dtype=np.int64 if width is not object else object)
        for part in _row_blocks(rows // group, group * m * n):
            lo, hi = part.start * group, part.stop * group
            twice = np.zeros((hi - lo, 2 * n), dtype=width)
            twice[:, :d] = twice[:, n:n + d] = self.nums[lo:hi]
            windows = as_strided(twice, (hi - lo, n + 1, n), twice.strides[:1] + twice.strides[1:] * 2, writeable=False)
            counts = windows[np.arange(hi - lo)[:, None], starts[lo:hi]]  # [i, s, k]
            if group > 1:
                counts = counts.reshape(-1, group, m, n).sum(axis=1)
            out[part.start * m:part.stop * m] = counts.reshape(-1, n) @ fold
        return CycArray(ctx, out, self.den)

    def block_sum(self, size: int) -> "CycArray":
        """Entry i is the sum of entry i of every block of `size` consecutive entries (size 1 sums all)."""
        return CycArray(self.ctx, segment_sum(self.nums.reshape(-1, size, self.ctx.degree)), self.den)

    def line_coefficient(self, line: "CycArray"):
        """The c with self = c * line, or None when self is off the line through `line` (or line is zero)."""
        rows = np.flatnonzero(line.nums.any(axis=1))
        if not rows.size:
            return None
        c = self[int(rows[0])] / line[int(rows[0])]
        return c if self == line.scaled(c) else None

    def left_mul(self, A: np.ndarray) -> "CycArray":
        """The integer matrix A times this column vector."""
        return CycArray(self.ctx, int_matmul(A, self.nums), self.den)

    def __add__(self, other: "CycArray") -> "CycArray":
        den = lcm(self.den, other.den)
        nums = int_combination([(den // self.den, self.nums), (den // other.den, other.nums)])
        return CycArray(self.ctx, nums, den)


class ArrayEntry:
    """Entry `row` of a CycArray where only its JSON text is wanted: `json_texts` writes it as the CycNum array[row]."""

    __slots__ = ("array", "row")

    def __init__(self, array: CycArray, row: int):
        self.array = array
        self.row = row


def _lowest_terms(nums: np.ndarray, dens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i of nums over dens[i] (or over dens[0] for every row) with the row and its denominator divided by their gcd, taken column by column."""
    g = np.broadcast_to(dens, len(nums))
    for k in range(nums.shape[1]):
        g = np.gcd(g, nums[:, k])
    return nums if (g == 1).all() else nums // g[:, None], dens // g


def _coeff_text(a: int, den: int) -> str:
    """A coordinate a / den as the JSON output writes it: str(Fraction(a, den)), "a" or "a/b" in lowest terms."""
    return str(Fraction(a, den))


# token kinds: the first, a middle and the last coordinate of a
# {"coeffs": [...], "n": n} entry and an integral entry's plain int, the last
# two followed by the ", " between entries or (_END) ending their value; the
# empty token fills an integral entry's other columns
FIRST, MIDDLE, LAST, LAST_END, INT, INT_END, EMPTY = range(7)
_TOKEN_FORMS = ('{{"coeffs": ["{0}", ', '"{0}", ', '"{0}"], "n": {1}}}, ', '"{0}"], "n": {1}}}', "{0}, ", "{0}", "")

# coefficients with |a| up to TOKEN_BOUND are written from cached token tables
TOKEN_BOUND = 512
TOKEN_MIN_BOUND = 32


def _tokens(kinds, texts, n: int) -> list[str]:
    """The token of each kind around each coordinate text (`_coeff_text`), in Q(q) with q of order n."""
    return [_TOKEN_FORMS[k].format(text, n) for k, text in zip(kinds, texts)]


@lru_cache(maxsize=64)
def _token_table(n: int, den: int, bound: int) -> np.ndarray:
    """Entry kind * (2 bound + 1) + bound + a is the token of that kind for a / den, |a| <= bound.

    Each coordinate text is formed once and wrapped for every kind.  The
    integer tokens are written only where den | a (the others are never
    read and stay empty).
    """
    coeffs = np.arange(-bound, bound + 1)
    texts = [_coeff_text(a, den) for a in coeffs.tolist()]
    whole = np.flatnonzero(coeffs % int_array([den], den) == 0).tolist()
    table = np.full((EMPTY + 1, len(coeffs)), "", dtype=object)
    for kind in range(EMPTY):
        cols = whole if kind >= INT else range(len(coeffs))
        table[kind, cols] = _tokens([kind] * len(cols), [texts[i] for i in cols], n)
    table.setflags(write=False)
    return table.ravel()


def _gather(n: int, den: int, kinds: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The token of kinds[i] for coeffs[i] / den at every position: one gather from a `_token_table` of (n, den).

    Coefficients past TOKEN_BOUND (of int64 or Python-int arrays) get their
    tokens from `_tokens` too, filled into the gathered array in place.
    """
    mags = np.abs(coeffs)
    top = int(mags.max(initial=0))
    inside = coeffs
    if top > TOKEN_BOUND or coeffs.dtype == object:
        big = mags > TOKEN_BOUND
        inside = np.where(big, 0, coeffs).astype(np.int64)
        top = int(np.abs(inside).max(initial=0))
    bound = max(TOKEN_MIN_BOUND, 1 << (top - 1).bit_length())
    out = _token_table(n, den, bound)[kinds * (2 * bound + 1) + (inside + bound)]
    if inside is not coeffs and big.any():
        out[big] = _tokens(kinds[big].tolist(), [_coeff_text(a, den) for a in coeffs[big].tolist()], n)
    return out


def _entry_tokens(n: int, den: int, nums: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Row i of nums over den as the tokens of its JSON entry, one per column; rows[ends] end their value, the others are followed by ", ".

    A row is integral exactly when its coordinates 1..phi-1 are 0 and den
    divides its first: its first column then takes the integer token and
    the others the empty one, so no row is brought to lowest terms.
    """
    integral = ~(nums[:, 1:] != 0).any(axis=1) & (nums[:, 0] % int_array([den], den) == 0)
    return _gather(n, den, _row_kinds(nums.shape[1])[2 * integral + ends], nums)


@lru_cache(maxsize=None)
def _row_kinds(d: int) -> np.ndarray:
    """Row 2 * integral + end holds the token kinds of the d columns of such an entry."""
    entry, whole = [FIRST] + [MIDDLE] * (d - 2), [EMPTY] * (d - 1)
    kinds = np.array([entry + [LAST], entry + [LAST_END], [INT] + whole, [INT_END] + whole])
    kinds.setflags(write=False)
    return kinds


def _matrix_text(m: np.ndarray) -> str:
    """json.dumps(m.tolist()) of a 2-D integer array (int64 or Python ints): the integer tokens of n = 1, den = 1, one join."""
    rows, cols = m.shape
    kinds = np.full((rows, cols), INT, dtype=np.int64)
    kinds[:, -1:] = INT_END
    tokens = np.empty((rows, cols + 2), dtype=object)
    tokens[:, 0], tokens[:, -1] = "[", "], "
    tokens[:, 1:-1] = _gather(1, 1, kinds, m)
    tokens[-1:, -1] = "]"
    return "[" + "".join(tokens.ravel().tolist()) + "]"


# rows encoded at once by `json_texts`: bounds the tokens alive together
JSON_BATCH_ROWS = 2048


def json_texts(values) -> list[str]:
    """The JSON text of each value of one field: a CycArray as the list of its entries, a CycNum or an ArrayEntry as one entry, a 2-D integer array as its list of rows.

    An entry is written as json.dumps(..., sort_keys=True) writes its
    JSON-ready form: a plain int when integral, else {"coeffs": [...], "n": n}
    with each coordinate as str(Fraction) (`_coeff_text`).  The rows of every
    value are gathered by denominator: the arrays, the entries of each array
    that ArrayEntries name, and the CycNums of each denominator stacked into
    one.  The rows of one denominator are written JSON_BATCH_ROWS at a time,
    a value's rows running on into the next batch where they do not fit:
    one gather of tokens per batch (`_entry_tokens`) and one join per value
    in it.
    """
    values = list(values)
    texts = [None] * len(values)
    arrays, scalars, entries = [], {}, {}  # scalars: den -> value indices, entries: id(array) -> value indices
    for i, x in enumerate(values):
        if isinstance(x, ArrayEntry):
            entries.setdefault(id(x.array), []).append(i)
        elif isinstance(x, CycArray):
            arrays.append(i)
        elif isinstance(x, CycNum):
            scalars.setdefault(x.den, []).append(i)
        else:
            texts[i] = _matrix_text(x)
    sources = [values[owners[0]].array for owners in entries.values()]
    fields = {values[i].ctx for i in chain(arrays, *scalars.values())} | {array.ctx for array in sources}
    if len(fields) > 1:
        raise ValueError("json_texts writes the values of one field")
    n = fields.pop().n if fields else None
    runs = {}  # den -> (owner, nums): an int owner is a CycArray value, a list of owners one value per row
    for i in arrays:
        runs.setdefault(values[i].den, []).append((i, values[i].nums))
    for array, owners in zip(sources, entries.values()):
        runs.setdefault(array.den, []).append((owners, array.nums[[values[i].row for i in owners]]))
    for den, owners in scalars.items():
        runs.setdefault(den, []).append((owners, int_rows([values[i].num for i in owners])))
    parts = {}
    for den, den_runs in runs.items():
        batch, room = [], JSON_BATCH_ROWS
        for owner, nums in den_runs:
            start = 0
            while start < len(nums):
                cut = min(len(nums), start + room)
                batch.append((owner if isinstance(owner, int) else owner[start:cut], nums[start:cut], cut == len(nums)))
                room -= cut - start
                start = cut
                if not room:
                    _write_batch(n, den, batch, texts, parts)
                    batch, room = [], JSON_BATCH_ROWS
        if batch:
            _write_batch(n, den, batch, texts, parts)
    for i in arrays:
        texts[i] = "[" + "".join(parts.get(i, ())) + "]"
    return texts


def _write_batch(n: int, den: int, batch, texts: list, parts: dict):
    """Write the (owner, nums, whether they end the value) runs of one batch over den: one gather, one join per value.

    An int owner is a CycArray value, whose text so far is appended to
    parts[owner]; a list owner names the one-entry value of each row.
    """
    owners, blocks, ends = zip(*batch)
    lengths = np.array([len(b) for b in blocks])
    stops = np.cumsum(lengths)
    final = np.repeat(np.array([not isinstance(o, int) for o in owners]), lengths)  # a one-entry value ends at its row
    final[stops[np.array(ends)] - 1] = True
    tokens = _entry_tokens(n, den, np.concatenate(blocks), final)
    for owner, start, stop in zip(owners, (stops - lengths).tolist(), stops.tolist()):
        if isinstance(owner, int):
            parts.setdefault(owner, []).append("".join(tokens[start:stop].ravel().tolist()))
        else:
            for i, text in zip(owner, map("".join, tokens[start:stop].tolist())):
                texts[i] = text


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

