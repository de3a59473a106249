"""Dense polynomials and matrices over a generic commutative ring.

Entries may be Python ints, Fractions, or CycNum; the element objects
carry the arithmetic.  Rank and kernel computations require field
entries (exact division).  Everything is exact, no floating point; a
rank is first certified full modulo a prime that splits Q(q), and only
a matrix that is not found full there is eliminated over the field.

`relation` is the one statement of the eigen and Jordan relations of an
integer matrix against a vector over Q(q): it certifies them exactly on
integer coefficient arrays and re-evaluates them under the complex
embedding as a numeric oracle.  The integer matrices (McKay, Cartan,
fusion) have a few nonzeros per row, so their products with arrays are
gather-adds over those nonzeros (`sparse_rows`, `sparse_product`).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cyclotomic import CycArray, CycNum, int_array, split_prime

__all__ = ["RingPoly", "RingMatrix", "field_inverse", "CheckFailure", "relation", "sparse_rows", "sparse_product"]


class CheckFailure(AssertionError):
    """A claimed exact identity does not hold.

    Raised with an explicit `raise`, never by `assert`, so that running
    under `python -O` cannot remove the certification.
    """


def field_inverse(x):
    """Multiplicative inverse of a field element (Fraction, int as rational, CycNum)."""
    if isinstance(x, CycNum):
        return x.inverse()
    return 1 / Fraction(x)


class RingPoly:
    """Polynomial with coefficients in a commutative ring, low degree first.

    Trailing zeros are trimmed on construction, so degree bookkeeping is
    consistent after every operation.  The additive identity of the ring
    must be supplied (0, Fraction(0), or ctx.zero()).
    """

    __slots__ = ("coeffs", "zero")

    def __init__(self, coeffs, zero=0):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = coeffs
        self.zero = zero

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.zero

    def __eq__(self, other):
        return isinstance(other, RingPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RingPoly(
            [self[k] + other[k] for k in range(n)], self.zero
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RingPoly([self[k] - other[k] for k in range(n)], self.zero)

    def __neg__(self):
        return RingPoly([-c for c in self.coeffs], self.zero)

    def __mul__(self, other):
        if not isinstance(other, RingPoly):
            return RingPoly([c * other for c in self.coeffs], self.zero)
        if self.is_zero() or other.is_zero():
            return RingPoly([], self.zero)
        out = [self.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return RingPoly(out, self.zero)

    __rmul__ = __mul__

    def shift(self, k: int) -> "RingPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return RingPoly([self.zero] * k + self.coeffs, self.zero)

    def divmod(self, other):
        """Division with remainder; the divisor's leading coefficient must be invertible."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        monic = other.coeffs[-1] == 1
        lead_inv = None if monic else field_inverse(other.coeffs[-1])
        rem = list(self.coeffs)
        db = other.degree()
        if self.degree() < db:
            return RingPoly([], self.zero), RingPoly(rem, self.zero)
        q = [self.zero] * (len(rem) - db)
        for i in range(len(rem) - db - 1, -1, -1):
            c = rem[i + db] if monic else rem[i + db] * lead_inv
            if c:
                q[i] = c
                for j, bj in enumerate(other.coeffs):
                    if bj:
                        rem[i + j] = rem[i + j] - c * bj
        return RingPoly(q, self.zero), RingPoly(rem[:db], self.zero)

    def eval(self, point):
        """Horner evaluation; the point may live in a larger ring than the coefficients."""
        acc = point * 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "RingPoly":
        return RingPoly([k * c for k, c in enumerate(self.coeffs)][1:], self.zero)

    def monic(self) -> "RingPoly":
        if self.is_zero():
            return self
        inv = field_inverse(self.coeffs[-1])
        return RingPoly([c * inv for c in self.coeffs], self.zero)

    def gcd(self, other) -> "RingPoly":
        """Monic gcd over a field."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def __repr__(self):
        if not self.coeffs:
            return "RingPoly(0)"
        parts = [f"({c})*t^{k}" for k, c in enumerate(self.coeffs) if c]
        return "RingPoly(" + " + ".join(parts) + ")"


class RingMatrix:
    """Dense row-major matrix over a commutative ring."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @staticmethod
    def identity(n: int, one=1, zero=0) -> "RingMatrix":
        return RingMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(nrows: int, ncols: int, zero=0) -> "RingMatrix":
        return RingMatrix([[zero] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))
        )

    def __add__(self, other):
        self._check_shape(other, same=True)
        return RingMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        self._check_shape(other, same=True)
        return RingMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return RingMatrix([[-a for a in r] for r in self.rows])

    def _check_shape(self, other, same=False):
        if same:
            if (self.nrows, self.ncols) != (other.nrows, other.ncols):
                raise ValueError(
                    f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
                )
        elif self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch for product: {self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}"
            )

    def __mul__(self, other):
        if not isinstance(other, RingMatrix):
            return self.scalar_mul(other)
        self._check_shape(other)
        brows = other.rows
        out = []
        for arow in self.rows:
            acc = None
            for k, a in enumerate(arow):
                if a:
                    brow = brows[k]
                    if acc is None:
                        acc = [a * b for b in brow]
                    else:
                        for j, b in enumerate(brow):
                            if b:
                                acc[j] = acc[j] + a * b
            if acc is None:
                z = arow[0] * 0
                acc = [z] * other.ncols
            out.append(acc)
        return RingMatrix(out)

    def scalar_mul(self, c) -> "RingMatrix":
        return RingMatrix([[c * a for a in r] for r in self.rows])

    __rmul__ = scalar_mul

    def mat_vec(self, vec):
        """Product with a column vector (a plain list), skipping zero entries."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.rows:
            acc = None
            for a, v in zip(row, vec):
                if a:
                    term = v * a
                    acc = term if acc is None else acc + term
            if acc is None:
                acc = vec[0] * 0
            out.append(acc)
        return out

    def vec_mat(self, vec):
        """Row vector times matrix."""
        if len(vec) != self.nrows:
            raise ValueError("vector length mismatch")
        z = vec[0] * 0
        acc = [z] * self.ncols
        for v, row in zip(vec, self.rows):
            if v:
                for j, a in enumerate(row):
                    if a:
                        acc[j] = acc[j] + v * a
        return acc

    def transpose(self) -> "RingMatrix":
        return RingMatrix(list(map(list, zip(*self.rows)))) if self.rows else self

    def __pow__(self, k: int) -> "RingMatrix":
        """k-th power by square-and-multiply (about 2 log2 k products)."""
        if self.nrows != self.ncols:
            raise ValueError("pow of a non-square matrix")
        if k < 0:
            raise ValueError(f"negative matrix power: {k}")
        if k == 0:
            sample = self.rows[0][0]
            one = sample - sample + 1 if not isinstance(sample, int) else 1
            zero = sample * 0
            return RingMatrix.identity(self.nrows, one, zero)
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def map(self, fn) -> "RingMatrix":
        return RingMatrix([[fn(a) for a in r] for r in self.rows])

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.rows)

    def rank_over_field(self) -> int:
        """Exact rank; entries must support exact division.

        The rank is first taken modulo the prime p of `split_prime(n)` under
        q -> omega, a ring map Z[q]/Phi_n -> F_p (n = 1 when no entry is a
        CycNum).  A nonzero minor modulo p is a nonzero minor over Q(q), so
        full rank there is full rank here; any other outcome, or a
        denominator divisible by p, falls back to exact elimination.
        """
        full = min(self.nrows, self.ncols)
        if full and self._rank_mod_p() == full:
            return full
        return len(self._echelon()[0])

    def _rank_mod_p(self):
        """Rank of the image over F_p, or None when p divides a denominator."""
        ctx = next((a.ctx for r in self.rows for a in r if isinstance(a, CycNum)), None)
        p, omega = split_prime(ctx.n if ctx else 1)
        powers = [pow(omega, k, p) for k in range(ctx.degree if ctx else 1)]
        image = []
        for row in self.rows:
            for a in row:
                if type(a) is int:
                    num, den = a, 1
                elif isinstance(a, CycNum):
                    num, den = sum(c * w for c, w in zip(a.num, powers)), a.den
                else:
                    a = Fraction(a)
                    num, den = a.numerator, a.denominator
                if den % p == 0:
                    return None
                image.append(num * pow(den, -1, p) % p)
        m = np.array(image, dtype=np.int64).reshape(self.nrows, self.ncols)
        rank = 0
        for col in range(self.ncols):
            nonzero = np.flatnonzero(m[rank:, col])
            if not nonzero.size:
                continue
            pivot = rank + int(nonzero[0])
            m[[rank, pivot]] = m[[pivot, rank]]
            m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
            # entries stay below p < 2^31, so each product fits in int64
            m[rank + 1:] = (m[rank + 1:] - np.outer(m[rank + 1:, col], m[rank])) % p
            rank += 1
            if rank == self.nrows:
                break
        return rank

    def _echelon(self):
        """Row echelon form by exact elimination; returns (pivot columns, rows)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        prow = 0
        for col in range(self.ncols):
            sel = None
            for i in range(prow, len(rows)):
                if rows[i][col]:
                    sel = i
                    break
            if sel is None:
                continue
            rows[prow], rows[sel] = rows[sel], rows[prow]
            inv = field_inverse(rows[prow][col])
            rows[prow] = [a * inv for a in rows[prow]]
            for i in range(len(rows)):
                if i != prow and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[prow])]
            pivots.append(col)
            prow += 1
            if prow == len(rows):
                break
        return pivots, rows

    def kernel_basis_over_field(self, one=Fraction(1)):
        """Exact basis of the right kernel; each vector v satisfies M v = 0."""
        pivots, rows = self._echelon()
        zero = one * 0
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [zero] * self.ncols
            v[fc] = one
            for prow, pc in enumerate(pivots):
                v[pc] = -rows[prow][fc] * one
            basis.append(v)
        return basis

    def char_poly_small(self) -> RingPoly:
        """det(t*I - M) for dimension <= 32, by the trace recursion (exact, division by integers only)."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        if n > 32:
            raise ValueError("char_poly_small is restricted to dimension <= 32")
        sample = self.rows[0][0]
        promote = isinstance(sample, int)
        A = self.map(Fraction) if promote else self
        one = Fraction(1) if promote else sample - sample + 1
        zero = one * 0
        ident = RingMatrix.identity(n, one, zero)
        coeffs = [one]  # c_0 = 1, descending powers
        Mk = ident
        for k in range(1, n + 1):
            AM = A * Mk
            ck = -(AM.trace() * Fraction(1, k))
            coeffs.append(ck)
            if k < n:
                Mk = AM + ident.scalar_mul(ck)
        return RingPoly(list(reversed(coeffs)), zero)

    def to_lists(self):
        return [list(r) for r in self.rows]

    def int_array(self) -> np.ndarray:
        """The entries as an integer numpy array (int64 when they fit, Python ints otherwise)."""
        if not all(type(a) is int for r in self.rows for a in r):
            raise TypeError("int_array needs a matrix of Python ints")
        return int_array(self.rows, max((abs(a) for r in self.rows for a in r), default=0))

    def __repr__(self):
        return f"RingMatrix({self.nrows}x{self.ncols})"


def relation(
    M, vec: CycArray, lam: CycNum, side: str, chain: CycArray | None = None, what: str = "relation"
) -> float:
    """Certify M v = lam v + chain (side "right") or v M = lam v + chain (side "left").

    M is an integer matrix (a RingMatrix of ints, or an integer numpy array);
    vec and chain are CycArrays; chain None means zero, an eigenvector
    relation, and a chain vector makes it a Jordan relation.
    With the numerators V, C over denominators dv, dc and the multiplication
    matrix L of lam over dl, the identity is checked as the integer equation

        dl*dc * (A V) == dc * (V L) + dv*dl * C,    A = M (right) or M^T (left),

    in int64 when max(R mV dl dc, phi mV mL dc + mC dv dl) < 2^62 (R the
    largest absolute row sum of A, mV, mL, mC the largest absolute
    numerators), and in Python ints otherwise; A V gathers and adds rows
    of V over the nonzeros of each row of A.  A mismatch raises
    CheckFailure naming `what` and the first failing coordinate.

    Returns the numeric oracle residual of the same identity:
    max |A_num v_num - lam.embed() v_num - c_num| / max(1, max |v_num|),
    with A embedded as a complex matrix and the vectors embedded from the
    same numerator arrays.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    ctx = lam.ctx
    A = M if isinstance(M, np.ndarray) else M.int_array()
    if side == "left":
        A = A.T
    if A.shape != (len(vec), len(vec)) or (chain is not None and len(chain) != len(vec)):
        raise ValueError(f"{what}: shapes do not match")
    L, dl, dv = ctx.mul_matrix(lam), lam.den, vec.den
    dc, mC = (1, 0) if chain is None else (chain.den, chain.max_abs())
    R = int(np.abs(A).sum(axis=1).max(initial=0))
    mV, mL = vec.max_abs(), int(np.abs(L).max())
    bound = max(R * mV * dl * dc, ctx.degree * mV * mL * dc + mC * dv * dl)
    cols, vals = sparse_rows(A)
    V = int_array(vec.nums, bound)
    lhs = sparse_product((cols, int_array(vals, bound)), V) * (dl * dc)
    rhs = (V @ int_array(L, bound)) * dc
    if chain is not None:
        rhs = rhs + int_array(chain.nums, bound) * (dv * dl)
    if not np.array_equal(lhs, rhs):
        bad = int(np.flatnonzero((lhs != rhs).any(axis=1))[0])
        raise CheckFailure(f"{what}: {side} relation fails at coordinate {bad}")
    if not len(vec):
        return 0.0
    vn = vec.embed()
    resid = A.astype(complex) @ vn - lam.embed() * vn
    if chain is not None:
        resid = resid - chain.embed()
    return float(np.max(np.abs(resid)) / max(1.0, float(np.max(np.abs(vn)))))


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
    """A @ B for A given by `sparse_rows`: each row of the product gathers and adds w rows of B."""
    cols, vals = sparse
    return (vals[:, :, None] * B[cols]).sum(axis=1)
