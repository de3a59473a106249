"""Dense polynomials over a generic commutative ring, matrices over a field, and the relation kernel.

`RingPoly` adds, multiplies and evaluates; it carries the integer Chebyshev
polynomials.  The block polynomials over Q(q) are integer arrays, divided
and evaluated in `spectral` for every block at once.

Integer matrices (McKay, Cartan, fusion) are int64 numpy arrays
throughout; they have a few nonzeros per row, so their products with
arrays are gather-adds over those nonzeros (`cyclotomic.sparse_rows`,
`cyclotomic.sparse_product`).  A matrix over Q(q) is a `CycArray` of its
entries; `array_rank` certifies its rank full modulo a prime that splits
Q(q) (`cyclotomic.reduce_mod_p`, then `rank_mod_p`), and only a matrix not
found full there is eliminated exactly, as a `RingMatrix` of element
objects (ints, Fractions, CycNum), which also serves the named cross-checks.

`relation` is the one statement of the eigen and Jordan relations of an
integer matrix against a stack of vectors over Q(q), one eigenvalue each:
one call certifies A V = V Lambda + C exactly on integer coefficient arrays
and re-evaluates it under the complex embedding as a numeric oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .cyclotomic import CycArray, CycNum, int_combination, int_matmul, int_rows, reduce_mod_p, sparse_product, sparse_rows, split_prime

__all__ = ["RingPoly", "RingMatrix", "rank_mod_p", "array_rank", "CheckFailure", "relation"]


class CheckFailure(AssertionError):
    """A claimed exact identity does not hold.

    Raised with an explicit `raise`, never by `assert`, so that running
    under `python -O` cannot remove the certification.  `vectors` lists the
    positions in its stack of every vector a `relation` rejected.
    """

    vectors = ()


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

    def eval(self, point):
        """Horner evaluation; the point may live in a larger ring than the coefficients."""
        acc = point * 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "RingPoly(0)"
        parts = [f"({c})*t^{k}" for k, c in enumerate(self.coeffs) if c]
        return "RingPoly(" + " + ".join(parts) + ")"


def rank_mod_p(m: np.ndarray, p: int) -> int:
    """Rank over F_p of an int64 matrix of residues 0 <= m < p < 2^31, by row elimination on a copy."""
    m = m.copy()
    rank = 0
    for col in range(m.shape[1]):
        nonzero = np.flatnonzero(m[rank:, col])
        if not nonzero.size:
            continue
        pivot = rank + int(nonzero[0])
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        # entries stay below p < 2^31, so each product fits in int64
        m[rank + 1:] = (m[rank + 1:] - np.outer(m[rank + 1:, col], m[rank])) % p
        rank += 1
        if rank == len(m):
            break
    return rank


class RingMatrix:
    """Dense row-major matrix of ring elements, for exact elimination over a field.

    It serves the exact fallback of the ranks and the named cross-checks.
    """

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
        """Exact rank by elimination; entries must support exact division."""
        return len(self._echelon()[0])

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
            pivot = rows[prow][col]
            inv = pivot.inverse() if isinstance(pivot, CycNum) else 1 / Fraction(pivot)
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

    def __repr__(self):
        return f"RingMatrix({self.nrows}x{self.ncols})"


def array_rank(a: CycArray, ncols: int) -> int:
    """Exact rank over Q(q) of the matrix whose entries, row by row, are those of a.

    q -> omega (`reduce_mod_p`) maps Z[q]/Phi_n onto F_p, so a nonzero minor
    mod p is a nonzero minor over Q(q): full rank there certifies full rank.
    Any other outcome, or a denominator divisible by p, falls back to exact
    elimination (`RingMatrix.rank_over_field`).
    """
    nrows = len(a) // ncols
    full = min(nrows, ncols)
    image = reduce_mod_p(a.nums.reshape(nrows, ncols, -1), a.den, a.ctx.n)
    if full and image is not None and rank_mod_p(image, split_prime(a.ctx.n)[0]) == full:
        return full
    entries = a.to_list()
    return RingMatrix([entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]).rank_over_field()


def relation(M: np.ndarray, vecs: CycArray, lams, side: str, labels, chains: CycArray | None = None, sparse=None) -> float:
    """Certify M v_k = lam_k v_k + c_k (side "right") or v_k M = lam_k v_k + c_k (side "left") for a stack of m vectors.

    M is an integer numpy array of size N (TypeError otherwise).  vecs holds
    the m vectors one after another (the layout of `SpectralTables.stack`),
    lams and labels one eigenvalue and one name per vector, and chains is
    None (zero) or a stack of the same layout: a zero block is an eigen
    relation, any other a Jordan relation.  With the numerators V, C over dv,
    dc and those of the multiplication matrices Lambda_k over their common
    denominator dl, one integer equation is checked for the stack:

        dl*dc * (A V) == dc * (V Lambda) + dv*dl * C,    A = M (right) or M^T (left),

    A V by one gather-add over the nonzeros of A (`sparse_product`; sparse
    is their `sparse_rows`, taken here when None, passed in by the owner of
    a matrix that is certified again and again), V Lambda by one batched
    `int_matmul`, each side by one `int_combination`; each kernel picks
    its width from its operands.  A mismatch raises
    CheckFailure with the label of the first failing vector and its first
    failing coordinate; its `vectors` lists every failing position.

    Returns the numeric oracle residual, the largest over the vectors of
    max |A v_num - lam.embed() v_num - c_num| / max(1, max |v_num|), with
    the vectors embedded from the same numerators and A applied by the same
    gather-adds in complex arithmetic.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if not isinstance(M, np.ndarray) or M.dtype.kind != "i":
        raise TypeError("relation: the matrix must be an integer numpy array")
    A = M.T if side == "left" else M
    N, m, d = len(A), len(lams), vecs.ctx.degree
    if A.shape != (N, N) or len(vecs) != m * N or len(labels) != m or (chains is not None and len(chains) != len(vecs)):
        raise ValueError("relation: shapes do not match")
    if not len(vecs):
        return 0.0
    dl, dv = lcm(*(lam.den for lam in lams)), vecs.den
    dc = 1 if chains is None else chains.den
    sparse = sparse_rows(A) if sparse is None else sparse
    V = vecs.nums.reshape(m, N, d)
    AV = sparse_product(sparse, V.transpose(1, 0, 2).reshape(N, m * d)).reshape(N, m, d).transpose(1, 0, 2)
    lam_nums = int_rows([a * (dl // lam.den) for a in lam.num] for lam in lams)
    lhs = int_combination([(dl * dc, AV)])
    rhs_terms = [(dc, int_matmul(V, vecs.ctx.mul_matrices(lam_nums)))]
    if chains is not None:
        rhs_terms.append((dv * dl, chains.nums.reshape(m, N, d)))
    rhs = int_combination(rhs_terms)
    if not np.array_equal(lhs, rhs):
        wrong = (lhs != rhs).any(axis=2)
        failed = np.flatnonzero(wrong.any(axis=1))
        k = int(failed[0])
        failure = CheckFailure(f"{labels[k]}: {side} relation fails at coordinate {int(np.flatnonzero(wrong[k])[0])}")
        failure.vectors = failed.tolist()
        raise failure
    vn = vecs.embed().reshape(m, N)
    resid = sparse_product(sparse, vn.T).T - np.array([lam.embed() for lam in lams])[:, None] * vn
    if chains is not None:
        resid = resid - chains.embed().reshape(m, N)
    return float(np.max(np.max(np.abs(resid), axis=1) / np.maximum(1.0, np.max(np.abs(vn), axis=1))))
