"""The Grothendieck ring of the double, via its polynomial presentation.

With g the class of the one-dimensional module V(1,1) and x the class of
the two-dimensional module V(2,0), the ring is Z[g, x] modulo g^n = 1 and
one monic relation of degree n in x.  The class of V(ell, 0) is the
bivariate Chebyshev polynomial f_{ell-1}(x, g) = U_{ell-1}(x, g) of
`chebyshev.u_bivariate` (t = x, D = g), the relation is
f_n - g f_{n-2} - 2 = p_n(x, g) of `chebyshev.p_n_bivariate`, and
[V(ell, r)] = g^r f_{ell-1}(x, g), so the n^2 monomials g^i x^k form a
basis.  Their g-degrees stay below n/2, so g^n = 1 never folds them.

An element is an integer coefficient array: row i*n + k holds the
coefficient of g^i x^k, as phi(n) power-basis numerators over one common
denominator for elements over Q(q), or as one integer column for integer
classes.  A stack of m elements over one denominator is the same array
with m n^2 rows, and every operation below takes stacks: a single element
is a stack of one.  The products of two stacks, pair by pair, are one
batched pairwise product of the rows that are nonzero anywhere in the
stacks, through the multiplication tensor (`cyclotomic.gather_products`;
integer classes use the 1x1x1 tensor), gathered into the wide row
(k1 + k2) n + (i1 + i2 mod n), and one integer matrix product, the fold,
that keeps x^m, m < n, and rewrites x^m, m >= n, through the relation.  A
stack runs in passes of whole elements whose rows in flight (row pairs,
gathered and folded rows) number at most n^4, the pairs of one dense
product, so its temporaries stay those of one product at a time.  The
conversions to and from the basis of simple classes are fixed integer
n^2 x n^2 matrices.  Every integer product here runs through a kernel of
`cyclotomic`, which bounds it by the operands it receives and chooses
int64 or Python ints.

The ring's read-only tables are built from the `chebyshev` tables by
array operations: `x_powers[m]` is x^m reduced, m < 2n - 1 (x^n is
x^n - p_n(x, g), then x^m = x x^{m-1}), column m n + i of the fold is its
twist g^i x^m, and column (ell - 1) n + r of `to_poly_matrix` is
g^r f_{ell-1}.
`to_simple_matrix` comes from its own back-substitution of x^k through the
f_d, monic in x, never as an inverse of `to_poly_matrix`;
grothendieck-idempotents certifies that the two are inverse.

All tensor-product multiplicities are computed by multiplying in this
presentation and converting back to the basis of simple classes; the
explicit tensor decomposition rules serve as an independent cross-check
in the tests.  The integer matrices built from them are int64 numpy
arrays: the ring keeps, per ell, one table of the n products
[V(l, 0)][V(ell, 0)], and the McKay matrix of V(ell, s) is one gather
from it; the projective McKay matrix is a transpose, and the powers of
the McKay matrix of V(2, 0) are gather-add products over its nonzeros.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .chebyshev import p_n_bivariate, placed, u_bivariate
from .cyclotomic import (
    CycArray,
    CyclotomicContext,
    CycNum,
    gather_products,
    int_combination,
    int_matmul,
    int_rows,
    make_context,
    reduce_fraction,
    same_fractions,
    sparse_product,
    sparse_rows,
    split_prime,
)
from .dnrep import SimpleLabel, all_labels, label_index
from .polymat import RingMatrix, rank_mod_p

__all__ = ["PolyPres", "GrothRing", "groth_ring"]


def _twisted(elems: np.ndarray) -> np.ndarray:
    """[g, x, i, r]: the coefficient of g^g x^x in g^r times element i of a stack elems[i, g, x] (g^n = 1)."""
    n = elems.shape[1]
    return elems[:, (np.arange(n)[None, :] - np.arange(n)[:, None]) % n].transpose(2, 3, 0, 1)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


class PolyPres:
    """Element of the presentation: nums[i*n + k] / den is the coefficient of g^i x^k.

    Over Q(q) (ctx given) a row holds phi(n) power-basis numerators; an
    integer class (ctx None) has one column and den 1.  With m n^2 rows it is
    a stack of m elements over the common denominator.
    """

    __slots__ = ("ring", "nums", "den", "ctx")

    def __init__(self, ring: "GrothRing", nums: np.ndarray, den: int = 1, ctx: CyclotomicContext | None = None):
        self.ring = ring
        self.nums = nums
        self.den = den
        self.ctx = ctx

    def __eq__(self, other):
        return (
            isinstance(other, PolyPres)
            and self.ctx is other.ctx
            and same_fractions(self.nums, self.den, other.nums, other.den)
        )

    def is_zero(self):
        return not self.nums.any()

    def __len__(self):
        """The number of elements in the stack."""
        return len(self.nums) // self.ring.n**2

    def take(self, idx) -> "PolyPres":
        """The elements at the positions idx of the stack, as a stack."""
        N = self.ring.n**2
        nums = self.nums.reshape(-1, N, self.nums.shape[1])[idx]
        return PolyPres(self.ring, nums.reshape(-1, nums.shape[-1]), self.den, self.ctx)

    def scalar_mul(self, c: CycNum) -> "PolyPres":
        """Every coefficient (over Q(q)) times the scalar c."""
        scaled = CycArray(self.ctx, self.nums, self.den).scaled(c).reduced()
        return PolyPres(self.ring, scaled.nums, scaled.den, self.ctx)

    def __mul__(self, other):
        return self.ring.mul(self, other)

    def to_simple(self):
        return self.ring.poly_to_simple(self)

    def coefficients(self) -> list:
        """The n^2 coefficients in row order: ints for an integer class, canonical CycNum otherwise."""
        if self.ctx is None:
            return [int(c) for c in self.nums[:, 0]]
        return CycArray(self.ctx, self.nums, self.den).to_list()

    def __repr__(self):
        n = self.ring.n
        bits = [f"{c}*g^{pos // n}*x^{pos % n}" for pos, c in enumerate(self.coefficients()) if c]
        return "PolyPres(" + " + ".join(bits) + ")" if bits else "PolyPres(0)"


class GrothRing:
    """Per-n presentation arithmetic plus the matrices built from it."""

    def __init__(self, ctx: CyclotomicContext):
        self.ctx = ctx
        self.n = n = ctx.n
        # f_0 .. f_{n-1} as a stack [ell - 1, g, x] of presentation elements (tables [x, g], transposed)
        fs = np.stack([placed(u_bivariate(k), (n, n)).T for k in range(n)])
        # x^n = x^n - p_n(x, g); x^m = x * x^{m-1} for m = n + 1 .. 2n - 2 moves every x-degree
        # up by one, and its coefficient c of g^g x^n becomes c times column g of g_xn
        xs = [int_combination([(-1, placed(p_n_bivariate(n)[:n], (n, n)).T)])]
        g_xn = _twisted(xs[0][None]).reshape(n * n, n)
        for _ in range(n + 1, 2 * n - 1):
            up = np.zeros_like(xs[-1])
            up[:, 1:] = xs[-1][:, :-1]
            xs.append(int_combination([(1, up), (1, int_matmul(g_xn, xs[-1][:, -1:]).reshape(n, n))]))
        # x_powers[m] is x^m in the basis for m < 2n - 1, and the fold's column m*n + g, on the
        # wide rows, its twist g^g x^m
        self.x_powers = _read_only(np.concatenate([np.eye(n, n * n, dtype=np.int64).reshape(n, n, n), np.stack(xs)]))
        self._fold_rows = sparse_rows(_twisted(self.x_powers).reshape(n * n, -1))
        # basis conversions as integer matrices: column (ell-1)*n + r of to_poly_matrix is
        # g^r f_{ell-1}; column i*n + k of to_simple_matrix is g^i x^k over the simple classes
        to_poly = _read_only(_twisted(fs).reshape(n * n, n * n))
        # back-substitution of x^k, k < n, through the f_d (monic in x; columns g^r f_d of
        # to_poly), for d = n-1 .. 0: row r of block d, the coefficient of g^r x^d left over,
        # is the coefficient of g^r f_d
        resid, blocks = np.eye(n * n, n, dtype=np.int64), [None] * n
        for d in range(n - 1, -1, -1):
            blocks[d] = resid[d::n]
            resid = int_combination([(1, resid), (-1, int_matmul(to_poly[:, d * n:(d + 1) * n], blocks[d]))])
        if resid.any():
            raise ArithmeticError("x^k expansion left a residue")
        # g^i x^k = sum of coefficient [ell-1, r, k] times g^(r + i) f_{ell-1}: rows (ell-1, r + i), columns (i, k)
        self.to_poly_matrix = to_poly
        self.to_simple_matrix = _read_only(_twisted(np.stack(blocks).transpose(2, 1, 0)).transpose(1, 0, 3, 2).reshape(n * n, n * n))
        self._to_poly_rows, self._to_simple_rows = sparse_rows(to_poly), sparse_rows(self.to_simple_matrix)
        self._f_seq = PolyPres(self, to_poly[:, ::n].T.reshape(-1, 1))  # the stack f_0 .. f_{n-1}
        self._base_products: dict[int, np.ndarray] = {}
        self._mpow: list[np.ndarray] = []
        self._v20_rows: dict[str, tuple] = {}
        self._cartan = None
        self._cartan_kernel = None

    # ------------------------------------------------------------------
    # presentation arithmetic

    def from_wide(self, table: np.ndarray) -> PolyPres:
        """Reduce a polynomial in x and g into the presentation: a table [x-degree, g-degree], as the `chebyshev` tables (t = x, D = g), of x-degree below 2n - 1 and g-degree below n."""
        wide = placed(table, (2 * self.n - 1, self.n))  # row m*n + g: g^g x^m
        return PolyPres(self, sparse_product(self._fold_rows, wide.reshape(-1, 1)))

    def mul(self, a: PolyPres, b: PolyPres) -> PolyPres:
        """The products a_s b_s of two stacks of m elements, on the rows nonzero anywhere in each stack.

        Each pass gathers and folds a run of whole elements whose rows in
        flight number at most n^4 (at least one element a pass).
        """
        if a.ctx is not b.ctx:
            raise ValueError("factors over different coefficient rings")
        if len(a) != len(b):
            raise ValueError(f"stacks of {len(a)} and {len(b)} elements")
        n, N, d = self.n, self.n**2, a.nums.shape[1]
        A, B = a.nums.reshape(-1, N, d), b.nums.reshape(-1, N, d)
        ia, ib = np.flatnonzero(A.any(axis=(0, 2))), np.flatnonzero(B.any(axis=(0, 2)))
        target = np.add.outer(ia % n, ib % n) * n + np.add.outer(ia // n, ib // n) % n
        size = n * (2 * n - 1)  # rows of an unfolded product: g^g x^m, m < 2n - 1
        per = max(1, N * N // (ia.size * ib.size + 2 * size + 3 * N))
        folded = np.concatenate([
            _stackwise(self._fold_rows, gather_products(A[s:s + per][:, ia], B[s:s + per][:, ib], a.ctx, target, size).reshape(-1, d), size)
            for s in range(0, len(A), per)
        ])
        nums, den = reduce_fraction(folded, a.den * b.den)
        return PolyPres(self, nums, den, a.ctx)

    # ------------------------------------------------------------------
    # basis conversions

    def f_seq(self, ell: int) -> PolyPres:
        """The class of V(ell, 0) as the presentation polynomial f_{ell-1}(x, g)."""
        if not 1 <= ell <= self.n:
            raise ValueError(f"ell must lie in 1..{self.n}")
        return self._f_seq.take([ell - 1])

    def simple_to_poly(self, coeffs) -> PolyPres:
        """Linear map from coefficient vectors over the simple basis, n^2 entries each (a stack when longer).

        A list of ints gives an integer class, a CycArray an element over Q(q).
        """
        if isinstance(coeffs, CycArray):
            vec, den, ctx = coeffs.nums, coeffs.den, coeffs.ctx
        elif all(type(c) is int for c in coeffs):
            vec, den, ctx = int_rows([c] for c in coeffs), 1, None
        else:
            raise TypeError("simple_to_poly takes a list of ints or a CycArray")
        return PolyPres(self, _stackwise(self._to_poly_rows, vec, self.n**2), den, ctx)

    def poly_to_simple(self, p: PolyPres):
        """Inverse linear map onto the lexicographically ordered simple labels, element by element of a stack.

        An integer class gives a list of ints, an element over Q(q) a CycArray.
        """
        nums = _stackwise(self._to_simple_rows, p.nums, self.n**2)
        if p.ctx is None:
            return [int(c) for c in nums[:, 0]]
        return CycArray(p.ctx, nums, p.den).reduced()

    # ------------------------------------------------------------------
    # products of simples and McKay matrices (int64 arrays)

    def base_products(self, ell: int) -> np.ndarray:
        """Row l - 1 is [V(l, 0)][V(ell, 0)] in the simple basis, for l = 1..n: one cached, read-only int64 array from one stacked product."""
        got = self._base_products.get(ell)
        if got is None:
            n, fs = self.n, self._f_seq
            got = self._base_products[ell] = _read_only(np.array(self.poly_to_simple(self.mul(fs, fs.take([ell - 1] * n))), dtype=np.int64).reshape(n, n * n))
        return got

    def multiply_simples(self, lab1: SimpleLabel, lab2: SimpleLabel) -> list[int]:
        """Composition multiplicities of V(lab1) (x) V(lab2) over all simple labels."""
        n = self.n
        base = self.base_products(lab2.ell)[lab1.ell - 1].reshape(n, n)
        return np.roll(base, lab1.r + lab2.r, axis=1).ravel().tolist()

    def mckay_matrix(self, ell: int, s: int) -> np.ndarray:
        """Row L of the matrix is the product [V(L)][V(ell, s)] in the simple basis.

        Row (l - 1) n + r is the base product of V(l, 0) and V(ell, 0) with
        every twist moved by r + s, so the matrix is one gather from
        `base_products(ell)`: entry (l - 1) n + r, m n + t is entry
        m n + (t - r - s) mod n of row l - 1.
        """
        n = self.n
        r, col = np.arange(n)[:, None], np.arange(n * n)[None, :]
        cols = col - col % n + (col - r - s) % n  # [r, m n + t]
        return self.base_products(ell)[:, cols].reshape(n * n, n * n)

    def mckay_v20(self) -> np.ndarray:
        return self.mpow(1)

    def mpow(self, k: int) -> np.ndarray:
        """Cached, read-only powers of the McKay matrix of V(2, 0), each one gather-add product with it."""
        if not self._mpow:
            self._mpow = [np.eye(self.n * self.n, dtype=np.int64), self.mckay_matrix(2, 0)]
        while len(self._mpow) <= k:
            self._mpow.append(sparse_product(self.mckay_v20_rows("right"), self._mpow[-1]))
        return _read_only(self._mpow[k])

    def mckay_v20_rows(self, side: str) -> tuple:
        """`sparse_rows` of the McKay matrix of V(2, 0) (side "right") or of its transpose ("left"), each built once: the A of a `relation` on that side."""
        rows = self._v20_rows.get(side)
        if rows is None:
            M = self.mpow(1)
            rows = self._v20_rows[side] = sparse_rows(M.T if side == "left" else M)
        return rows

    def z_shift(self, mat: np.ndarray, e: int) -> np.ndarray:
        """Left-multiply by the block-diagonal cyclic shift: row (block, p) <- row (block, p+e)."""
        rows = np.arange(self.n * self.n)
        return mat[rows - rows % self.n + (rows + e) % self.n]

    def mckay_matrix_closed(self, ell: int, s: int) -> np.ndarray:
        """The alternating-binomial combination of shifted powers of the V(2,0) matrix."""
        return int_combination(
            ((-1) ** i * comb(ell - 1 - i, i), self.z_shift(self.mpow(ell - 1 - 2 * i), i + s))
            for i in range((ell - 1) // 2 + 1)
        )

    # ------------------------------------------------------------------
    # Cartan data and projective McKay matrices

    def projective_slots(self) -> list[SimpleLabel]:
        """Slot (ell, r) means the projective cover P(ell, r) for ell < n, V(n, r) for ell = n."""
        return all_labels(self.n)

    def dim_simple_vector(self) -> list[int]:
        return [lab.ell for lab in all_labels(self.n)]

    def dim_projective_vector(self) -> list[int]:
        n = self.n
        return [2 * n if lab.ell < n else n for lab in all_labels(n)]

    def cartan_matrix(self) -> np.ndarray:
        """Row (ell, r): [P(ell, r)] = 2 [V(ell, r)] + 2 [V(n - ell, r + ell)] for ell < n, [V(n, r)] itself."""
        if self._cartan is None:
            n = self.n
            C = np.zeros((n * n, n * n), dtype=np.int64)
            for lab in self.projective_slots():
                i = label_index(n, lab)
                if lab.ell == n:
                    C[i, i] = 1
                else:
                    C[i, i] = 2
                    C[i, label_index(n, SimpleLabel(n - lab.ell, (lab.r + lab.ell) % n))] = 2
            self._cartan = _read_only(C)
        return self._cartan

    def cartan_kernel(self) -> tuple[np.ndarray, bool, bool]:
        """(basis, annihilated, independent), built once: `cartan_kernel_basis` as integer rows, whether C kills every row, and whether the rows have full rank mod p (so over Q)."""
        if self._cartan_kernel is None:
            kb = int_rows(self.cartan_kernel_basis())
            p, _ = split_prime(1)
            self._cartan_kernel = (kb, not int_matmul(kb, self.cartan_matrix()).any(), rank_mod_p(kb % p, p) == len(kb))
        return self._cartan_kernel

    def cartan_rank(self) -> int:
        """rank C: the rank mod p from below meets n^2 minus the certified kernel basis from above, else C is eliminated."""
        C = self.cartan_matrix()
        kb, annihilated, independent = self.cartan_kernel()
        p, _ = split_prime(1)
        upper = len(C) - len(kb)
        certified = annihilated and independent and rank_mod_p(C % p, p) == upper
        return upper if certified else RingMatrix(C.tolist()).rank_over_field()

    def cartan_kernel_basis(self) -> list[list[int]]:
        """[P(ell,r)] - [P(n-ell, ell+r)] for 1 <= ell <= (n-1)/2, r in Z_n."""
        n = self.n
        out = []
        for ell in range(1, (n - 1) // 2 + 1):
            for r in range(n):
                v = [0] * (n * n)
                v[label_index(n, SimpleLabel(ell, r))] = 1
                v[label_index(n, SimpleLabel(n - ell, (ell + r) % n))] -= 1
                out.append(v)
        return out

    def cartan_image_of(self, kvec) -> list[int]:
        """Image in the simple basis of a K0 coordinate vector."""
        return int_matmul(int_rows([kvec]), self.cartan_matrix())[0].tolist()

    def projective_mckay(self, ell: int, s: int) -> np.ndarray:
        """Transpose of the McKay matrix of the dual module."""
        dual = SimpleLabel(ell, (1 - s - ell) % self.n)
        return self.mckay_matrix(dual.ell, dual.r).T

    def projective_mckay_v20_rules(self) -> np.ndarray:
        """Independent construction for V(2,0) from the explicit projective tensor rules."""
        n = self.n
        idx = lambda ell, r: label_index(n, SimpleLabel(ell, r % n))
        Q = np.zeros((n * n, n * n), dtype=np.int64)
        for lab in self.projective_slots():
            ell, r = lab.ell, lab.r
            row = Q[idx(ell, r)]
            if ell == n:
                row[idx(n - 1, r + 1)] = 1
            elif ell == 1:
                row[idx(2, r)] = 1
                row[idx(n, r + 1)] = 2
            elif ell == n - 1:
                row[idx(n - 2, r + 1)] = 1
                row[idx(n, r)] = 2
            else:
                row[idx(ell + 1, r)] = 1
                row[idx(ell - 1, r + 1)] = 1
        return Q


def _stackwise(sparse, nums: np.ndarray, size: int) -> np.ndarray:
    """The integer matrix given by `sparse_rows` applied to each element of a stack of `size`-row elements (nums has m * size rows)."""
    m, d = len(nums) // size, nums.shape[1]
    out = sparse_product(sparse, nums.reshape(m, size, d).transpose(1, 0, 2).reshape(size, m * d))
    return out.reshape(-1, m, d).transpose(1, 0, 2).reshape(-1, d)


@lru_cache(maxsize=None)
def groth_ring(n: int) -> GrothRing:
    return GrothRing(make_context(n))
