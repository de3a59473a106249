"""Exact spectral data for the McKay matrices of the double.

Everything is indexed by pairs (j, r) with 0 <= j <= (n-1)/2 and r in
Z_n: the eigenvalue is lam_{j,r} = q^r (q^j + q^{-j}), simple for j = 0
and of multiplicity two otherwise.  Right eigenvectors, left
eigenvectors, and the rank-one Jordan completions are all built from
Chebyshev values at q^j + q^{-j} stacked over the eigenvectors of the
cyclic shift (`SpectralTables.shift_stack`, one `CycArray.qpow_blocks`),
and every claimed relation is certified by exact residual computations
against the matrices produced in the ring module.

The second half constructs the idempotent decomposition of the
complexified Grothendieck algebra (components cut out by the grouplike
idempotents E_u, then polynomial arithmetic modulo the block
characteristic polynomial) and the fusion matrix on a maximal
independent family of projectives.  Component elements are integer
coefficient arrays (`CycArray`, one row per power of x): a product is one
batched pairwise product of the rows, gathered by degree, and one integer
fold of x^n .. x^{2n-2} through the block polynomial, whose reductions
have coefficients in Z[q]; the map to coordinates over the simple classes
is a twist by the powers of q in E_{2r} and the ring's integer basis
conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .chebyshev import bivariate_to_poly, p_n_bivariate
from .cyclotomic import CycArray, CycNum, gather_products, int_array, make_context
from .dnrep import all_labels, double_rep
from .grring import GrothRing, PolyPres, groth_ring
from .polymat import CheckFailure, RingMatrix, RingPoly, relation

__all__ = [
    "EigIndex",
    "eig_indices",
    "SpectralTables",
    "spectral_tables",
    "SpectralCertificate",
    "certificates",
    "build_mckay_blockform",
    "block_matrix",
    "gen_trace_combination",
    "GrothDecomposition",
    "groth_decomposition",
    "fusion_slots",
    "build_fusion_blockform",
    "build_fusion_from_rules",
    "fusion_right_eigvec",
    "fusion_left_eigvec",
]


class EigIndex(NamedTuple):
    j: int
    r: int


def eig_indices(n: int) -> list[EigIndex]:
    return [EigIndex(j, r) for j in range((n + 1) // 2) for r in range(n)]


class SpectralTables:
    """Cached Chebyshev values at the points q^j + q^{-j} and the derived eigendata."""

    def __init__(self, n: int):
        self.n = n
        self.ctx = make_context(n)
        ctx = self.ctx
        h = (n - 1) // 2
        self.h = h
        self.points = [ctx.root_power(j) + ctx.root_power(-j) for j in range(h + 1)]
        self.u_vals = [self._chain(t, ctx.one(), t) for t in self.points]
        self.l_vals = [self._chain(t, ctx.from_rational(2), t) for t in self.points]
        self.v_vals = [self._chain(t, ctx.one(), t - 1) for t in self.points]

    def _chain(self, t: CycNum, c0: CycNum, c1: CycNum) -> list[CycNum]:
        out = [c0, c1]
        for _ in range(2, self.n + 2):
            out.append(t * out[-1] - out[-2])
        return out

    def lam(self, idx: EigIndex) -> CycNum:
        """The eigenvalue q^r (q^j + q^{-j})."""
        return self.points[idx.j].mul_qpow(idx.r)

    def index_from_grouplike(self, i: int, k: int) -> EigIndex:
        """(j, r) with j = +-(i+k)/2 normalized into 0..(n-1)/2 and r = (i-k)/2 mod n."""
        n = self.n
        inv2 = pow(2, -1, n)
        j = (i + k) * inv2 % n
        r = (i - k) * inv2 % n
        if j > self.h:
            j = n - j
        return EigIndex(j, r)

    def grouplike_from_index(self, idx: EigIndex) -> tuple[int, int]:
        return ((idx.j + idx.r) % self.n, (idx.j - idx.r) % self.n)

    # ------------------------------------------------------------------
    # eigenvector families for the McKay matrix of V(2, 0)

    def right_coeffs(self, idx: EigIndex) -> list[CycNum]:
        """Block coefficients of the right eigenvector: q^{l r} U_l at the point, l = 0..n-1."""
        u = self.u_vals[idx.j]
        return [u[l].mul_qpow(l * idx.r) for l in range(self.n)]

    def gen_right_coeffs(self, idx: EigIndex) -> list[CycNum]:
        if idx.j == 0:
            raise ValueError("j = 0 eigenvalues are simple, no Jordan completion exists")
        u = self.u_vals[idx.j]
        out = [self.ctx.one()]
        for k in range(1, self.n):
            acc = self.ctx.zero()
            for s in range((k - 1) // 2 + 1):
                acc = acc + u[k - 1 - 2 * s] * (k - 2 * s)
            out.append(u[k].mul_qpow(k * idx.r) + acc.mul_qpow((k - 1) * idx.r))
        return out

    def left_coeffs(self, idx: EigIndex) -> list[CycNum]:
        """Block coefficients [w_0, w_1, ..., w_{n-1}]; the left eigenvector stacks them reversed."""
        lv = self.l_vals[idx.j]
        return [self.ctx.one()] + [lv[k].mul_qpow(k * idx.r) for k in range(1, self.n)]

    def gen_left_coeffs(self, idx: EigIndex) -> list[CycNum]:
        if idx.j == 0:
            raise ValueError("j = 0 eigenvalues are simple, no Jordan completion exists")
        u = self.u_vals[idx.j]
        r = idx.r
        out = [self.ctx.one(), u[1].mul_qpow(r) + 1]
        for k in range(2, self.n):
            out.append(
                (u[k] - u[k - 2]).mul_qpow(k * r) + (u[k - 1] * k).mul_qpow((k - 1) * r)
            )
        return out

    def shift_stack(self, coeffs: list[CycNum], r: int) -> CycArray:
        """Stack coeffs[l] * v0 over blocks l, where v0 = (q^{2sr})_s is the shift eigenvector.

        Left families pass their coefficients reversed and -r, for w0 = (q^{-2sr})_s.
        """
        return CycArray.from_list(self.ctx, coeffs).qpow_blocks([2 * s * r for s in range(self.n)])

    def right_eigvec(self, idx: EigIndex) -> CycArray:
        return self.shift_stack(self.right_coeffs(idx), idx.r)

    def gen_right_eigvec(self, idx: EigIndex) -> CycArray:
        return self.shift_stack(self.gen_right_coeffs(idx), idx.r)

    def left_eigvec(self, idx: EigIndex) -> CycArray:
        return self.shift_stack(self.left_coeffs(idx)[::-1], -idx.r)

    def gen_left_eigvec(self, idx: EigIndex) -> CycArray:
        return self.shift_stack(self.gen_left_coeffs(idx)[::-1], -idx.r)

    def general_eigenvalue(self, idx: EigIndex, ell: int, s: int) -> CycNum:
        """Eigenvalue of the right family under the McKay matrix of V(ell, s)."""
        return self.u_vals[idx.j][ell - 1].mul_qpow((ell - 1 + 2 * s) * idx.r)

    def projective_eigenvalue(self, idx: EigIndex, ell: int, s: int) -> CycNum:
        """Eigenvalue of the same families under the projective McKay matrix of V(ell, s)."""
        return self.u_vals[idx.j][ell - 1].mul_qpow((1 - ell - 2 * s) * idx.r)

    # ------------------------------------------------------------------
    # block characteristic polynomial

    def block_charpoly(self, k: int) -> RingPoly:
        """Characteristic polynomial of the k-th conjugated block, by the elimination recursion.

        The recursion is the bivariate one with D specialized to q^k:
        u_m = t u_{m-1} - q^k u_{m-2}, then t u_{n-1} - 2 q^k u_{n-2} - 2.
        """
        ctx = self.ctx
        zero, one = ctx.zero(), ctx.one()
        qk = ctx.root_power(k)
        t = RingPoly([zero, one], zero)
        u_prev = RingPoly([one], zero)
        u_cur = t
        for _ in range(2, self.n):
            u_prev, u_cur = u_cur, t * u_cur - u_prev * qk
        p = t * u_cur - u_prev * (qk * 2)
        return p - RingPoly([ctx.from_rational(2)], zero)

    def block_roots(self, k: int) -> tuple[CycNum, list[CycNum]]:
        """(simple root, double roots) of the k-th block polynomial: r with 2r = k."""
        r = k * pow(2, -1, self.n) % self.n
        lams = [self.lam(EigIndex(j, r)) for j in range(self.h + 1)]
        return lams[0], lams[1:]


@lru_cache(maxsize=None)
def spectral_tables(n: int) -> SpectralTables:
    return SpectralTables(n)


@dataclass
class SpectralCertificate:
    """One eigenvalue with its exact (generalized) eigenvectors and residual flags."""

    index: EigIndex
    lam: CycNum
    right: CycArray
    left: CycArray
    gen_right: Optional[CycArray]
    gen_left: Optional[CycArray]
    exact: bool = False
    oracle_residual: float = float("inf")

    def verify(self, M: RingMatrix) -> bool:
        """Certify M v = lam v, w M = lam w and the Jordan relations exactly; record the oracle residual."""
        A = M if isinstance(M, np.ndarray) else M.int_array()
        lam, right, left = self.lam, self.right, self.left
        try:
            residuals = [relation(A, right, lam, "right"), relation(A, left, lam, "left")]
            if self.gen_right is not None:
                residuals.append(relation(A, self.gen_right, lam, "right", chain=right))
            if self.gen_left is not None:
                residuals.append(relation(A, self.gen_left, lam, "left", chain=left))
        except CheckFailure:
            self.exact = False
            self.oracle_residual = float("inf")
            return False
        self.exact = True
        self.oracle_residual = max(residuals)
        return True


def certificates(n: int) -> list[SpectralCertificate]:
    tab = spectral_tables(n)
    out = []
    for idx in eig_indices(n):
        gen_r = tab.gen_right_eigvec(idx) if idx.j else None
        gen_l = tab.gen_left_eigvec(idx) if idx.j else None
        out.append(
            SpectralCertificate(
                idx, tab.lam(idx), tab.right_eigvec(idx), tab.left_eigvec(idx), gen_r, gen_l
            )
        )
    return out


def build_mckay_blockform(n: int) -> RingMatrix:
    """The McKay matrix of V(2,0) assembled directly from its block pattern."""
    rows = []
    for ell in range(1, n + 1):
        for r in range(n):
            row = [0] * n * n
            if ell < n:
                row[ell * n + r] = 1  # block ell+1, same r
                if ell >= 2:
                    row[(ell - 2) * n + (r + 1) % n] = 1
            else:
                row[(r % n)] = 2
                row[(n - 2) * n + (r + 1) % n] = 2
            rows.append(row)
    return RingMatrix(rows)


def block_matrix(n: int, k: int) -> RingMatrix:
    """The k-th n x n block of the conjugated McKay matrix (generic determinant route)."""
    ctx = make_context(n)
    zero, one = ctx.zero(), ctx.one()
    qk = ctx.root_power(k)
    m = RingMatrix.zeros(n, n, zero)
    for i in range(n - 1):
        m.rows[i][i + 1] = one
        if i + 1 < n - 1:
            m.rows[i + 1][i] = qk
    m.rows[n - 1][0] = m.rows[n - 1][0] + 2
    m.rows[n - 1][n - 2] = m.rows[n - 1][n - 2] + qk * 2
    return m


# ----------------------------------------------------------------------
# generalized eigenvectors from traces of non-grouplike elements


def gen_trace_combination(n: int, i: int, k: int):
    """The combination sum of gamma_l Tr_S(b^i c^k d^l a^l), with its coefficient chain.

    Defined for i + k != 0 mod n; s = -(i+k) mod n, gamma_s = 1, and each
    earlier coefficient is [l+1]^2 q^{s-1-l} / ([l] [s-l] (q-1)) times the next.
    Returns (vector, gammas, lam) with lam = q^i + q^{-k}.
    """
    if (i + k) % n == 0:
        raise ValueError("requires i + k != 0 mod n (otherwise the trace vector is a plain eigenvector)")
    ctx = make_context(n)
    chain = list(_trace_chain(n, (-(i + k)) % n))
    vec = double_rep(n).trace_vector_S_sum(i, k, chain)
    lam = ctx.root_power(i) + ctx.root_power(-k)
    return vec.reduced(), chain, lam


@lru_cache(maxsize=None)
def _trace_chain(n: int, s: int) -> tuple[CycNum, ...]:
    """gamma_1, ..., gamma_s of `gen_trace_combination`, which depend on (i, k) only through s."""
    ctx = make_context(n)
    qint = [None] + [ctx.quantum_integer(m) for m in range(1, n)]
    inv_qint = [None] + [qint[m].inverse() for m in range(1, n)]
    inv_qm1 = (ctx.root_power(1) - ctx.one()).inverse()
    gammas = {s: ctx.one()}
    for l in range(s - 1, 0, -1):
        g = qint[l + 1] * qint[l + 1] * inv_qint[l] * inv_qint[s - l] * inv_qm1
        gammas[l] = (g * gammas[l + 1]).mul_qpow(s - 1 - l)
    return tuple(gammas[l] for l in range(1, s + 1))


# ----------------------------------------------------------------------
# idempotents and the structure of the Grothendieck algebra


class GrothComponent:
    """The r-th component: Q(q)[x] modulo the block polynomial p_r at q^{2r}.

    The defining polynomials (modulus, F_j, G_j) are RingPolys; the
    arithmetic runs on component arrays, CycArrays of length n whose row t
    holds the coefficient of x^t.
    """

    def __init__(self, tab: SpectralTables, ring: GrothRing, r: int):
        self.tab = tab
        self.ring = ring
        self.r = r
        ctx = tab.ctx
        n = tab.n
        self.ctx = ctx
        zero = ctx.zero()
        self.zero = zero
        self.modulus = bivariate_to_poly(p_n_bivariate(n), ctx.root_power(2 * r), zero)
        # x^m mod p_r for m = n .. 2n-2, with coefficients in Z[q] because p_r is monic,
        # as one integer matrix: row (m-n)*phi + e maps coordinate e of x^m onto the x^t
        top = [-self.modulus[t] for t in range(n)]
        powers = [top]
        for _m in range(n + 1, 2 * n - 1):
            prev = powers[-1]
            powers.append([prev[n - 1] * top[0]] + [prev[t - 1] + prev[n - 1] * top[t] for t in range(1, n)])
        rows = [CycArray.from_list(ctx, row) for row in powers]
        if any(row.den != 1 for row in rows):
            raise ArithmeticError(f"p_{r} is not monic over Z[q]")
        d = ctx.degree
        fold = np.tensordot(np.array([row.nums for row in rows]), ctx._mul_tensor, axes=([2], [0]))
        self._fold = fold.transpose(0, 2, 1, 3).reshape((n - 1) * d, n * d)
        self._fold_norm = 1 + int(np.abs(self._fold).sum(axis=0).max())
        self._degrees = np.add.outer(np.arange(n), np.arange(n))
        # row v: multiplication by q^{-2rv}, the g^v coefficient of E_{2r} up to 1/n
        self._twist = np.array([ctx.mul_matrix(ctx.root_power(-2 * r * v)) for v in range(n)])
        self.lams = [tab.lam(EigIndex(j, r)) for j in range(tab.h + 1)]
        lin = lambda lam: RingPoly([-lam, ctx.one()], zero)
        self.f_polys = []
        self.g_polys = [None]
        for j in range(tab.h + 1):
            q, rem = self.modulus.divmod(lin(self.lams[j]))
            if not rem.is_zero():
                raise ArithmeticError(
                    f"lam({j},{r}) is not a root of the block polynomial; eigenvalue table is wrong"
                )
            self.f_polys.append(q)
            if j:
                q2, rem2 = q.divmod(lin(self.lams[j]))
                if not rem2.is_zero():
                    raise ArithmeticError(
                        f"lam({j},{r}) is not a double root of the block polynomial"
                    )
                self.g_polys.append(q2)
        self.xi = self._product((self.lams[0] - self.lams[j]) for j in range(1, tab.h + 1)) ** 2
        self.thetas = [None]
        self.nus = [None]
        for j in range(1, tab.h + 1):
            th = (self.lams[j] - self.lams[0]) * self._product(
                (self.lams[j] - self.lams[k]) for k in range(1, tab.h + 1) if k != j
            ) ** 2
            self.thetas.append(th)
            self.nus.append(self._solve_nu(j, th))

    def _product(self, items) -> CycNum:
        acc = self.ctx.one()
        for it in items:
            acc = acc * it
        return acc

    def array(self, poly: RingPoly) -> CycArray:
        """The component array of a polynomial of degree < n."""
        n = self.tab.n
        if poly.degree() >= n:
            raise ValueError(f"degree {poly.degree()} is not below {n}")
        return CycArray.from_list(self.ctx, [poly[t] for t in range(n)])

    def mul(self, a: CycArray, b: CycArray) -> CycArray:
        """The product in the component: all pairwise coefficient products, gathered by degree, folded through p_r."""
        n, d = self.tab.n, self.ctx.degree
        wide = gather_products(a.nums, b.nums, self.ctx._mul_tensor, self._degrees, 2 * n - 1, self._fold_norm)
        nums = wide[:n] + (wide[n:].reshape(1, -1) @ self._fold).reshape(n, d)
        return CycArray(self.ctx, nums, a.den * b.den).reduced()

    def _solve_nu(self, j: int, theta: CycNum) -> CycNum:
        """nu with G^2 = theta G + nu F, found by exact expansion against F."""
        g = self.array(self.g_polys[j])
        nu = (self.mul(g, g) + g.scaled(-theta)).line_coefficient(self.array(self.f_polys[j]))
        if nu is None:
            raise ArithmeticError("G^2 - theta G is not a multiple of F")
        return nu

    def g_prime(self, j: int) -> CycArray:
        """G'_j = (G_j - (nu_j / theta_j) F_j) / theta_j, as a component array."""
        th_inv = self.thetas[j].inverse()
        g, f = self.array(self.g_polys[j]), self.array(self.f_polys[j])
        return (g.scaled(th_inv) + f.scaled(-(self.nus[j] * th_inv * th_inv))).reduced()

    def idempotent_polys(self) -> list[CycArray]:
        """xi^{-1} F_0 followed by G'_j, all idempotent in this component, as component arrays."""
        out = [self.array(self.f_polys[0]).scaled(self.xi.inverse()).reduced()]
        out.extend(self.g_prime(j) for j in range(1, self.tab.h + 1))
        return out

    def to_groth(self, elem) -> CycArray:
        """Coordinates over the simple classes of elem(x) * E_{2r}; elem is a RingPoly or a component array.

        E_{2r} = (1/n) sum_v q^{-2rv} g^v, so the presentation row v*n + t is
        the coefficient of x^t times q^{-2rv} / n: one twist, then the
        integer basis conversion.
        """
        a = self.array(elem) if isinstance(elem, RingPoly) else elem
        n, d = self.tab.n, self.ctx.degree
        bound = a.max_abs() * d * int(np.abs(self._twist).max())
        grid = np.tensordot(int_array(a.nums, bound), int_array(self._twist, bound), axes=([1], [1]))
        rows = grid.transpose(1, 0, 2).reshape(n * n, d)
        return self.ring.poly_to_simple(PolyPres(self.ring, rows, a.den * n, self.ctx))


class GrothDecomposition:
    """All components, plus the grouplike idempotents E_u as presentation elements."""

    def __init__(self, n: int):
        self.n = n
        self.tab = spectral_tables(n)
        self.ring = groth_ring(n)
        self.ctx = self.tab.ctx
        self.components = [GrothComponent(self.tab, self.ring, r) for r in range(n)]

    def e_idempotent(self, u: int) -> PolyPres:
        """E_u = (1/n) sum of q^{-uv} g^v, as a presentation element over Q(q)."""
        ctx, n = self.ctx, self.n
        nums = np.zeros((n * n, ctx.degree), dtype=np.int64)
        for v in range(n):
            nums[v * n] = ctx.root_power(-u * v).num
        return PolyPres(self.ring, nums, n, ctx)

    def f_coords(self, idx: EigIndex) -> CycArray:
        comp = self.components[idx.r]
        return comp.to_groth(comp.f_polys[idx.j])

    def g_coords(self, idx: EigIndex) -> CycArray:
        comp = self.components[idx.r]
        return comp.to_groth(comp.g_polys[idx.j])

    def idempotent_coords(self) -> list[tuple[EigIndex, CycArray]]:
        out = []
        for r, comp in enumerate(self.components):
            for j, elem in enumerate(comp.idempotent_polys()):
                out.append((EigIndex(j, r), comp.to_groth(elem)))
        return out

    def eigenidem_certificate(self, idx: EigIndex, e: CycArray):
        """(c_u, exact) for e = sum e_i [S_i]: e^2 must equal c_u e under the ring product.

        c_u is the sum over labels of the common-eigenvalue beta_j times the
        coordinate, and the square is computed by the full presentation
        product, independent of the component arithmetic.
        """
        ring, tab = self.ring, self.tab
        c_u = self.ctx.zero()
        for lab, x in zip(all_labels(self.n), e.to_list()):
            if x:
                c_u = c_u + tab.general_eigenvalue(idx, lab.ell, lab.r) * x
        elem = ring.simple_to_poly(e)
        return c_u, ring.poly_to_simple(ring.mul(elem, elem)) == e.scaled(c_u)


@lru_cache(maxsize=None)
def groth_decomposition(n: int) -> GrothDecomposition:
    return GrothDecomposition(n)


# ----------------------------------------------------------------------
# the fusion matrix on a maximal independent family of projectives


def fusion_slots(n: int) -> list[tuple[int, int]]:
    """Slots (ell, r): ell = n means V(n, r); ell = 1..(n-1)/2 means P(ell, r)."""
    h = (n - 1) // 2
    return [(n, r) for r in range(n)] + [(ell, r) for ell in range(1, h + 1) for r in range(n)]


def _fusion_index(n: int, ell: int, r: int) -> int:
    h = (n - 1) // 2
    r %= n
    if ell == n:
        return r
    if not 1 <= ell <= h:
        raise ValueError("slot out of the independent family")
    return ell * n + r


def _reduce_projective(n: int, ell: int, r: int) -> tuple[int, int]:
    """Fold P(ell, r) for ell > (n-1)/2 onto its equal-class partner P(n-ell, ell+r)."""
    h = (n - 1) // 2
    if ell <= h or ell == n:
        return ell, r % n
    return n - ell, (ell + r) % n


def build_fusion_from_rules(n: int) -> RingMatrix:
    """Rows from the explicit tensor rules, folded into the independent family."""
    h = (n - 1) // 2
    rows = []
    for ell, r in fusion_slots(n):
        row = [0] * (n * (h + 1))
        if ell == n:
            t_ell, t_r = _reduce_projective(n, n - 1, r + 1)
            row[_fusion_index(n, t_ell, t_r)] += 1
        else:
            if ell == 1:
                row[_fusion_index(n, n, r + 1)] += 2
            else:
                t_ell, t_r = _reduce_projective(n, ell - 1, r + 1)
                row[_fusion_index(n, t_ell, t_r)] += 1
            t_ell, t_r = _reduce_projective(n, ell + 1, r)
            row[_fusion_index(n, t_ell, t_r)] += 1
        rows.append(row)
    return RingMatrix(rows)


def build_fusion_blockform(n: int) -> RingMatrix:
    """The displayed block pattern: I above the diagonal, Z (2Z in row 1) below, corner Z^{h+1}."""
    h = (n - 1) // 2
    size = n * (h + 1)
    rows = [[0] * size for _ in range(size)]

    def put(bi, bj, shift, value):
        for r in range(n):
            rows[bi * n + r][bj * n + (r + shift) % n] += value

    put(0, 1, 0, 1)
    for b in range(1, h + 1):
        put(b, b - 1, 1, 2 if b == 1 else 1)
        if b < h:
            put(b, b + 1, 0, 1)
        else:
            put(h, h, h + 1, 1)
    return RingMatrix(rows)


def fusion_right_eigvec(n: int, idx: EigIndex) -> CycArray:
    """Blocks [v, q^r L_1 v, ..., q^{hr} L_h v] over the shift eigenvector v."""
    tab = spectral_tables(n)
    lv = tab.l_vals[idx.j]
    coeffs = [tab.ctx.one()] + [lv[b].mul_qpow(b * idx.r) for b in range(1, tab.h + 1)]
    return tab.shift_stack(coeffs, idx.r)


def fusion_left_eigvec(n: int, idx: EigIndex) -> CycArray:
    """Blocks [q^{hr} V_h w, ..., q^r V_1 w, w] over the left shift eigenvector w."""
    tab = spectral_tables(n)
    vv = tab.v_vals[idx.j]
    coeffs = [tab.ctx.one()] + [vv[k].mul_qpow(k * idx.r) for k in range(1, tab.h + 1)]
    return tab.shift_stack(coeffs[::-1], -idx.r)
