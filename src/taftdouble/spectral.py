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
complexified Grothendieck algebra and the fusion matrix on a maximal
independent family of projectives.  The grouplike idempotents E_u cut the
algebra into components Q(q)[x]/p_r, p_r(x) = p_n(x, q^{2r}); every
nonconstant term t^a D^b of p_n has a + 2b = n (certified in
`GrothDecomposition`), so p_r(q^r y) = p_0(y) and the n components are one
algebra, Q(q)[y]/p_0, twisted n ways.  Component 0 is built once, with one
integer fold of y^n .. y^{2n-2}, and each `GrothComponent` carries it to
x = q^r y by powers of q.  Component elements are integer coefficient
arrays (`CycArray`, one row per power of x); the map to coordinates over
the simple classes stacks each coefficient over the powers of q in E_{2r}
(`CycArray.qpow_blocks`) and applies the ring's integer basis conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from typing import NamedTuple, Optional

import numpy as np

from .chebyshev import bivariate_to_poly, p_n_bivariate
from .cyclotomic import CycArray, CycNum, gather_products, int_rows, make_context
from .dnrep import all_labels, double_rep
from .grring import PolyPres, groth_ring
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

    def verify(self, M: np.ndarray) -> bool:
        """Certify M v = lam v, w M = lam w and the Jordan relations exactly; record the oracle residual."""
        lam, right, left = self.lam, self.right, self.left
        try:
            residuals = [relation(M, right, lam, "right"), relation(M, left, lam, "left")]
            if self.gen_right is not None:
                residuals.append(relation(M, self.gen_right, lam, "right", chain=right))
            if self.gen_left is not None:
                residuals.append(relation(M, self.gen_left, lam, "left", chain=left))
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


def build_mckay_blockform(n: int) -> np.ndarray:
    """The McKay matrix of V(2,0) assembled directly from its block pattern."""
    M = np.zeros((n * n, n * n), dtype=np.int64)
    for ell in range(1, n + 1):
        for r in range(n):
            row = M[(ell - 1) * n + r]
            if ell < n:
                row[ell * n + r] = 1  # block ell+1, same r
                if ell >= 2:
                    row[(ell - 2) * n + (r + 1) % n] = 1
            else:
                row[r] = 2
                row[(n - 2) * n + (r + 1) % n] = 2
    return M


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
    """Component r, Q(q)[x] modulo p_r(x) = p_n(x, q^{2r}): a view that twists component 0.

    Elements are component arrays, CycArrays of length n whose row t holds
    the coefficient of x^t.  Under x = q^r y, coefficient t of F_j, G_j and
    of each idempotent is component 0's times q^{-r(t+1)}, q^{-r(t+2)} and
    q^{-rt}; xi, theta_j, nu_j are component 0's times q^{-r}, q^{-2r}, q^{-3r}.
    """

    def __init__(self, dec: "GrothDecomposition", r: int):
        self.dec = dec
        self.ctx = dec.ctx
        self.r = r

    def twist(self, a: CycArray, shift: int) -> CycArray:
        """The component-0 array a carried here: row t times q^{-r(t + shift)}."""
        return a.qpow_rows([-self.r * (t + shift) for t in range(len(a))])

    @property
    def xi(self) -> CycNum:
        return self.dec.xi.mul_qpow(-self.r)

    @property
    def thetas(self) -> list:
        return [None] + [th.mul_qpow(-2 * self.r) for th in self.dec.thetas[1:]]

    @property
    def nus(self) -> list:
        return [None] + [nu.mul_qpow(-3 * self.r) for nu in self.dec.nus[1:]]

    @property
    def f_polys(self) -> list[CycArray]:
        """F_j = p_r / (x - lam_{j,r}) as component arrays."""
        return [self.twist(f, 1) for f in self.dec.f_polys]

    @property
    def g_polys(self) -> list:
        """G_j = F_j / (x - lam_{j,r}) for j >= 1 as component arrays (None at j = 0)."""
        return [None] + [self.twist(g, 2) for g in self.dec.g_polys[1:]]

    def idempotent_polys(self) -> list[CycArray]:
        """xi^{-1} F_0 followed by G'_j = (G_j - (nu_j / theta_j) F_j) / theta_j, idempotent in this component."""
        return [self.twist(e, 0) for e in self.dec.idempotents]

    def array(self, poly: RingPoly) -> CycArray:
        """The component array of a polynomial of degree < n."""
        n = self.dec.n
        if poly.degree() >= n:
            raise ValueError(f"degree {poly.degree()} is not below {n}")
        return CycArray.from_list(self.ctx, [poly[t] for t in range(n)])

    def mul(self, a: CycArray, b: CycArray) -> CycArray:
        """The product: pairwise coefficient products gathered by degree; x^m = q^{rm} y^m, folded mod p_0, y^t = q^{-rt} x^t."""
        dec, n = self.dec, self.dec.n
        wide = gather_products(a.nums, b.nums, self.ctx._mul_tensor, dec.degrees, 2 * n - 1)
        folded = CycArray(self.ctx, wide, a.den * b.den).qpow_rows(self.r * np.arange(2 * n - 1)).left_mul(dec.fold)
        return folded.qpow_rows(-self.r * np.arange(n)).reduced()

    def to_groth(self, a: CycArray) -> CycArray:
        """Coordinates over the simple classes of a(x) * E_{2r}, for a component array a.

        E_{2r} = (1/n) sum_v q^{-2rv} g^v, so the presentation row v*n + t is
        the coefficient of x^t times q^{-2rv} / n: each coefficient stacked
        over those powers, transposed, then the integer basis conversion.
        """
        n, d, ring = self.dec.n, self.ctx.degree, self.dec.ring
        grid = a.qpow_blocks([-2 * self.r * v for v in range(n)]).nums  # row t*n + v
        rows = grid.reshape(n, n, d).transpose(1, 0, 2).reshape(n * n, d)
        return ring.poly_to_simple(PolyPres(ring, rows, a.den * n, self.ctx))


class GrothDecomposition:
    """Component 0 with its integer fold, built once; the n components as twists of it; the E_u."""

    def __init__(self, n: int):
        self.n = n
        self.tab = tab = spectral_tables(n)
        self.ring = groth_ring(n)
        self.ctx = ctx = tab.ctx
        p_n = p_n_bivariate(n)
        off = sorted(ab for ab in p_n.terms if ab[0] + 2 * ab[1] not in (0, n))
        if off:
            raise ArithmeticError(f"terms t^a D^b of p_{n} with a + 2b not in (0, {n}): {off}")
        fold = [[int(t == m) for m in range(2 * n - 1)] for t in range(n)]
        for m in range(n, 2 * n - 1):
            for (_g, t), c in self.ring._xred[m].items():
                fold[t][m] += c
        self.fold = int_rows(fold)
        self.degrees = np.add.outer(np.arange(n), np.arange(n))
        self.components = [GrothComponent(self, r) for r in range(n)]
        base = self.components[0]
        zero, one = ctx.zero(), ctx.one()
        self.modulus = bivariate_to_poly(p_n, one, zero)
        h = tab.h
        lams = [tab.lam(EigIndex(j, 0)) for j in range(h + 1)]
        self.f_polys, self.g_polys = [], []
        for j, lam in enumerate(lams):
            lin = RingPoly([-lam, one], zero)
            f, rem = self.modulus.divmod(lin)
            g, rem2 = f.divmod(lin)
            if not rem.is_zero() or j and not rem2.is_zero():
                raise ArithmeticError(f"lam({j},0) is not a {'double ' * (j > 0)}root of the block polynomial")
            self.f_polys.append(base.array(f))
            self.g_polys.append(base.array(g) if j else None)
        self.xi = prod((lams[0] - lams[j] for j in range(1, h + 1)), start=one) ** 2
        self.thetas, self.nus, self.idempotents = [None], [None], [None]
        for j in range(1, h + 1):
            th = (lams[j] - lams[0]) * prod((lams[j] - lams[k] for k in range(1, h + 1) if k != j), start=one) ** 2
            g, f = self.g_polys[j], self.f_polys[j]
            # nu with G^2 = theta G + nu F, found by exact expansion against F
            nu = (base.mul(g, g) + g.scaled(-th)).line_coefficient(f)
            if nu is None:
                raise ArithmeticError("G^2 - theta G is not a multiple of F")
            th_inv = th.inverse()
            self.thetas.append(th)
            self.nus.append(nu)
            self.idempotents.append((g.scaled(th_inv) + f.scaled(-(nu * th_inv * th_inv))).reduced())
        self.idempotents[0] = self.f_polys[0].scaled(self.xi.inverse()).reduced()

    def e_idempotent(self, u: int) -> PolyPres:
        """E_u = (1/n) sum of q^{-uv} g^v, as a presentation element over Q(q)."""
        ctx, n = self.ctx, self.n
        nums = np.zeros((n * n, ctx.degree), dtype=np.int64)
        for v in range(n):
            nums[v * n] = ctx.root_power(-u * v).num
        return PolyPres(self.ring, nums, n, ctx)

    def f_coords(self, idx: EigIndex) -> CycArray:
        comp = self.components[idx.r]
        return comp.to_groth(comp.twist(self.f_polys[idx.j], 1))

    def g_coords(self, idx: EigIndex) -> CycArray:
        comp = self.components[idx.r]
        return comp.to_groth(comp.twist(self.g_polys[idx.j], 2))

    @cached_property
    def radical_coords(self) -> dict[EigIndex, CycArray]:
        """The coordinates of F_{j,r} for j >= 1 over the simple classes, r major; computed once."""
        h = self.tab.h
        return {idx: self.f_coords(idx) for idx in (EigIndex(j, r) for r in range(self.n) for j in range(1, h + 1))}

    @cached_property
    def idempotent_coords(self) -> dict[EigIndex, CycArray]:
        """The coordinates of the idempotent at (j, r) (`GrothComponent.idempotent_polys`), r major; computed once."""
        return {
            EigIndex(j, r): comp.to_groth(elem)
            for r, comp in enumerate(self.components)
            for j, elem in enumerate(comp.idempotent_polys())
        }

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


def build_fusion_from_rules(n: int) -> np.ndarray:
    """Rows from the explicit tensor rules, folded into the independent family."""
    size = n * ((n - 1) // 2 + 1)
    N = np.zeros((size, size), dtype=np.int64)
    for row, (ell, r) in zip(N, fusion_slots(n)):
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
    return N


def build_fusion_blockform(n: int) -> np.ndarray:
    """The displayed block pattern: I above the diagonal, Z (2Z in row 1) below, corner Z^{h+1}."""
    h = (n - 1) // 2
    N = np.zeros((n * (h + 1), n * (h + 1)), dtype=np.int64)
    r = np.arange(n)

    def put(bi, bj, shift, value):
        N[bi * n + r, bj * n + (r + shift) % n] += value

    put(0, 1, 0, 1)
    for b in range(1, h + 1):
        put(b, b - 1, 1, 2 if b == 1 else 1)
        if b < h:
            put(b, b + 1, 0, 1)
        else:
            put(h, h, h + 1, 1)
    return N


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
