"""Exact spectral data for the McKay matrices of the double.

Everything is indexed by pairs (j, r) with 0 <= j <= (n-1)/2 and r in
Z_n: the eigenvalue is lam_{j,r} = q^r (q^j + q^{-j}), simple for j = 0
and of multiplicity two otherwise.  The Chebyshev values at the h + 1
points q^j + q^{-j} are integer counts of powers of q (`SpectralTables`).
Each family of right or left eigenvectors, Jordan completions or fusion
eigenvectors is built for every (j, r) at once from those counts: its
coefficient blocks (`SpectralTables.blocks`) are stacked over the
eigenvectors of the cyclic shift (one `CycArray.qpow_blocks` per r), and
`certificates` slices the stacks.  The stacks are what gets certified: one
`polymat.relation` call states A V = V Lambda + V N for a whole stack,
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
from .dnrep import double_rep
from .grring import PolyPres, groth_ring
from .polymat import RingMatrix, RingPoly

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


def _lag(table: np.ndarray, d: int) -> np.ndarray:
    """table[:, k - d] at degree k, zero for k < d."""
    return np.pad(table[:, :-d], ((0, 0), (d, 0), (0, 0)))


class SpectralTables:
    """Chebyshev values at the points q^j + q^{-j}, j = 0..h, and the eigenvector families built from them.

    `counts[kind][j, k, e]` is the multiplicity of q^e in the value of degree
    k at point j (a product with q^m rolls the last axis): U_k(x + 1/x) =
    sum_{m <= k} x^{k-2m}, L_k = U_k - U_{k-2} and V_k = U_k - U_{k-1} with
    U_{-1} = U_{-2} = 0 (so L_0 = 1), A_k = k U_{k-1} and S_k = A_k + S_{k-2}.
    """

    # side -> (leading, chain table, sign): block l of the vector at (j, r) is
    # lead_l q^{lr}, of its Jordan completion (j >= 1) also + chain_l q^{(l-1)r};
    # blocks stack over q^{2sr} (sign 1), or reversed over q^{-2sr} (sign -1)
    SIDES = {
        "right": ("U", "S", 1),
        "left": ("L", "A", -1),
        "fusion_right": ("L", None, 1),
        "fusion_left": ("V", None, -1),
    }

    def __init__(self, n: int):
        self.n = n
        self.ctx = make_context(n)
        self.h = h = (n - 1) // 2
        j, k, m = np.broadcast_arrays(*np.ix_(range(h + 1), range(n + 2), range(n + 2)))
        keep = m <= k
        U = np.zeros((h + 1, n + 2, n), dtype=np.int64)
        np.add.at(U, (j[keep], k[keep], (j * (k - 2 * m) % n)[keep]), 1)
        A = np.arange(n + 2)[:, None] * _lag(U, 1)
        S = np.zeros_like(A)
        S[:, 0::2], S[:, 1::2] = np.cumsum(A[:, 0::2], axis=1), np.cumsum(A[:, 1::2], axis=1)
        self.counts = {"U": U, "L": U - _lag(U, 2), "V": U - _lag(U, 1), "A": A, "S": S}
        self.values = {kind: CycArray.from_qpowers(self.ctx, self.counts[kind].reshape(-1, n)) for kind in "ULV"}
        self._stacks: dict[str, list[CycArray]] = {}

    def value(self, kind: str, j: int, k: int) -> CycNum:
        """U_k, L_k or V_k (kind "U", "L", "V") at the point q^j + q^{-j}."""
        return self.values[kind][j * (self.n + 2) + k]

    def lam(self, idx: EigIndex) -> CycNum:
        """The eigenvalue q^r (q^j + q^{-j})."""
        return self.value("U", idx.j, 1).mul_qpow(idx.r)

    def index_from_grouplike(self, i: int, k: int) -> EigIndex:
        """(j, r) with j = +-(i+k)/2 normalized into 0..(n-1)/2 and r = (i-k)/2 mod n."""
        n, inv2 = self.n, pow(2, -1, self.n)
        j = (i + k) * inv2 % n
        return EigIndex(min(j, n - j), (i - k) * inv2 % n)

    def grouplike_from_index(self, idx: EigIndex) -> tuple[int, int]:
        return ((idx.j + idx.r) % self.n, (idx.j - idx.r) % self.n)

    # ------------------------------------------------------------------
    # eigenvector families, for every (j, r) at once

    def blocks(self, side: str) -> CycArray:
        """The coefficient blocks of a side's vectors at every r: row (r, i, l) is block l of vector i at r.

        i = j for the eigenvectors, then h + j for the completions (j >= 1).
        """
        n = self.n
        lead, chain, sign = self.SIDES[side]
        r, l, e = np.ix_(range(n), range(self._size(side)), range(n))
        counts = self.counts[lead][:, l, (e - l * r) % n]  # [j, r, l, e]
        if chain:
            counts = np.concatenate([counts, counts[1:] + self.counts[chain][1:, l, (e - (l - 1) * r) % n]])
        counts = counts.transpose(1, 0, 2, 3)[:, :, ::sign]
        return CycArray.from_qpowers(self.ctx, counts.reshape(-1, n))

    def _size(self, side: str) -> int:  # vectors per r, and blocks per vector (h + 1 for fusion)
        return self.n if self.SIDES[side][1] else self.h + 1

    def coefficients(self, side: str) -> list[CycArray]:
        """Per r, the square coefficient matrix of the side's vectors at r, row by row (`blocks`)."""
        blocks = self.blocks(side)
        size = len(blocks) // self.n
        return [blocks.take(slice(r * size, (r + 1) * size)) for r in range(self.n)]

    def stack(self, side: str) -> list[CycArray]:
        """Per r, the side's vectors at r, in the order of `blocks`: each block over q^{+-2sr} (built once)."""
        if side not in self._stacks:
            exps = self.SIDES[side][2] * 2 * np.arange(self.n)
            self._stacks[side] = [c.qpow_blocks(r * exps) for r, c in enumerate(self.coefficients(side))]
        return self._stacks[side]

    def eigvec(self, family: str, idx: EigIndex) -> CycArray:
        """The vector of a side, or of its completions ("gen_right", "gen_left"), at idx: a slice of the stack."""
        side = family.removeprefix("gen_")
        if side != family and not idx.j:
            raise ValueError("j = 0 eigenvalues are simple, no Jordan completion exists")
        i = idx.j + (self.h if side != family else 0)
        size = self._size(side) * self.n
        return self.stack(side)[idx.r].take(slice(i * size, (i + 1) * size))

    def general_eigenvalue(self, idx: EigIndex, ell: int, s: int) -> CycNum:
        """Eigenvalue of the right family under the McKay matrix of V(ell, s)."""
        return self.value("U", idx.j, ell - 1).mul_qpow((ell - 1 + 2 * s) * idx.r)

    def projective_eigenvalue(self, idx: EigIndex, ell: int, s: int) -> CycNum:
        """Eigenvalue of the same families under the projective McKay matrix of V(ell, s)."""
        return self.value("U", idx.j, ell - 1).mul_qpow((1 - ell - 2 * s) * idx.r)

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
    """One eigenvalue with its exact (generalized) eigenvectors; `exact` is set where the stacks are certified (`verify.Workspace.certs`)."""

    index: EigIndex
    lam: CycNum
    right: CycArray
    left: CycArray
    gen_right: Optional[CycArray]
    gen_left: Optional[CycArray]
    exact: bool = False


def certificates(n: int) -> list[SpectralCertificate]:
    """One certificate per (j, r), its vectors sliced from the stacked families."""
    tab = spectral_tables(n)
    out = []
    for idx in eig_indices(n):
        gen = [tab.eigvec(family, idx) if idx.j else None for family in ("gen_right", "gen_left")]
        out.append(SpectralCertificate(idx, tab.lam(idx), tab.eigvec("right", idx), tab.eigvec("left", idx), *gen))
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
    chain = list(_trace_chains(n)[(-(i + k)) % n])
    vec = double_rep(n).trace_vector_S_sum(i, k, chain)
    lam = ctx.root_power(i) + ctx.root_power(-k)
    return vec.reduced(), chain, lam


@lru_cache(maxsize=None)
def _trace_chains(n: int) -> tuple[tuple[CycNum, ...], ...]:
    """At s, gamma_1, ..., gamma_s of `gen_trace_combination` (they depend on (i, k) only through s); every s shares the inverses."""
    ctx = make_context(n)
    qint = [None] + [ctx.quantum_integer(m) for m in range(1, n)]
    inv_qint = [None] + [qint[m].inverse() for m in range(1, n)]
    inv_qm1 = (ctx.root_power(1) - ctx.one()).inverse()
    chains = [()]
    for s in range(1, n):
        gammas = [ctx.one()]  # gamma_s, gamma_{s-1}, ..., gamma_1
        for l in range(s - 1, 0, -1):
            g = qint[l + 1] * qint[l + 1] * inv_qint[l] * inv_qint[s - l] * inv_qm1
            gammas.append((g * gammas[-1]).mul_qpow(s - 1 - l))
        chains.append(tuple(reversed(gammas)))
    return tuple(chains)


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

        c_u is the sum over labels of the common eigenvalue on V(ell, s), the
        right eigenvector's entry at idx, times the coordinate; the square is
        computed by the full presentation product, independent of the
        component arithmetic.
        """
        ring = self.ring
        c_u = (e * self.tab.eigvec("right", idx)).block_sum(1)[0]
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
    return spectral_tables(n).eigvec("fusion_right", idx)


def fusion_left_eigvec(n: int, idx: EigIndex) -> CycArray:
    """Blocks [q^{hr} V_h w, ..., q^r V_1 w, w] over the left shift eigenvector w."""
    return spectral_tables(n).eigvec("fusion_left", idx)
