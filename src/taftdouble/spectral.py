"""Exact spectral data for the McKay matrices of the double.

Everything is indexed by pairs (j, r) with 0 <= j <= (n-1)/2 and r in
Z_n: the eigenvalue is lam_{j,r} = q^r (q^j + q^{-j}), simple for j = 0
and of multiplicity two otherwise.  The Chebyshev values at the h + 1
points q^j + q^{-j} are integer counts of powers of q (`SpectralTables`).
Each family of right or left eigenvectors, Jordan completions or fusion
eigenvectors is built for every (j, r) at once from those counts: its
coefficient blocks (`SpectralTables.blocks`) are stacked over the
eigenvectors of the cyclic shift (one contraction for every r), and
`certificates` slices the stacks.  The stacks are what gets certified: one
`polymat.relation` call states A V = V Lambda + V N for a whole stack,
against the matrices produced in the ring module.  The n block
characteristic polynomials are one integer array too, and stacks of
polynomials over Z[q] are multiplied by linear factors, divided by them
and differentiated for every block at once (`times_linear`,
`divide_by_linear`, `poly_derivative`).

The second half constructs the idempotent decomposition of the
complexified Grothendieck algebra and the fusion matrix on a maximal
independent family of projectives.  The grouplike idempotents E_u cut the
algebra into components Q(q)[x]/p_r, p_r(x) = p_n(x, q^{2r}); every
nonconstant term t^a D^b of p_n has a + 2b = n (certified in
`GrothDecomposition`), so p_r(q^r y) = p_0(y) and the n components are one
algebra, Q(q)[y]/p_0, twisted n ways.  Component 0 is built once, with one
integer fold of y^n .. y^{2n-2}, and each `GrothComponent` carries it to
x = q^r y by powers of q.  Component elements are integer coefficient
arrays (`CycArray`, one row per power of x), multiplied a stack of pairs
at a time (`GrothComponent.mul`); the map to coordinates over
the simple classes stacks each coefficient over the powers of q in E_{2r}
and applies the ring's integer basis conversion.  Every multiplication by
powers of q here (stacks, twists, block polynomials, E_u) is one call of
the shift kernel `CycArray.qpow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .chebyshev import p_n_bivariate, p_n_monic
from .cyclotomic import CycArray, CycNum, int_combination, int_matmul, make_context, poly_products, segment_sum
from .dnrep import double_rep
from .grring import PolyPres, groth_ring

__all__ = [
    "EigIndex",
    "eig_indices",
    "SpectralTables",
    "spectral_tables",
    "SpectralCertificate",
    "certificates",
    "build_mckay_blockform",
    "block_matrices",
    "times_linear",
    "divide_by_linear",
    "poly_derivative",
    "gen_trace_combination",
    "gen_trace_combinations",
    "numerators",
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


def numerators(ctx, arrays) -> tuple[CycArray, list[int]]:
    """The numerators of the arrays one after another over denominator 1, and the denominator of each array.

    Stacked over a common denominator, every array would be scaled up to
    it; at its own scale each keeps its products as small as alone.  The
    identities stacked this way are homogeneous, or carry the denominators
    as scalars.
    """
    return CycArray.concat(ctx, [CycArray(ctx, a.nums, 1) for a in arrays]), [a.den for a in arrays]


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
        # row j n + r: lam_{j,r}, the point q^j + q^{-j} (U_1 there) times q^r
        self.eigenvalues = self.values["U"].take(np.arange(h + 1) * (n + 2) + 1).qpow([np.arange(n)])
        self._stacks: dict[str, list[CycArray]] = {}
        self._block_polys = None

    def value(self, kind: str, j: int, k: int) -> CycNum:
        """U_k, L_k or V_k (kind "U", "L", "V") at the point q^j + q^{-j}."""
        return self.values[kind][j * (self.n + 2) + k]

    def lam(self, idx: EigIndex) -> CycNum:
        """The eigenvalue q^r (q^j + q^{-j})."""
        return self.eigenvalues[idx.j * self.n + idx.r]

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
        """Per r, the side's vectors at r, in the order of `blocks`: each block over q^{+-2sr} (built once).

        One `qpow` call for every r: the blocks at r, one block of rows, each
        stacked over the powers q^{+-2sr}, s = 0..n-1.
        """
        if side not in self._stacks:
            n = self.n
            stacked = self.blocks(side).qpow(self.SIDES[side][2] * 2 * np.outer(np.arange(n), np.arange(n)))  # rows (r, i, l, s)
            size = len(stacked) // n
            self._stacks[side] = [stacked.take(slice(r * size, (r + 1) * size)) for r in range(n)]
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
    # block characteristic polynomials, for every k at once

    def block_polys(self) -> CycArray:
        """The characteristic polynomials of the n conjugated blocks: row k (n + 1) + a is the coefficient of t^a in block k (built once).

        The elimination recursion is the bivariate one with D specialized to
        q^k, u_m = t u_{m-1} - q^k u_{m-2} (u_0 = 1, u_1 = t), then
        t u_{n-1} - 2 q^k u_{n-2} - 2, run on an (n, n + 1, phi) integer array
        for every k at once: the product with q^k is one `qpow` call, block k
        of the rows times q^k.
        """
        if self._block_polys is None:
            n, ctx, d = self.n, self.ctx, self.ctx.degree

            def times_qk(u):
                return CycArray(ctx, u.reshape(-1, d), 1).qpow(np.arange(n)).nums.reshape(u.shape)

            u_prev, u_cur = np.zeros((2, n, n + 1, d), dtype=np.int64)
            u_prev[:, 0, 0], u_cur[:, 1, 0] = 1, 1
            for _ in range(2, n):
                u_prev, u_cur = u_cur, int_combination([(1, _times_t(u_cur)), (-1, times_qk(u_prev))])
            two = np.zeros_like(u_cur)
            two[:, 0, 0] = 2
            polys = int_combination([(1, _times_t(u_cur)), (-2, times_qk(u_prev)), (-1, two)])
            self._block_polys = CycArray(self.ctx, polys.reshape(-1, d), 1)
        return self._block_polys

    def block_roots(self) -> CycArray:
        """The roots of every block polynomial: row k (h + 1) + j is lam_{j,r} with 2r = k mod n, simple for j = 0, double otherwise."""
        n = self.n
        r = np.arange(n) * pow(2, -1, n) % n
        return self.eigenvalues.take((np.arange(self.h + 1) * n + r[:, None]).ravel())


def _times_t(polys: np.ndarray) -> np.ndarray:
    """t times each polynomial of a stack (m, L, d), within the same L coefficient rows (the top one must be zero)."""
    return np.concatenate([np.zeros_like(polys[:, :1]), polys[:, :-1]], axis=1)


def times_linear(ctx, polys: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """(t - roots[s]) times polynomial s of a stack: polys (m, L, d) and roots (m, d) are numerators over 1; returns (m, L + 1, d)."""
    scaled = int_matmul(polys, ctx.mul_matrices(roots))
    pad = np.zeros_like(polys[:, :1])
    return int_combination([(1, np.concatenate([pad, polys], axis=1)), (-1, np.concatenate([scaled, pad], axis=1))])


def divide_by_linear(ctx, polys: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic division of polynomial s of a stack by (t - roots[s]): (quotients (m, L - 1, d), remainders (m, d)).

    polys (m, L, d) and roots (m, d) are numerators over 1, so everything
    stays in Z[q]; the remainder is the value of the polynomial at the root.
    """
    mats = ctx.mul_matrices(roots)
    out = [polys[:, -1]]
    for a in range(polys.shape[1] - 2, -1, -1):
        out.append(int_combination([(1, polys[:, a]), (1, int_matmul(out[-1][:, None], mats)[:, 0])]))
    rem = out.pop()
    return np.stack(out[::-1], axis=1), rem


def poly_derivative(polys: np.ndarray) -> np.ndarray:
    """The derivative of each polynomial of a stack (m, L, d): (m, L - 1, d)."""
    L = polys.shape[1]
    scale = np.zeros((L - 1, L), dtype=np.int64)
    scale[np.arange(L - 1), np.arange(1, L)] = np.arange(1, L)
    return int_matmul(scale, polys)


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


def block_matrices(n: int) -> CycArray:
    """The n x n blocks of the conjugated McKay matrix for every k: row (k n + i) n + l is entry (i, l) of block k.

    1 above the diagonal, q^k below it in rows 1..n-2, and the last row has
    2 at column 0 and 2 q^k at column n - 2 (the generic determinant route).
    """
    ctx = make_context(n)
    qk = CycArray.from_list(ctx, [1]).qpow([np.arange(n)]).nums  # row k: the coefficients of q^k
    nums = np.zeros((n, n, n, ctx.degree), dtype=np.int64)  # [k, i, l]
    i = np.arange(1, n - 1)
    nums[:, np.arange(n - 1), np.arange(1, n), 0] = 1
    nums[:, i, i - 1] = qk[:, None]
    nums[:, n - 1, 0, 0] += 2
    nums[:, n - 1, n - 2] += 2 * qk
    return CycArray(ctx, nums.reshape(-1, ctx.degree), 1)


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
    ks, vecs, chains, lams = gen_trace_combinations(n, i)
    pos, size = ks.index(k % n), n * n
    return vecs.take(slice(pos * size, (pos + 1) * size)).reduced(), chains[pos], lams[pos]


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


@lru_cache(maxsize=None)
def _trace_chain_table(n: int) -> CycArray:
    """Row s (n - 1) + t - 1 is gamma_t of the chain at s (`_trace_chains`), zero for t > s: every chain as one array."""
    ctx, chains = make_context(n), _trace_chains(n)
    return CycArray.from_list(ctx, [chains[s][t] if t < s else 0 for s in range(n) for t in range(n - 1)])


def gen_trace_combinations(n: int, i: int):
    """`gen_trace_combination` at (i, k) for every k with i + k != 0 mod n, stacked: (ks, vectors, chains, lams).

    The chain at (i, k) depends only on s = -(i+k) mod n, so the padded
    chains are rows of one table and the vectors one `trace_vectors_S_sum` call.
    """
    ks = [k for k in range(n) if (i + k) % n]
    s = np.array([(-(i + k)) % n for k in ks])
    coeffs = _trace_chain_table(n).take((s[:, None] * (n - 1) + np.arange(n - 1)).ravel())
    vecs = double_rep(n).trace_vectors_S_sum([i] * len(ks), ks, coeffs)
    counts = np.zeros((len(ks), n), dtype=np.int64)
    counts[:, i % n] += 1
    counts[np.arange(len(ks)), -np.array(ks) % n] += 1
    lams = CycArray.from_qpowers(make_context(n), counts).to_list()  # q^i + q^{-k}
    return ks, vecs.reduced(), [list(_trace_chains(n)[x]) for x in s], lams


# ----------------------------------------------------------------------
# idempotents and the structure of the Grothendieck algebra


class GrothComponent:
    """Component r, Q(q)[x] modulo p_r(x) = p_n(x, q^{2r}): a view that twists component 0.

    Elements are component arrays, CycArrays of length n whose row t holds
    the coefficient of x^t; m of them one after another are a stack.  Under
    x = q^r y, coefficient t of F_j, G_j and of each idempotent is component
    0's times q^{-r(t+1)}, q^{-r(t+2)} and q^{-rt}; xi, theta_j, nu_j are
    component 0's times q^{-r}, q^{-2r}, q^{-3r}.
    """

    def __init__(self, dec: "GrothDecomposition", r: int):
        self.dec = dec
        self.ctx = dec.ctx
        self.r = r

    def twist(self, elems: list[CycArray], shift: int) -> list[CycArray]:
        """The component-0 arrays elems carried here, each over its own denominator: row t of each times q^{-r(t + shift)}, all in one `qpow` call."""
        n = self.dec.n
        nums = np.concatenate([e.nums for e in elems])
        twisted = CycArray(self.ctx, nums, 1).qpow(-self.r * (np.arange(len(nums)) % n + shift)).nums
        return [CycArray(self.ctx, twisted[k * n:(k + 1) * n], e.den) for k, e in enumerate(elems)]

    @property
    def scalars(self) -> CycArray:
        """xi, theta_1..theta_h, nu_1..nu_h of this component, as one array."""
        h = self.dec.tab.h
        return self.dec.scalars.qpow(-self.r * np.repeat([1, 2, 3], [1, h, h]))

    @property
    def xi(self) -> CycNum:
        return self.scalars[0]

    @property
    def thetas(self) -> list:
        h = self.dec.tab.h
        return [None] + self.scalars.take(slice(1, h + 1)).to_list()

    @property
    def nus(self) -> list:
        h = self.dec.tab.h
        return [None] + self.scalars.take(slice(h + 1, 2 * h + 1)).to_list()

    @property
    def f_polys(self) -> list[CycArray]:
        """F_j = p_r / (x - lam_{j,r}) as component arrays."""
        return self.twist(self.dec.f_polys, 1)

    @property
    def g_polys(self) -> list:
        """G_j = F_j / (x - lam_{j,r}) for j >= 1 as component arrays (None at j = 0)."""
        return [None] + self.twist(self.dec.g_polys[1:], 2)

    def idempotent_polys(self) -> list[CycArray]:
        """xi^{-1} F_0 followed by G'_j = (G_j - (nu_j / theta_j) F_j) / theta_j, idempotent in this component."""
        return self.twist(self.dec.idempotents, 0)

    def mul(self, a: CycArray, b: CycArray) -> CycArray:
        """The products a_s b_s of two stacks of m component arrays (a stack of one is one product).

        The coefficient products gathered by degree (`poly_products`), then
        x^m = q^{rm} y^m for m >= n (one `qpow` call, block m - n of the rows
        times q^{rm}), folded mod p_0 by the shared integer fold, and
        y^t = q^{-rt} x^t (one more `qpow` call).
        """
        ctx, n, d = self.ctx, self.dec.n, self.ctx.degree
        wide = poly_products(a.nums.reshape(-1, n, d), b.nums.reshape(-1, n, d), ctx)
        m = len(wide)
        high = CycArray(ctx, wide[:, n:].transpose(1, 0, 2).reshape(-1, d), 1).qpow(self.r * np.arange(n, 2 * n - 1))  # rows (s, item)
        folded = CycArray(ctx, int_matmul(self.dec.fold[:, n:], high.nums.reshape(n - 1, m * d)).reshape(-1, d), 1)  # rows (t, item)
        low = folded.qpow(-self.r * np.arange(n)).nums.reshape(n, m, d).transpose(1, 0, 2)
        nums = int_combination([(1, wide[:, :n]), (1, low)])
        return CycArray(self.ctx, nums.reshape(-1, d), a.den * b.den).reduced()

    def to_groth(self, a: CycArray) -> CycArray:
        """Coordinates over the simple classes of a(x) * E_{2r}, for each element of a stack a of component arrays.

        E_{2r} = (1/n) sum_v q^{-2rv} g^v, so the presentation row v*n + t is
        the coefficient of x^t times q^{-2rv} / n: each coefficient stacked
        over those powers, transposed, then the integer basis conversion.
        """
        n, d, ring = self.dec.n, self.ctx.degree, self.dec.ring
        grid = a.qpow([[-2 * self.r * v for v in range(n)]]).nums  # row (s, t, v)
        rows = grid.reshape(-1, n, n, d).transpose(0, 2, 1, 3).reshape(-1, d)
        return ring.poly_to_simple(PolyPres(ring, rows, a.den * n, self.ctx))


class GrothDecomposition:
    """Component 0 with its integer fold, built once; the n components as twists of it; the E_u.

    F_j and G_j are divided out of p_0 by synthetic division for every j at
    once.  With p_0 = (x - lam_0) prod (x - lam_j)^2 the scalars are values:
    xi = F_0(lam_0), theta_j = G_j(lam_j), and nu_j = G_j'(lam_j), since
    G_j - theta_j = (x - lam_j) H with H(lam_j) = G_j'(lam_j) gives
    G_j^2 - theta_j G_j = F_j H = nu_j F_j modulo p_0.
    """

    def __init__(self, n: int):
        self.n = n
        self.tab = tab = spectral_tables(n)
        self.ring = groth_ring(n)
        self.ctx = ctx = tab.ctx
        off = [(int(a), int(b)) for a, b in np.argwhere(p_n_bivariate(n)) if a + 2 * b not in (0, n)]
        if off:
            raise ArithmeticError(f"terms t^a D^b of p_{n} with a + 2b not in (0, {n}): {off}")
        self.fold = segment_sum(self.ring.x_powers.transpose(1, 2, 0))  # [x, m]: x^m at g = 1, summed over g
        self.components = [GrothComponent(self, r) for r in range(n)]
        h, d = tab.h, ctx.degree
        lams = tab.eigenvalues.take(np.arange(h + 1) * n).nums  # lam_{j,0}
        modulus = np.zeros((h + 1, n + 1, d), dtype=np.int64)
        modulus[:, :, 0] = p_n_monic(n)
        f, rem = divide_by_linear(ctx, modulus, lams)
        g, rem2 = divide_by_linear(ctx, f[1:], lams[1:])
        bad = np.flatnonzero(rem.any(axis=1) | np.concatenate([[False], rem2.any(axis=1)]))
        if bad.size:
            j = int(bad[0])
            raise ArithmeticError(f"lam({j},0) is not a {'double ' * (j > 0)}root of the block polynomial")
        g = np.concatenate([g, np.zeros_like(g[:, :1])], axis=1)
        values = [divide_by_linear(ctx, p, x)[1] for p, x in ((f[:1], lams[:1]), (g, lams[1:]), (poly_derivative(g), lams[1:]))]
        self.scalars = CycArray(ctx, np.concatenate(values), 1)  # xi, theta_1..theta_h, nu_1..nu_h
        self.xi, *rest = self.scalars.to_list()
        self.thetas, self.nus = [None] + rest[:h], [None] + rest[h:]
        self.f_polys = [CycArray(ctx, x, 1) for x in f]
        self.g_polys = [None] + [CycArray(ctx, x, 1) for x in g]
        self.idempotents = [self.f_polys[0].scaled(self.xi.inverse()).reduced()]
        for j in range(1, h + 1):
            th_inv = self.thetas[j].inverse()
            mixed = self.g_polys[j].scaled(th_inv) + self.f_polys[j].scaled(-(self.nus[j] * th_inv * th_inv))
            self.idempotents.append(mixed.reduced())

    def e_idempotents(self) -> PolyPres:
        """E_u = (1/n) sum of q^{-uv} g^v for u = 0..n-1, as a stack of n presentation elements over Q(q)."""
        ctx, n = self.ctx, self.n
        nums = np.zeros((n, n, n, ctx.degree), dtype=np.int64)  # [u, v, x, p]
        nums[:, :, 0] = CycArray.from_list(ctx, [1]).qpow([-np.outer(np.arange(n), np.arange(n)).ravel()]).nums.reshape(n, n, -1)
        return PolyPres(self.ring, nums.reshape(-1, ctx.degree), n, ctx)

    def _coords(self, elems, js) -> dict[EigIndex, CycArray]:
        """Coordinates over the simple classes of the component arrays elems(comp) at (j, r), j in js: one `to_groth` call per component."""
        size, out = self.n * self.n, {}
        for r, comp in enumerate(self.components):
            stack, dens = numerators(self.ctx, elems(comp))
            coords = comp.to_groth(stack)
            for pos, j in enumerate(js):
                out[EigIndex(j, r)] = CycArray(self.ctx, coords.nums[pos * size:(pos + 1) * size], coords.den * dens[pos])
        return out

    @cached_property
    def radical_coords(self) -> dict[EigIndex, CycArray]:
        """The coordinates of F_{j,r} for j >= 1 over the simple classes, r major; computed once."""
        return self._coords(lambda comp: comp.f_polys[1:], range(1, self.tab.h + 1))

    @cached_property
    def idempotent_coords(self) -> dict[EigIndex, CycArray]:
        """The coordinates of the idempotent at (j, r) (`GrothComponent.idempotent_polys`), r major; computed once."""
        return self._coords(GrothComponent.idempotent_polys, range(self.tab.h + 1))

    def jordan_coords(self, r: int) -> CycArray:
        """The coordinates of G_{j,r}, j = 1..h, stacked: one `to_groth` call, not kept (G_j has denominator 1)."""
        comp = self.components[r]
        return comp.to_groth(CycArray.concat(self.ctx, comp.g_polys[1:]))

    def eigenidem_certificates(self, indices: list[EigIndex], coords: list[CycArray]) -> tuple[CycArray, np.ndarray]:
        """(c, exact) for coordinate vectors e_s = sum e_i [S_i] at indices[s]: e_s^2 must equal c_s e_s.

        c_s is the sum over labels of the common eigenvalue on V(ell, s), the
        right eigenvector's entry at indices[s], times the coordinate; the
        squares are one stacked full presentation product, independent of
        the component arithmetic.  The identity is homogeneous in e_s, so it
        is certified on the numerators (`numerators`), and c_s divided by
        the denominator afterwards.
        """
        ring, ctx, size = self.ring, self.ctx, self.n * self.n
        m = len(indices)
        elems, dens = numerators(ctx, coords)
        right = CycArray.concat(ctx, [self.tab.eigvec("right", idx) for idx in indices])
        c = CycArray(ctx, segment_sum((elems * right).nums, np.arange(m) * size), right.den)
        poly = ring.simple_to_poly(elems)
        squares = ring.poly_to_simple(ring.mul(poly, poly))
        expected = elems * c.take(np.repeat(np.arange(m), size))  # over c.den, as elems are over 1
        c = CycArray.concat(ctx, [CycArray(ctx, c.nums[s:s + 1], c.den * dens[s]) for s in range(m)])
        return c.reduced(), ~squares.mismatches(expected, size)


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
