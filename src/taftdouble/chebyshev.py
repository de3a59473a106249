"""The four Chebyshev families in monic normalization, and the block characteristic polynomial.

All families here use the monic scaling: if C_k is a classical Chebyshev
polynomial in 2t-normalization, the stored polynomial is C_k(t/2).  The
recursions are then

    U:  U_0 = 1,  U_1 = t,      U_k = t*U_{k-1} - U_{k-2}      (second kind)
    W:  W_0 = 1,  W_k = U_k + U_{k-1} for k >= 1               (fourth kind)
    L:  L_0 = 2,  L_1 = t,      L_k = t*L_{k-1} - L_{k-2}      (so L_k(x+1/x) = x^k + x^-k)
    V:  V_0 = 1,  V_1 = t - 1,  V_k = t*V_{k-1} - V_{k-2}      (third kind, V_k = U_k - U_{k-1})

together with the bivariate family U_k(t, D) (same recursion with D in
place of the constant) and the degree-n combination

    p_n(t, D) = t*U_{n-1}(t,D) - 2*D*U_{n-2}(t,D) - 2,

which is the characteristic polynomial of each n x n block of the
conjugated McKay matrix of the two-dimensional module.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .polymat import RingPoly

__all__ = [
    "CHEB_KINDS",
    "cheb_poly",
    "cheb_eval",
    "u_bivariate",
    "u_bivariate_closed",
    "p_n_bivariate",
    "p_n_bivariate_closed",
    "p_n_monic",
    "p_n_factor_check",
    "bivariate_to_poly",
]

CHEB_KINDS = ("U", "W", "L", "V")

_SEEDS = {
    # kind -> (c_0, c_1) as integer coefficient lists
    "U": ([1], [0, 1]),
    "L": ([2], [0, 1]),
    "V": ([1], [-1, 1]),
}


@lru_cache(maxsize=None)
def cheb_poly(kind: str, k: int) -> RingPoly:
    """Integer polynomial of the requested family and degree k >= 0, by the recursion run upward."""
    if kind not in CHEB_KINDS:
        raise ValueError(f"unknown Chebyshev kind {kind!r}, expected one of {CHEB_KINDS}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if kind == "W":
        if k == 0:
            return cheb_poly("U", 0)
        return cheb_poly("U", k) + cheb_poly("U", k - 1)
    prev, cur = _SEEDS[kind]
    if k == 0:
        return RingPoly(prev)
    for _ in range(k - 1):
        # c_{m+1} = t c_m - c_{m-1}: the coefficients of c_m one degree up, minus those of c_{m-1}
        prev, cur = cur, [a - b for a, b in zip([0] + cur, prev + [0] * (len(cur) + 1 - len(prev)))]
    return RingPoly(cur)


def cheb_eval(kind: str, k: int, point):
    """Exact evaluation at a point of any commutative ring (runs the recursion at the point)."""
    if kind == "W":
        if k == 0:
            return point * 0 + 1
        return cheb_eval("U", k, point) + cheb_eval("U", k - 1, point)
    c0, c1 = _SEEDS[kind]
    one = point * 0 + 1
    prev = c0[0] * one
    if k == 0:
        return prev
    cur = RingPoly(c1).eval(point)
    for _ in range(k - 1):
        prev, cur = cur, point * cur - prev
    return cur


class BivariatePoly:
    """Sparse integer polynomial in t and D, keyed by (t-degree, D-degree)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BivariatePoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return BivariatePoly(out)

    def mul_t(self):
        return BivariatePoly({(td + 1, dd): v for (td, dd), v in self.terms.items()})

    def mul_d(self):
        return BivariatePoly({(td, dd + 1): v for (td, dd), v in self.terms.items()})

    def scale(self, c: int):
        return BivariatePoly({k: c * v for k, v in self.terms.items()})

    def __repr__(self):
        parts = [f"{v}*t^{td}*D^{dd}" for (td, dd), v in sorted(self.terms.items())]
        return "BivariatePoly(" + " + ".join(parts) + ")" if parts else "BivariatePoly(0)"


@lru_cache(maxsize=None)
def u_bivariate(k: int) -> BivariatePoly:
    """U_k(t, D) by the recursion U_k = t*U_{k-1} - D*U_{k-2}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return BivariatePoly({(0, 0): 1})
    if k == 1:
        return BivariatePoly({(1, 0): 1})
    return u_bivariate(k - 1).mul_t() - u_bivariate(k - 2).mul_d()


def u_bivariate_closed(k: int) -> BivariatePoly:
    """The closed form sum over j of (-1)^j C(k-j, j) t^{k-2j} D^j."""
    return BivariatePoly(
        {(k - 2 * j, j): (-1) ** j * comb(k - j, j) for j in range(k // 2 + 1)}
    )


def p_n_bivariate(n: int) -> BivariatePoly:
    """p_n(t, D) = t*U_{n-1} - 2 D U_{n-2} - 2, for odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    out = u_bivariate(n - 1).mul_t() - u_bivariate(n - 2).mul_d().scale(2)
    return out - BivariatePoly({(0, 0): 2})


def p_n_bivariate_closed(n: int) -> BivariatePoly:
    """Closed form: sum over i of (-1)^i (n/(n-i)) C(n-i, i) D^i t^{n-2i}, minus 2."""
    terms = {}
    for i in range(n // 2 + 1):
        num = n * comb(n - i, i)
        if num % (n - i):
            raise ArithmeticError("coefficient n/(n-i)*C(n-i,i) is not integral")
        terms[(n - 2 * i, i)] = (-1) ** i * (num // (n - i))
    terms[(0, 0)] = terms.get((0, 0), 0) - 2
    return BivariatePoly(terms)


def bivariate_to_poly(b: BivariatePoly, d_value, zero=0) -> RingPoly:
    """Specialize D to a ring element, producing a polynomial in t over that ring."""
    max_t = max((td for (td, _dd) in b.terms), default=-1)
    coeffs = [zero] * (max_t + 1)
    for (td, dd), v in b.terms.items():
        coeffs[td] = coeffs[td] + v * d_value**dd
    return RingPoly(coeffs, zero)


def p_n_monic(n: int) -> RingPoly:
    """p_n(t) over the integers (the D = 1 specialization)."""
    return bivariate_to_poly(p_n_bivariate(n), 1)


def p_n_factor_check(n: int) -> bool:
    """Exact polynomial identity p_n(t) = (t - 2) * W_h(t)^2 with n = 2h + 1."""
    h = (n - 1) // 2
    w = cheb_poly("W", h)
    return p_n_monic(n) == RingPoly([-2, 1]) * w * w
