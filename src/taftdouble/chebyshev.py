"""The four Chebyshev families in monic normalization, and the block characteristic polynomial.

All families here use the monic scaling: if C_k is a classical Chebyshev
polynomial in 2t-normalization, the stored polynomial is C_k(t/2).  The
recursions are then

    U:  U_0 = 1,  U_1 = t,      U_k = t*U_{k-1} - U_{k-2}      (second kind)
    W:  W_0 = 1,  W_k = U_k + U_{k-1} for k >= 1               (fourth kind)
    L:  L_0 = 2,  L_1 = t,      L_k = t*L_{k-1} - L_{k-2}      (so L_k(x+1/x) = x^k + x^-k)
    V:  V_0 = 1,  V_1 = t - 1,  V_k = t*V_{k-1} - V_{k-2}      (third kind, V_k = U_k - U_{k-1})

`cheb_poly` returns the coefficients, low degree first, as a tuple of
Python ints from the recursion on lists.  The bivariate family U_k(t, D)
(same recursion with D in place of the constant) and the degree-n
combination

    p_n(t, D) = t*U_{n-1}(t,D) - 2*D*U_{n-2}(t,D) - 2,

the characteristic polynomial of each n x n block of the conjugated McKay
matrix of the two-dimensional module, are read-only integer tables indexed
[t-degree, D-degree], built by the integer kernels of `cyclotomic`
(`int_rows`, `int_combination`), so a coefficient past int64 is a Python
int.  The recursion is the production route; the `math.comb` closed forms
(`u_bivariate_closed`, `p_n_bivariate_closed`) are its cross-checks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import comb

import numpy as np

from .cyclotomic import int_combination, int_rows, poly_products, segment_sum

__all__ = [
    "CHEB_KINDS",
    "cheb_poly",
    "u_bivariate",
    "u_bivariate_closed",
    "p_n_bivariate",
    "p_n_bivariate_closed",
    "p_n_monic",
    "p_n_factor_check",
    "placed",
]

CHEB_KINDS = ("U", "W", "L", "V")

_SEEDS = {
    # kind -> (c_0, c_1) as integer coefficient lists
    "U": ([1], [0, 1]),
    "L": ([2], [0, 1]),
    "V": ([1], [-1, 1]),
}


@lru_cache(maxsize=None)
def cheb_poly(kind: str, k: int) -> tuple[int, ...]:
    """Integer coefficients, low degree first, of the requested family at degree k >= 0, by the recursion run upward."""
    if kind not in CHEB_KINDS:
        raise ValueError(f"unknown Chebyshev kind {kind!r}, expected one of {CHEB_KINDS}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if kind == "W":
        if k == 0:
            return cheb_poly("U", 0)
        return tuple(a + b for a, b in zip_longest(cheb_poly("U", k), cheb_poly("U", k - 1), fillvalue=0))
    prev, cur = _SEEDS[kind]
    if k == 0:
        return tuple(prev)
    for _ in range(k - 1):
        # c_{m+1} = t c_m - c_{m-1}: the coefficients of c_m one degree up, minus those of c_{m-1}
        prev, cur = cur, [a - b for a, b in zip([0] + cur, prev + [0] * (len(cur) + 1 - len(prev)))]
    return tuple(cur)


def placed(table: np.ndarray, shape: tuple, dt: int = 0, dd: int = 0) -> np.ndarray:
    """The table of t^dt D^dd times a table, in zeros of the given shape."""
    out = np.zeros(shape, dtype=table.dtype)
    out[dt:dt + table.shape[0], dd:dd + table.shape[1]] = table
    return out


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def u_bivariate(k: int) -> np.ndarray:
    """U_k(t, D) by the recursion U_k = t*U_{k-1} - D*U_{k-2}: a cached read-only (k + 1, k // 2 + 1) table."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k < 2:
        return _read_only(int_rows([[1]] if k == 0 else [[0], [1]]))
    shape = (k + 1, k // 2 + 1)
    return _read_only(int_combination([(1, placed(u_bivariate(k - 1), shape, dt=1)), (-1, placed(u_bivariate(k - 2), shape, dd=1))]))


def u_bivariate_closed(k: int) -> np.ndarray:
    """The closed form sum over j of (-1)^j C(k-j, j) t^{k-2j} D^j, as a table like `u_bivariate`'s."""
    rows = [[0] * (k // 2 + 1) for _ in range(k + 1)]
    for j in range(k // 2 + 1):
        rows[k - 2 * j][j] = (-1) ** j * comb(k - j, j)
    return _read_only(int_rows(rows))


def p_n_bivariate(n: int) -> np.ndarray:
    """p_n(t, D) = t*U_{n-1} - 2 D U_{n-2} - 2, for odd n >= 3: a read-only (n + 1, n // 2 + 1) table."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    shape = (n + 1, n // 2 + 1)
    return _read_only(int_combination([
        (1, placed(u_bivariate(n - 1), shape, dt=1)), (-2, placed(u_bivariate(n - 2), shape, dd=1)), (-2, placed(int_rows([[1]]), shape)),
    ]))


def p_n_bivariate_closed(n: int) -> np.ndarray:
    """Closed form: sum over i of (-1)^i (n/(n-i)) C(n-i, i) D^i t^{n-2i}, minus 2, as a table like `p_n_bivariate`'s."""
    rows = [[0] * (n // 2 + 1) for _ in range(n + 1)]
    for i in range(n // 2 + 1):
        num = n * comb(n - i, i)
        if num % (n - i):
            raise ArithmeticError("coefficient n/(n-i)*C(n-i,i) is not integral")
        rows[n - 2 * i][i] = (-1) ** i * (num // (n - i))
    rows[0][0] -= 2
    return _read_only(int_rows(rows))


def p_n_monic(n: int) -> np.ndarray:
    """p_n(t) over the integers (the D = 1 specialization): the sums of the rows of the table, low degree first."""
    return _read_only(segment_sum(p_n_bivariate(n).T))


def p_n_factor_check(n: int) -> bool:
    """Exact polynomial identity p_n(t) = (t - 2) * W_h(t)^2 with n = 2h + 1, multiplied by `poly_products`."""
    w = int_rows([c] for c in cheb_poly("W", (n - 1) // 2))[None]
    split = poly_products(int_rows([[-2], [1]])[None], poly_products(w, w, None), None)
    return np.array_equal(split[0, :, 0], p_n_monic(n))
