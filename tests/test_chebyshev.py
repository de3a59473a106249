import json

import numpy as np
import pytest

from taftdouble.chebyshev import (
    CHEB_KINDS,
    cheb_poly,
    p_n_bivariate,
    p_n_bivariate_closed,
    p_n_factor_check,
    p_n_monic,
    u_bivariate,
    u_bivariate_closed,
)
from taftdouble.cli import main
from taftdouble.cyclotomic import make_context

from polynomial_reference import RingPoly, cheb_eval, specialized


def _poly(kind, k) -> RingPoly:
    return RingPoly(cheb_poly(kind, k))


def _table(terms: dict, shape) -> np.ndarray:
    """A table [t-degree, D-degree] from {(t-degree, D-degree): coefficient}."""
    out = np.zeros(shape, dtype=np.int64)
    for ab, c in terms.items():
        out[ab] = c
    return out


def test_seed_polynomials():
    assert cheb_poly("U", 2) == (-1, 0, 1)
    assert cheb_poly("L", 2) == (-2, 0, 1)
    assert cheb_poly("W", 1) == (1, 1)
    assert cheb_poly("V", 1) == (-1, 1)
    assert cheb_poly("U", 0) == (1,) and cheb_poly("L", 0) == (2,)
    assert all(type(c) is int for kind in CHEB_KINDS for c in cheb_poly(kind, 40))


def test_bad_arguments():
    with pytest.raises(ValueError, match="kind"):
        cheb_poly("T", 2)
    with pytest.raises(ValueError):
        cheb_poly("U", -1)


def test_values_at_two():
    for k in range(13):
        assert _poly("U", k).eval(2) == k + 1
        assert _poly("L", k).eval(2) == 2


@pytest.mark.parametrize("k", range(1, 14))
def test_family_identities(k):
    u, u1 = _poly("U", k), _poly("U", k - 1)
    assert _poly("W", k) == u + u1
    assert _poly("V", k) == u - u1
    if k >= 2:
        assert _poly("L", k) == u - _poly("U", k - 2)
    assert _poly("L", k) == _poly("V", k) + _poly("V", k - 1)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_functional_equations(n):
    ctx = make_context(n)
    h = (n - 1) // 2
    for j in range(1, h + 1):
        x = ctx.root_power(j)
        xinv = ctx.root_power(-j)
        t = x + xinv
        for k in range(1, n + 1):
            # U_k(t) (x - x^{-1}) = x^{k+1} - x^{-(k+1)}
            lhs = cheb_eval("U", k, t) * (x - xinv)
            assert lhs == ctx.root_power(j * (k + 1)) - ctx.root_power(-j * (k + 1))
            # L_k(t) = x^k + x^{-k}
            assert cheb_eval("L", k, t) == ctx.root_power(j * k) + ctx.root_power(-j * k)
            # W_k(t) (x - 1) x^k = x^{2k+1} - 1
            lhs = cheb_eval("W", k, t) * (x - ctx.one()) * ctx.root_power(j * k)
            assert lhs == ctx.root_power(j * (2 * k + 1)) - ctx.one()
        assert cheb_eval("U", n - 1, t).is_zero()
        assert cheb_eval("U", n, t) == ctx.one()
        assert cheb_eval("W", h, t).is_zero()
        # the wrap-around identity for the third kind
        assert cheb_eval("V", h + 1, t) == cheb_eval("V", h - 1, t)


def test_eval_matches_polynomial():
    ctx = make_context(7)
    pt = ctx.root_power(2) + ctx.root_power(-2)
    for kind in ("U", "W", "L", "V"):
        for k in range(8):
            assert cheb_eval(kind, k, pt) == _poly(kind, k).eval(pt)


def test_bivariate_examples():
    assert np.array_equal(u_bivariate(0), [[1]])
    assert np.array_equal(u_bivariate(2), _table({(2, 0): 1, (0, 1): -1}, (3, 2)))
    assert np.array_equal(u_bivariate(4), _table({(4, 0): 1, (2, 1): -3, (0, 2): 1}, (5, 3)))
    for k in range(15):
        assert u_bivariate(k).shape == u_bivariate_closed(k).shape == (k + 1, k // 2 + 1)
        assert np.array_equal(u_bivariate(k), u_bivariate_closed(k))
    # specializing D to 1 recovers the one-variable family
    for k in range(10):
        assert specialized(u_bivariate(k), 1) == _poly("U", k)


def test_bivariate_recursion_past_int64():
    """At k = 100 a coefficient passes 2^63: the table holds Python ints, equal to the closed form's."""
    table = u_bivariate(100)
    assert table.dtype == object and max(abs(c) for c in table.ravel().tolist()) > 2**63
    assert all(type(c) is int for c in table.ravel().tolist())
    assert np.array_equal(table, u_bivariate_closed(100))


def test_cached_tables_are_read_only():
    for table in (u_bivariate(6), u_bivariate(100), p_n_bivariate(7), p_n_monic(7)):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] += 1
    assert np.array_equal(u_bivariate(6), u_bivariate_closed(6))


def test_p_table_rows():
    assert np.array_equal(p_n_bivariate(3), _table({(3, 0): 1, (1, 1): -3, (0, 0): -2}, (4, 2)))
    assert np.array_equal(p_n_bivariate(7), _table(
        {(7, 0): 1, (5, 1): -7, (3, 2): 14, (1, 3): -7, (0, 0): -2}, (8, 4)
    ))
    assert np.array_equal(p_n_bivariate(13), _table(
        {
            (13, 0): 1, (11, 1): -13, (9, 2): 65, (7, 3): -156,
            (5, 4): 182, (3, 5): -91, (1, 6): 13, (0, 0): -2,
        },
        (14, 7),
    ))
    for n in (3, 5, 7, 9, 11, 13):
        assert p_n_bivariate(n).shape == p_n_bivariate_closed(n).shape
        assert np.array_equal(p_n_bivariate(n), p_n_bivariate_closed(n))
    with pytest.raises(ValueError):
        p_n_bivariate(4)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_factorization(n):
    assert p_n_factor_check(n)
    h = (n - 1) // 2
    w = _poly("W", h)
    assert RingPoly(p_n_monic(n).tolist()) == RingPoly([-2, 1]) * w * w
    assert RingPoly(p_n_monic(n).tolist()) == specialized(p_n_bivariate(n), 1)


def test_cli_cheb_at_large_degree(capsys):
    """k = 3000 for every kind through the CLI (the recursion runs upward, with no call depth in k).

    U is checked against the closed form at D = 1; W, V and L through
    W_k = U_k + U_{k-1}, V_k = U_k - U_{k-1} and L_k = U_k - U_{k-2}.
    """
    k = 3000
    got = {}
    for kind in CHEB_KINDS:
        assert main(["cheb", "--kind", kind, "--k", str(k), "--format", "json"]) == 0
        got[kind] = RingPoly(json.loads(capsys.readouterr().out)["coeffs"])
    u = [specialized(u_bivariate_closed(m), 1) for m in (k, k - 1, k - 2)]
    assert got["U"] == u[0]
    assert got["W"] == u[0] + u[1]
    assert got["V"] == u[0] - u[1]
    assert got["L"] == u[0] - u[2]


def test_cli_cheb_prints_the_closed_form_past_int64(capsys):
    """U_200 has coefficients past 2^63; the CLI prints them exactly, as the closed form at D = 1 gives them."""
    assert main(["cheb", "--kind", "U", "--k", "200", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["coeffs"]
    assert max(map(abs, got)) > 2**63
    assert got == specialized(u_bivariate_closed(200), 1).coeffs
