"""Scalar polynomial routes kept as named references for the tests.

Division with remainder, the monic gcd and the derivative of `RingPoly`s,
one coefficient at a time in the coefficient ring (ints, Fractions or
CycNum), and the component array of a polynomial.  The package divides
and evaluates stacked integer arrays instead (`spectral.divide_by_linear`,
`spectral.poly_derivative`); these are the independent cross-checks.
"""

from fractions import Fraction

from taftdouble.cyclotomic import CycArray, CycNum
from taftdouble.polymat import RingPoly


def _inverse(x):
    return x.inverse() if isinstance(x, CycNum) else 1 / Fraction(x)


def poly_divmod(p: RingPoly, d: RingPoly) -> tuple[RingPoly, RingPoly]:
    """(quotient, remainder) of p by d; d's leading coefficient must be invertible."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead = d.coeffs[-1]
    lead_inv = None if lead == 1 else _inverse(lead)
    rem, db = list(p.coeffs), d.degree()
    if p.degree() < db:
        return RingPoly([], p.zero), RingPoly(rem, p.zero)
    quot = [p.zero] * (len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem[i + db] if lead_inv is None else rem[i + db] * lead_inv
        if c:
            quot[i] = c
            for j, dj in enumerate(d.coeffs):
                if dj:
                    rem[i + j] = rem[i + j] - c * dj
    return RingPoly(quot, p.zero), RingPoly(rem[:db], p.zero)


def poly_monic(p: RingPoly) -> RingPoly:
    if p.is_zero():
        return p
    inv = _inverse(p.coeffs[-1])
    return RingPoly([c * inv for c in p.coeffs], p.zero)


def poly_gcd(a: RingPoly, b: RingPoly) -> RingPoly:
    """Monic gcd over a field, by Euclid's algorithm."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_derivative(p: RingPoly) -> RingPoly:
    return RingPoly([k * c for k, c in enumerate(p.coeffs)][1:], p.zero)


def component_array(comp, poly: RingPoly) -> CycArray:
    """The component array (n rows) of a polynomial of degree below n."""
    n = comp.dec.n
    assert poly.degree() < n, poly
    return CycArray.from_list(comp.ctx, [poly[t] for t in range(n)])
