"""Scalar polynomial routes kept as named references for the tests.

`RingPoly` is a dense polynomial over any commutative ring (ints,
Fractions or CycNum), one coefficient at a time.  Division with remainder,
the monic gcd and the derivative of `RingPoly`s, the specialization of a
`chebyshev` table at a value of D, and the component array of a
polynomial build on it; `cheb_eval` runs a Chebyshev recursion at a point
of any ring.  The package multiplies, divides and evaluates
integer arrays instead (`chebyshev` tables, `spectral.divide_by_linear`,
`spectral.poly_derivative`); these are the independent cross-checks.
"""

from fractions import Fraction

from taftdouble.cyclotomic import CycArray, CycNum


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


def cheb_eval(kind: str, k: int, point):
    """The `chebyshev.cheb_poly` polynomial of a kind and degree at a point of any commutative ring, by its recursion run at the point."""
    if kind == "W":
        if k == 0:
            return point * 0 + 1
        return cheb_eval("U", k, point) + cheb_eval("U", k - 1, point)
    c0, (c1_0, c1_1) = {"U": (1, (0, 1)), "L": (2, (0, 1)), "V": (1, (-1, 1))}[kind]
    one = point * 0 + 1
    prev = c0 * one
    if k == 0:
        return prev
    cur = point * c1_1 + c1_0 * one
    for _ in range(k - 1):
        prev, cur = cur, point * cur - prev
    return cur


def specialized(table, d_value, zero=0) -> RingPoly:
    """The polynomial in t of a `chebyshev` table [t-degree, D-degree] at D = d_value."""
    return RingPoly([sum((int(c) * d_value**b for b, c in enumerate(row) if c), zero) for row in table.tolist()], zero)


def component_array(comp, poly: RingPoly) -> CycArray:
    """The component array (n rows) of a polynomial of degree below n."""
    n = comp.dec.n
    assert poly.degree() < n, poly
    return CycArray.from_list(comp.ctx, [poly[t] for t in range(n)])
