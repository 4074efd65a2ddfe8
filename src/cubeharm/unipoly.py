"""Dense univariate polynomials with exact rational coefficients.

Coefficients are kept lowest degree first with trailing zeros trimmed,
so equality is plain tuple comparison.  The zero polynomial has an empty
coefficient tuple and degree -1.
"""

from fractions import Fraction
from math import comb, lcm

__all__ = ["UniPoly", "T", "ONE", "binomial_poly"]


def _coerce(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return None


def _numerators(coeffs):
    """Integer numerators over the lcm of the denominators, and that lcm."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class UniPoly:
    """Immutable polynomial in one formal variable over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, power):
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return self == UniPoly.constant(c)

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            # Convolve integer numerators; one Fraction per output coefficient.
            if not self.coeffs or not other.coeffs:
                return UniPoly()
            a, da = _numerators(self.coeffs)
            b, db = _numerators(other.coeffs)
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            den = da * db
            return UniPoly(tuple(Fraction(c, den) for c in out))
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return UniPoly(tuple(a * c for a in self.coeffs))

    __rmul__ = __mul__

    def derivative(self):
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def reciprocal(self, length):
        """Coefficient reversal: t**length * p(1/t)."""
        if length < self.degree:
            raise ValueError("reversal length below degree")
        padded = list(self.coeffs) + [Fraction(0)] * (length + 1 - len(self.coeffs))
        return UniPoly(tuple(reversed(padded)))

    def to_strings(self):
        """Serialize as a list of "p/q" strings, lowest degree first."""
        return [str(c) for c in self.coeffs]

    def pretty(self, var="t"):
        return signed_sum(
            (c, "" if power == 0 else var if power == 1 else f"{var}^{power}")
            for power, c in reversed(list(enumerate(self.coeffs)))
            if c
        )


def signed_sum(terms):
    """Text of a sum of (coefficient, monomial) terms, the monomial "" for 1.

    The first term carries only a minus sign, the others are joined by
    " + " or " - ", and a unit coefficient is left out before a monomial.
    """
    text = ""
    for c, mono in terms:
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


def binomial_poly(d):
    """(t+1)**d, read off the binomial row C(d, 0), ..., C(d, d)."""
    if d < 0:
        raise ValueError("exponent must be a nonnegative integer")
    return UniPoly(comb(d, i) for i in range(d + 1))


T = UniPoly((0, 1))
ONE = UniPoly((1,))
