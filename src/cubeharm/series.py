"""Truncated formal power series with exact coefficients.

A series of order N stores exactly N + 1 coefficients (the part known
modulo z**(N+1)).  Binary operations on mismatched orders truncate to
the smaller order.  Coefficients may be rationals or univariate
polynomials: anything with +, - and *, whose zero is `c * 0` and is
falsy.  A series pads itself with the zero of its own first coefficient.
"""

from fractions import Fraction

__all__ = ["TruncatedSeries", "series_div", "series_log"]


class TruncatedSeries:
    """Power series truncated at a fixed order, with exact coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs)[: order + 1]
        zero = cs[0] * 0 if cs else Fraction(0)
        cs += [zero] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    def coefficient(self, power):
        if 0 <= power <= self.order:
            return self.coeffs[power]
        raise IndexError(f"coefficient z^{power} beyond truncation order {self.order}")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r}, order={self.order})"

    def __add__(self, other):
        order = min(self.order, other.order)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), order)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = [self.coeffs[0] * 0] * (order + 1)
        for i in range(order + 1):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, order)

    def scale(self, factor):
        """Multiply every coefficient by a fixed coefficient or scalar."""
        return TruncatedSeries(tuple(c * factor for c in self.coeffs), self.order)


def series_div(numerator, denominator):
    """Exact series quotient q with q * denominator = numerator, truncated
    at the smaller order of the two.

    The constant term of the denominator must be 1; any other raises
    ValueError.
    """
    if denominator.coeffs[0] != 1:
        raise ValueError("series_div requires a denominator with constant term one")
    order = min(numerator.order, denominator.order)
    quotient = []
    for j in range(order + 1):
        acc = numerator.coeffs[j]
        for i in range(j):
            acc = acc - quotient[i] * denominator.coeffs[j - i]
        quotient.append(acc)
    return TruncatedSeries(quotient, order)


def series_log(series):
    """Logarithm of a series with constant term one, at the same order.

    Computed from the derivative quotient: log(s)' = s'/s, integrated
    term by term, which keeps all arithmetic among the coefficients.
    """
    if series.coeffs[0] != 1:
        raise ValueError("series_log requires constant term one")
    order = series.order
    out = [series.coeffs[0] * 0] * (order + 1)
    if order >= 1:
        derived = TruncatedSeries(
            tuple((j + 1) * series.coeffs[j + 1] for j in range(order)), order - 1
        )
        quotient = series_div(derived, series)
        for j in range(1, order + 1):
            out[j] = quotient.coeffs[j - 1] * Fraction(1, j)
    return TruncatedSeries(out, order)
