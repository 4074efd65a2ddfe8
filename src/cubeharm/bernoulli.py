"""Bernoulli numbers in the all-positive even-index convention.

CONVENTION WARNING.  `bernoulli(m)` here is positive for every m >= 1:

    bernoulli(1) = 1/6,  bernoulli(2) = 1/30,  bernoulli(3) = 1/42, ...

In terms of the classical signed convention B2, B4, B6, ... (with
B2 = 1/6, B4 = -1/30) this is bernoulli(m) = (-1)**(m-1) * B_{2m}.
The scaled variant

    scaled_bernoulli(m) = 2**(2m-1) / (2m)! * bernoulli(m)

is the natural series weight:  z*coth(z) = 1 + 2 * sum_m (-1)**(m-1) *
scaled_bernoulli(m) * z**(2m).  Keep the sign conversion in mind when
comparing against tables that use the signed convention.
"""

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .series import TruncatedSeries

__all__ = ["bernoulli", "scaled_bernoulli", "coth_series", "tanh_series"]

_lock = threading.Lock()
_signed_even = [Fraction(1)]  # classical B_0, B_2, B_4, ... via the binomial recurrence


def _extend_signed():
    m = len(_signed_even)
    n = 2 * m
    # sum_{r=0}^{n} C(n+1, r) B_r = 0 with B_1 = -1/2 and odd B_{>=3} zero
    acc = Fraction(n + 1, -2)  # the B_1 term
    for j in range(m):
        acc += comb(n + 1, 2 * j) * _signed_even[j]
    _signed_even.append(-acc / (n + 1))


def bernoulli(m):
    """Positive-convention Bernoulli number for index m >= 1."""
    if m < 1:
        raise ValueError("index must be >= 1")
    with _lock:
        while len(_signed_even) <= m:
            _extend_signed()
        signed = _signed_even[m]
    return -signed if m % 2 == 0 else signed


@lru_cache(maxsize=None)
def scaled_bernoulli(m):
    """2**(2m-1)/(2m)! times bernoulli(m); positive for every m >= 1."""
    return Fraction(2 ** (2 * m - 1)) * bernoulli(m) / factorial(2 * m)


def coth_series(order):
    """Series of z*coth(z) truncated at the given order (an even series)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for m in range(1, order // 2 + 1):
        coeffs[2 * m] = 2 * (-1) ** (m - 1) * scaled_bernoulli(m)
    return TruncatedSeries(coeffs, order)


def tanh_series(order):
    """Series of tanh(z) truncated at the given order (an odd series)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = [Fraction(0)] * (order + 1)
    for m in range(1, (order + 1) // 2 + 1):
        coeffs[2 * m - 1] = 2 * (-1) ** (m - 1) * (2 ** (2 * m) - 1) * scaled_bernoulli(m)
    return TruncatedSeries(coeffs, order)
