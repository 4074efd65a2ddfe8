from fractions import Fraction
from math import factorial

import pytest

from cubeharm.bernoulli import bernoulli, coth_series, scaled_bernoulli, tanh_series
from cubeharm.series import TruncatedSeries, series_div


def test_first_values():
    assert bernoulli(1) == Fraction(1, 6)
    assert bernoulli(2) == Fraction(1, 30)
    assert bernoulli(3) == Fraction(1, 42)


def test_scaled_values():
    assert scaled_bernoulli(1) == Fraction(1, 6)
    assert scaled_bernoulli(2) == Fraction(1, 90)
    assert scaled_bernoulli(3) == Fraction(1, 945)


def test_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        bernoulli(0)
    with pytest.raises(ValueError):
        scaled_bernoulli(-1)


def test_positivity():
    assert all(bernoulli(m) > 0 for m in range(1, 21))
    assert all(scaled_bernoulli(m) > 0 for m in range(1, 21))


def test_against_series_division_oracle():
    # z/(e^z - 1) = 1 / sum_j z^j/(j+1)!; its z^(2m) coefficient must be
    # (-1)**(m-1) * bernoulli(m) / (2m)!
    order = 20
    den = TruncatedSeries([Fraction(1, factorial(j + 1)) for j in range(order + 1)], order)
    num = TruncatedSeries([Fraction(1)], order)
    q = series_div(num, den)
    assert q.coefficient(1) == Fraction(-1, 2)
    for m in range(1, 11):
        expected = (-1) ** (m - 1) * bernoulli(m) / factorial(2 * m)
        assert q.coefficient(2 * m) == expected
    assert all(q.coefficient(2 * m + 1) == 0 for m in range(1, 10))


def test_coth_series_coefficients():
    s = coth_series(6)
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == Fraction(1, 3)
    assert s.coefficient(4) == Fraction(-1, 45)
    assert s.coefficient(6) == Fraction(2, 945)
    assert s.coefficient(3) == 0


def test_tanh_series_coefficients():
    s = tanh_series(5)
    assert s.coefficient(1) == 1
    assert s.coefficient(3) == Fraction(-1, 3)
    assert s.coefficient(5) == Fraction(2, 15)


def test_product_of_coth_and_tanh_is_z():
    # (z coth z) * tanh z == z, exactly, through order 17
    order = 17
    product = coth_series(order) * tanh_series(order)
    expected = TruncatedSeries([Fraction(0), Fraction(1)], order)
    assert product == expected
