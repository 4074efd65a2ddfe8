from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeharm.unipoly import ONE, T, UniPoly, binomial_poly
from oracles import power


def schoolbook(a, b):
    """Reference product: one Fraction multiply and add per coefficient pair."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    while out and not out[-1]:
        out.pop()
    return out


# Zeros are drawn often, so products see interior zero coefficients.
COEFF = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=24),
)
COEFFS = st.lists(COEFF, max_size=9)
SCALAR = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=24))


def assert_product(poly, expected):
    assert list(poly.coeffs) == expected
    assert all(type(c) is Fraction for c in poly.coeffs)


@settings(max_examples=100, deadline=None)
@given(COEFFS, COEFFS)
def test_product_matches_schoolbook(a, b):
    assert_product(UniPoly(a) * UniPoly(b), schoolbook(a, b))


@settings(max_examples=50, deadline=None)
@given(COEFFS, SCALAR)
def test_scalar_product_on_either_side(a, c):
    expected = schoolbook(a, [c])
    assert_product(UniPoly(a) * c, expected)
    assert_product(c * UniPoly(a), expected)


@pytest.mark.parametrize(
    "a, b",
    [
        ([], [1, 2]),
        ([Fraction(3, 4)], []),
        ([0], [0, 0]),
        ([Fraction(-2, 3)], [Fraction(5, 7)]),
        ([Fraction(1, 6), 0, 0, Fraction(-5, 4)], [0, Fraction(7, 10), 0, 3]),
        ([Fraction(-1, 2), Fraction(1, 3)], [Fraction(-1, 2), Fraction(-1, 3)]),
        ([Fraction(1, 2), Fraction(1, 2)], [2, -2]),
    ],
)
def test_product_examples(a, b):
    assert_product(UniPoly(a) * UniPoly(b), schoolbook(a, b))
    assert_product(UniPoly(b) * UniPoly(a), schoolbook(a, b))


def test_binomial_poly_is_power_of_one_plus_t():
    for d in range(13):
        assert binomial_poly(d) == power(ONE + T, d)
    with pytest.raises(ValueError):
        binomial_poly(-1)
