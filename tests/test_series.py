from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeharm.series import TruncatedSeries, series_div, series_log
from cubeharm.unipoly import ONE, T, UniPoly
from oracles import power


def series_exp(s):
    """Test-side oracle: exponential by summing powers (constant term 0)."""
    result = term = TruncatedSeries([Fraction(1)], s.order)
    for j in range(1, s.order + 1):
        term = term * s
        result = result + term.scale(Fraction(1, factorial(j)))
    return result


def fractions_series(order, max_den=6):
    coeff = st.fractions(
        min_value=-3, max_value=3, max_denominator=max_den
    )
    return st.lists(coeff, min_size=order + 1, max_size=order + 1)


class TestUniPoly:
    def test_trims_trailing_zeros(self):
        p = UniPoly((1, 2, 0, 0))
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_zero_degree_sentinel(self):
        assert UniPoly().degree == -1
        assert not UniPoly()

    def test_arithmetic(self):
        p = ONE + T
        assert (p * p).coeffs == (1, 2, 1)
        assert not p - p
        assert power(p, 3)[2] == 3
        assert (2 * p)[0] == 2
        with pytest.raises(TypeError):
            p + 1
        with pytest.raises(TypeError):
            p - 1

    def test_derivative(self):
        p = UniPoly((1, 0, 3))  # 1 + 3t^2
        assert p.derivative().coeffs == (0, 6)

    def test_reciprocal(self):
        p = UniPoly((1, 2, 3))
        assert p.reciprocal(2).coeffs == (3, 2, 1)
        assert p.reciprocal(4).coeffs == (0, 0, 3, 2, 1)
        with pytest.raises(ValueError):
            p.reciprocal(1)

    def test_string_round_trip(self):
        p = UniPoly((Fraction(1, 6), Fraction(1, 2)))
        assert p.to_strings() == ["1/6", "1/2"]
        assert UniPoly(Fraction(s) for s in p.to_strings()) == p


class TestSeriesBasics:
    def test_truncation_to_smaller_order(self):
        a = TruncatedSeries([1, 1, 1], 2)
        b = TruncatedSeries([1, 2], 1)
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_scalars_go_through_scale(self):
        a = TruncatedSeries([1, 1, 1], 2)
        with pytest.raises(TypeError):
            a * 2
        assert a.scale(2).coeffs == (2, 2, 2)

    def test_pads_with_the_zero_of_its_coefficients(self):
        rational = TruncatedSeries([Fraction(1)], 2).coeffs
        assert rational == (1, 0, 0) and type(rational[2]) is Fraction
        for first in ([ONE], [UniPoly(), T]):
            coeffs = TruncatedSeries(first, 2).coeffs
            assert [type(c) for c in coeffs] == [UniPoly] * 3
            assert [c.degree for c in coeffs] in ([0, -1, -1], [-1, 1, -1])


class TestSeriesLog:
    def test_log_one_plus_z(self):
        s = TruncatedSeries([1, 1], 3)
        assert series_log(s).coeffs == (0, 1, Fraction(-1, 2), Fraction(1, 3))

    def test_log_cosh(self):
        # cosh z truncated: 1 + z^2/2 + z^4/24
        s = TruncatedSeries([1, 0, Fraction(1, 2), 0, Fraction(1, 24)], 4)
        assert series_log(s).coeffs == (0, 0, Fraction(1, 2), 0, Fraction(-1, 12))

    def test_log_of_one(self):
        s = TruncatedSeries([1], 5)
        assert series_log(s).coeffs == (0,) * 6

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            series_log(TruncatedSeries([2, 1], 3))

    @settings(max_examples=60, deadline=None)
    @given(fractions_series(6))
    def test_exp_log_round_trip(self, tail):
        coeffs = [Fraction(1)] + tail[1:]
        s = TruncatedSeries(coeffs, 6)
        assert series_exp(series_log(s)) == s


class TestSeriesDiv:
    def test_geometric(self):
        num = TruncatedSeries([Fraction(0), Fraction(0), Fraction(1)], 6)
        den = TruncatedSeries([1, 0, -1], 6)
        assert series_div(num, den).coeffs == (0, 0, 1, 0, 1, 0, 1)

    def test_geometric_over_polynomials(self):
        one = TruncatedSeries([ONE], 4)
        den = TruncatedSeries([ONE, UniPoly(), T], 4)
        q = series_div(one, den)
        assert q.coeffs == (ONE, UniPoly(), -T, UniPoly(), T * T)

    def test_rejects_noninvertible_constant(self):
        num = TruncatedSeries([1], 3)
        for constant in (0, 2, Fraction(1, 2)):
            with pytest.raises(ValueError):
                series_div(num, TruncatedSeries([constant, 1], 3))
        with pytest.raises(ValueError):
            series_div(
                TruncatedSeries([ONE], 3),
                TruncatedSeries([ONE + T], 3),
            )

    @settings(max_examples=60, deadline=None)
    @given(fractions_series(5), fractions_series(5))
    def test_multiply_back(self, acs, bcs):
        a = TruncatedSeries(acs, 5)
        b = TruncatedSeries([Fraction(1)] + bcs[1:], 5)
        assert series_div(a, b) * b == a
