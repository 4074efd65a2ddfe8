"""Coefficients stay exact: int-coefficient polynomials pass through the
averaging, the derivatives and the alternating polynomial with every
coefficient an `int` or a `Fraction`, never a `float`; a `MultiPoly`
refuses a float, and treats an int coefficient and the equal `Fraction`
alike."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeharm.harmonics import apply_as_operator, mean_value_report, skeleton_average
from cubeharm.invariants import fundamental_alternating, skeleton_invariant
from cubeharm.multipoly import MultiPoly


def assert_exact(poly):
    assert all(type(c) in (int, Fraction) for c in poly.terms.values()), poly


def int_polys(nvars):
    exps = st.tuples(*(st.integers(0, 4) for _ in range(nvars)))
    return st.dictionaries(exps, st.integers(-9, 9), min_size=1, max_size=4).map(
        lambda terms: MultiPoly(nvars, terms)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), int_polys(n))), st.data())
def test_int_polynomials_come_out_exact(case, data):
    n, f = case
    k = data.draw(st.integers(0, n))
    orders = data.draw(st.tuples(*(st.integers(0, 2) for _ in range(n))))
    assert_exact(skeleton_average(f, n, k))
    assert_exact(mean_value_report(f, n, k).residual)
    assert_exact(f.partial_power(orders))
    assert_exact(apply_as_operator(f, f))


def test_alternating_polynomial_and_its_operators_stay_exact():
    for n in range(1, 5):
        delta = fundamental_alternating(n)
        assert all(type(c) is int for c in delta.terms.values())
        for k in range(n + 1):
            assert_exact(skeleton_average(delta, n, k))
            assert_exact(apply_as_operator(skeleton_invariant(n, k, 2), delta))


def test_int_and_fraction_coefficients_are_alike():
    ints = MultiPoly(2, {(1, 0): 3, (0, 2): -1})
    fractions = MultiPoly(2, {(1, 0): Fraction(3), (0, 2): Fraction(-1)})
    assert ints == fractions
    assert hash(ints) == hash(fractions)
    assert len({ints, fractions}) == 1
    assert ints.to_obj() == fractions.to_obj()
    assert ints.pretty() == fractions.pretty()


def test_a_float_coefficient_is_refused():
    with pytest.raises(TypeError):
        MultiPoly(1, {(1,): 0.5})
