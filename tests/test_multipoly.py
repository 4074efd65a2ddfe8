import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeharm.multipoly import MultiPoly
from oracles import signed_permute


def small_polys(nvars=2, max_terms=4):
    exps = st.tuples(*(st.integers(0, 3) for _ in range(nvars)))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: MultiPoly(nvars, terms)
    )


def test_zero_coefficients_dropped():
    p = MultiPoly(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == MultiPoly(2, {(0, 1): 2})


def test_exponent_length_checked():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): Fraction(1)})


def test_arithmetic_basics():
    x = MultiPoly.monomial((1, 0))
    y = MultiPoly.monomial((0, 1))
    p = (x + y) * (x - y)
    assert p == MultiPoly(2, {(2, 0): 1, (0, 2): -1})
    assert (x * x * x).terms == {(3, 0): Fraction(1)}
    assert (2 * x - x - x).is_zero()


def test_partial_derivatives():
    p = MultiPoly(2, {(3, 1): 1, (1, 3): -1})
    assert p.partial(0) == MultiPoly(2, {(2, 1): 3, (0, 3): -1})
    assert p.partial_power((1, 1)) == MultiPoly(2, {(2, 0): 3, (0, 2): -3})


@pytest.mark.parametrize("index", [-1, 2])
def test_partial_refuses_a_missing_variable(index):
    with pytest.raises(ValueError):
        MultiPoly(2, {(3, 1): 1}).partial(index)


def test_signed_permute():
    p = MultiPoly(2, {(3, 1): 1})
    swapped = signed_permute(p, perm=(1, 0))
    assert swapped == MultiPoly(2, {(1, 3): 1})
    flipped = signed_permute(p, signs=(-1, 1))
    assert flipped == MultiPoly(2, {(3, 1): -1})


def test_extended_embedding():
    p = MultiPoly(2, {(1, 2): 5})
    q = p.extended(4)
    assert q.nvars == 4
    assert q.terms == {(1, 2, 0, 0): Fraction(5)}


def test_canonical_serialization_is_stable():
    a = MultiPoly(2, {(2, 0): 1}) + MultiPoly(2, {(0, 2): 2})
    b = MultiPoly(2, {(0, 2): 2}) + MultiPoly(2, {(2, 0): 1})
    assert json.dumps(a.to_obj()) == json.dumps(b.to_obj())
    assert MultiPoly.from_obj(2, a.to_obj()) == a


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys())
def test_addition_and_multiplication_commute(p, q):
    assert p + q == q + p
    assert p * q == q * p


@settings(max_examples=50, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_associativity_and_distributivity(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
