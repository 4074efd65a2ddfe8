"""Independent checks of the elimination kernel, the derivative kernel and
the Bernoulli series against sympy, which is an optional test-only oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from cubeharm.bernoulli import bernoulli, coth_series, tanh_series  # noqa: E402
from cubeharm.linalg import (  # noqa: E402
    InconsistentSystemError,
    RowBasis,
    UnderdeterminedSystemError,
    solve_or_rank,
)
from cubeharm.multipoly import MultiPoly  # noqa: E402

ORDER = 20


def _fraction(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


@st.composite
def systems(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    entries = st.integers(-4, 4)
    matrix = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    return matrix, rhs


@settings(max_examples=150, deadline=None)
@given(systems())
def test_rank_and_solution_match_sympy(system):
    matrix, rhs = system
    a = sympy.Matrix(matrix)
    expected_rank = a.rank()
    basis = RowBasis()
    for row in matrix:
        basis.add(dict(enumerate(row)))
    assert basis.rank == expected_rank
    assert all(basis.contains(dict(enumerate(row))) for row in matrix)

    try:
        solution, params = a.gauss_jordan_solve(sympy.Matrix(rhs))
    except ValueError:
        with pytest.raises(InconsistentSystemError):
            solve_or_rank(matrix, rhs)
        return
    if params.shape[0]:
        with pytest.raises(UnderdeterminedSystemError):
            solve_or_rank(matrix, rhs)
    else:
        assert solve_or_rank(matrix, rhs) == [_fraction(x) for x in solution]


polys3 = st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=8,
).map(lambda terms: MultiPoly(3, terms))


@settings(max_examples=150, deadline=None)
@given(polys3, st.tuples(*[st.integers(0, 4)] * 3))
def test_partial_power_matches_sympy(f, orders):
    xs = sympy.symbols("x1:4")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**e for x, e in zip(xs, exps))
        for exps, c in f.terms.items()
    )
    derived = sympy.Poly(sympy.diff(expr, *zip(xs, orders)), *xs)
    expected = {exps: _fraction(c) for exps, c in derived.terms() if c}
    assert f.partial_power(orders) == MultiPoly(3, expected)


def test_negative_order_is_refused():
    with pytest.raises(ValueError):
        MultiPoly(3, {(2, 1, 0): 1}).partial_power((0, -1, 1))


def test_bernoulli_matches_sympy():
    for m in range(1, ORDER + 1):
        assert bernoulli(m) == (-1) ** (m - 1) * _fraction(sympy.bernoulli(2 * m))


@pytest.mark.parametrize(
    "series, expression",
    [(coth_series, lambda z: z * sympy.coth(z)), (tanh_series, sympy.tanh)],
    ids=["z-coth", "tanh"],
)
def test_series_match_sympy(series, expression):
    z = sympy.Symbol("z")
    expansion = sympy.series(expression(z), z, 0, ORDER + 1).removeO()
    ours = series(ORDER)
    for i in range(ORDER + 1):
        assert ours.coefficient(i) == _fraction(expansion.coeff(z, i))
