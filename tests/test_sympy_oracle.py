"""Independent checks of the elimination kernel and the Bernoulli series
against sympy, which is an optional test-only oracle."""

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
