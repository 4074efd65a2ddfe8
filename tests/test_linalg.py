from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeharm.linalg import (
    InconsistentSystemError,
    RowBasis,
    UnderdeterminedSystemError,
    solve_or_rank,
)


def test_identity_solve():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert solve_or_rank(eye, [1, 2, 3]) == [1, 2, 3]


def rank(rows):
    basis = RowBasis()
    for row in rows:
        basis.add(row)
    return basis.rank


def test_rank_of_dependent_rows():
    assert rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1


def test_rank_of_quadratic_derivative_span():
    # second derivatives of x1^3 x2 - x1 x2^3, keyed by their exponents
    rows = [{(1, 1): 6}, {(2, 0): 3, (0, 2): -3}, {(1, 1): -6}]
    assert rank(rows) == 2


def test_inconsistent_system():
    with pytest.raises(InconsistentSystemError):
        solve_or_rank([[1, 1], [1, 1]], [1, 2])


def test_underdetermined_system():
    with pytest.raises(UnderdeterminedSystemError):
        solve_or_rank([[1, 1]], [1])


def test_overdetermined_consistent_system():
    rows = [[1, 0], [0, 1], [1, 1]]
    assert solve_or_rank(rows, [2, 3, 5]) == [2, 3]


def test_empty_matrix_rank():
    assert RowBasis().rank == 0


def test_ragged_matrix_is_rejected():
    with pytest.raises(ValueError):
        solve_or_rank([[1, 2], [3]], [1, 2])
    # sparse rows have no width: rows of different supports are fine
    assert rank([{0: 1, 1: 2}, {0: 3}]) == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
)
def test_solution_satisfies_system(matrix, rhs):
    try:
        solution = solve_or_rank(matrix, rhs)
    except (InconsistentSystemError, UnderdeterminedSystemError):
        return
    for row, b in zip(matrix, rhs):
        assert sum(Fraction(c) * x for c, x in zip(row, solution)) == b


def test_row_basis_tracks_span():
    basis = RowBasis()
    assert basis.add({0: 1, 2: 1})
    assert basis.add({1: 1})
    assert not basis.add({0: 1, 1: 1, 2: 1})
    assert basis.rank == 2
    assert basis.contains({0: 2, 1: 3, 2: 2})
    assert not basis.contains({2: 1})


def test_row_basis_on_exponent_tuples():
    # rows keyed by exponents: x^2 - y^2 and x y / 2 span 3 x^2 + 5 x y - 3 y^2
    # but not (x + y)^2; with (x + y)^2 added they span y^2 too
    basis = RowBasis()
    assert basis.add({(2, 0): 1, (0, 2): -1})
    assert basis.add({(1, 1): Fraction(1, 2), (0, 0): 0})
    assert not basis.contains({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert basis.contains({(2, 0): 3, (1, 1): 5, (0, 2): -3})
    assert basis.add({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert basis.contains({(0, 2): 1})
    assert not basis.add({(0, 2): 7})
    assert not basis.contains({(3, 0): 1})
    assert basis.rank == 3


def test_zero_rows_are_in_every_span():
    basis = RowBasis()
    assert basis.contains({})
    assert basis.contains({(1, 0): 0, (0, 1): Fraction(0)})
    assert not basis.add({(1, 0): 0})
    assert basis.rank == 0
