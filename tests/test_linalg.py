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


def test_rank_of_dependent_rows():
    assert solve_or_rank([[1, 2], [2, 4]]) == 1


def test_rank_of_quadratic_derivative_span():
    # second derivatives of x1^3 x2 - x1 x2^3 in coordinates (x1x2, x1^2, x2^2)
    rows = [[6, 0, 0], [0, 3, -3], [-6, 0, 0]]
    assert solve_or_rank(rows) == 2


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
    assert solve_or_rank([]) == 0


def test_ragged_matrix_is_rejected():
    with pytest.raises(ValueError):
        solve_or_rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        solve_or_rank([[1, 2], [3]], [1, 2])


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
    basis = RowBasis(3)
    assert basis.add([1, 0, 1])
    assert basis.add([0, 1, 0])
    assert not basis.add([1, 1, 1])
    assert basis.rank == 2
    assert basis.contains([2, 3, 2])
    assert not basis.contains([0, 0, 1])
