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
from oracles import FractionRowBasis


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


ENTRIES = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
SPARSE_ROWS = st.dictionaries(st.integers(0, 6), ENTRIES, max_size=5)


@st.composite
def row_sequences(draw):
    """Sparse rows with mixed int and `Fraction` entries, zeros among
    them, where a later row may be a rational multiple of an earlier one
    or a rational combination of two."""
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kinds = ["fresh", "multiple", "combination"] if rows else ["fresh"]
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            rows.append(draw(SPARSE_ROWS))
            continue
        first, second = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(NONZERO), draw(NONZERO) if kind == "combination" else 0
        columns = first.keys() | second.keys()
        rows.append({j: a * first.get(j, 0) + b * second.get(j, 0) for j in columns})
    return rows


@settings(max_examples=150, deadline=None)
@given(row_sequences(), st.lists(SPARSE_ROWS, max_size=4))
def test_integer_rows_agree_with_fraction_elimination(rows, probes):
    basis, reference = RowBasis(), FractionRowBasis()
    for row in rows:
        assert basis.add(row) == reference.add(row)
        assert basis.rank == reference.rank
    for row in rows + probes:
        assert basis.contains(row) == reference.contains(row)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda width: st.lists(
            st.lists(ENTRIES, min_size=width, max_size=width), min_size=1, max_size=5
        )
    )
)
def test_rational_solutions_satisfy_the_system(augmented):
    matrix = [row[:-1] for row in augmented]
    rhs = [row[-1] for row in augmented]
    coefficients, system = FractionRowBasis(), FractionRowBasis()
    for row in augmented:
        coefficients.add(dict(enumerate(row[:-1])))
        system.add(dict(enumerate(row)))
    try:
        solution = solve_or_rank(matrix, rhs)
    except InconsistentSystemError:
        assert system.rank > coefficients.rank
        return
    except UnderdeterminedSystemError:
        assert system.rank == coefficients.rank < len(matrix[0])
        return
    assert system.rank == coefficients.rank == len(matrix[0])
    assert all(type(x) is Fraction for x in solution)
    for row, b in zip(matrix, rhs):
        assert sum(c * x for c, x in zip(row, solution)) == b
