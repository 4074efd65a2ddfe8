import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeharm.combinat import compositions, young_diagrams
from oracles import fiber_weight, matrix_weight
from staircase import (
    QuadMatrix,
    count_compositions,
    quad_matrices_even,
    quad_matrices_with_colsums,
)


class TestCompositions:
    def test_tiny_case(self):
        assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]

    def test_zero_total(self):
        assert list(compositions(0, 3)) == [(0, 0, 0)]

    def test_count_example(self):
        assert len(list(compositions(3, 2))) == 4

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 7), st.integers(1, 4))
    def test_count_matches_closed_form(self, total, parts):
        items = list(compositions(total, parts))
        assert len(items) == count_compositions(total, parts)
        assert len(set(items)) == len(items)
        assert all(sum(c) == total and len(c) == parts for c in items)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(compositions(2, 0))

    @pytest.mark.parametrize("parts", range(1, 6))
    @pytest.mark.parametrize("total", range(7))
    def test_order_is_lexicographically_descending(self, total, parts):
        brute = [
            c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total
        ]
        assert list(compositions(total, parts)) == sorted(brute, reverse=True)

    def test_many_parts_without_recursion(self):
        items = list(compositions(1, 1200))
        assert len(items) == 1200
        assert items[0][0] == 1 and items[-1][-1] == 1


class TestYoungDiagrams:
    def test_tiny_case(self):
        assert list(young_diagrams(2, 2)) == [(2,), (1, 1)]

    def test_partition_count(self):
        assert len(list(young_diagrams(4, 4))) == 5

    def test_max_parts_cuts(self):
        assert list(young_diagrams(3, 2)) == [(3,), (2, 1)]

    def test_weakly_decreasing_tuples_in_descending_order(self):
        assert list(young_diagrams(6, 6)) == [
            (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1),
            (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
        ]
        assert list(young_diagrams(0, 1)) == [()]


class TestQuadMatrices:
    def test_single_free_entry(self):
        mats = list(quad_matrices_with_colsums(2, 1, (2, 0)))
        assert [m.entries for m in mats] == [((2, 0), (0, 0))]

    def test_three_matrices_for_full_column(self):
        mats = list(quad_matrices_with_colsums(2, 1, (0, 2)))
        assert [m.entries for m in mats] == [
            ((0, 2), (0, 0)),
            ((0, 1), (0, 1)),
            ((0, 0), (0, 2)),
        ]

    def test_one_by_one(self):
        mats = list(quad_matrices_with_colsums(1, 0, (5,)))
        assert [m.entries for m in mats] == [((5,),)]

    def test_even_total_two(self):
        mats = list(quad_matrices_even(2, 0, 2))
        assert [m.entries for m in mats] == [((2, 0),), ((0, 2),)]
        assert len(list(quad_matrices_even(2, 1, 2))) == 4

    def test_zero_total(self):
        mats = list(quad_matrices_even(3, 2, 0))
        assert len(mats) == 1
        assert mats[0].total() == 0

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            list(quad_matrices_even(2, 1, 3))

    def test_stream_is_deterministic(self):
        first = [m.entries for m in quad_matrices_even(3, 2, 4)]
        second = [m.entries for m in quad_matrices_even(3, 2, 4)]
        assert first == second

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2))
    def test_structural_invariants(self, n, k, half_total):
        for mat in quad_matrices_even(n, k, 2 * half_total):
            mat.validate()
            assert mat.nrows == k + 1
            assert mat.ncols == n
            assert mat.total() == 2 * half_total
            assert all(s % 2 == 0 for s in mat.col_sums)

    def test_decomposition_count_identity(self):
        n, k, m = 3, 2, 3
        whole = sum(1 for _ in quad_matrices_even(n, k, 2 * m))
        by_blocks = sum(
            sum(1 for _ in quad_matrices_with_colsums(n, k, tuple(2 * v for v in nu)))
            for nu in compositions(m, n)
        )
        assert whole == by_blocks

    def test_nontrivial_columns_match_composition(self):
        for nu in compositions(3, 3):
            for mat in quad_matrices_with_colsums(3, 2, tuple(2 * v for v in nu)):
                assert mat.nontrivial_columns == sum(1 for v in nu if v)

    def test_staircase_weight_and_fiber_weight(self):
        for n in range(1, 4):
            for k in range(4):
                for total in range(5):
                    for colsums in compositions(total, n):
                        for mat in quad_matrices_with_colsums(n, k, colsums):
                            num = 1
                            den = 1
                            for row in mat.entries:
                                num *= factorial(sum(row))
                                for e in row:
                                    den *= factorial(e)
                            assert type(mat.weight) is int
                            assert mat.weight == Fraction(num, den)
                        assert fiber_weight(n, k, colsums) == matrix_weight(n, k, colsums)

    def test_fiber_weight_is_the_enumerated_sum(self):
        for n in range(1, 5):
            for k in range(n + 2):
                for total in range(7):
                    for colsums in compositions(total, n):
                        value = fiber_weight(n, k, colsums)
                        assert type(value) is int
                        assert value == sum(
                            mat.weight for mat in quad_matrices_with_colsums(n, k, colsums)
                        )

    def test_fiber_weight_rejects_bad_args(self):
        for args in [(0, 1, ()), (2, -1, (0, 0)), (2, 1, (2,)), (2, 1, (2, -2))]:
            with pytest.raises(ValueError):
                fiber_weight(*args)

    def test_validate_catches_bad_matrix(self):
        with pytest.raises(ValueError):
            QuadMatrix(((0, 0), (1, 0))).validate()
