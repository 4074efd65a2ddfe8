from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

import pytest

from cubeharm import invariants
from cubeharm.combinat import compositions
from cubeharm.invariants import (
    elementary_symmetric_squares,
    expand_in_elementary_basis,
    flag_moment,
    flag_moment_even,
    fundamental_alternating,
    skeleton_invariant,
)
from cubeharm.multipoly import MultiPoly
from oracles import (
    complete_homogeneous,
    fiber_weight,
    reconstruct,
    signed_permute,
    suffix_sums,
)
from staircase import quad_matrices_with_colsums


def brute_factorial_ratio(mat):
    num = 1
    for row in mat.entries:
        num *= factorial(sum(row))
    den = 1
    for row in mat.entries:
        for e in row:
            den *= factorial(e)
    return Fraction(num, den)


def flag_moment_by_matrix_sum(n, k, m):
    """Independent oracle: staircase matrices with entries summing to m."""
    total = MultiPoly(n)
    for cs in compositions(m, n):
        for mat in quad_matrices_with_colsums(n, k, cs):
            total = total + brute_factorial_ratio(mat) * MultiPoly.monomial(mat.col_sums)
    return total


def even_part_by_sign_average(n, k, m):
    h = flag_moment(n, k, m)
    total = MultiPoly(n)
    for signs in product((1, -1), repeat=n):
        total = total + signed_permute(h, signs=signs)
    return total * Fraction(1, 2 ** n)


def invariant_by_group_average(n, k, m):
    h = flag_moment(n, k, m)
    total = MultiPoly(n)
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            total = total + signed_permute(h, signs=signs, perm=perm)
    return total * Fraction(1, 2 ** n * factorial(n))


class TestCompleteHomogeneous:
    def test_two_variables_degree_two(self):
        t1 = MultiPoly.monomial((1, 0))
        t2 = MultiPoly.monomial((0, 1))
        expected = MultiPoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
        assert complete_homogeneous(2, [t1, t2]) == expected

    def test_single_argument_is_power(self):
        s = suffix_sums(2)[0]
        assert complete_homogeneous(3, [s]) == s * s * s

    def test_trailing_zero_argument_is_dropped(self):
        t1 = MultiPoly.monomial((1, 0))
        t2 = MultiPoly.monomial((0, 1))
        zero = MultiPoly(2)
        for m in range(4):
            assert complete_homogeneous(m, [t1, t2, zero]) == complete_homogeneous(m, [t1, t2])


class TestFlagMoment:
    def test_square_of_full_sum(self):
        s = suffix_sums(2)[0]
        assert flag_moment(2, 0, 2) == s * s

    def test_expanded_example(self):
        expected = MultiPoly(2, {(2, 0): 1, (1, 1): 3, (0, 2): 3})
        assert flag_moment(2, 1, 2) == expected

    def test_top_skeleton_equals_previous(self):
        for m in range(5):
            assert flag_moment(1, 1, m) == flag_moment(1, 0, m)
        assert flag_moment(3, 3, 4) == flag_moment(3, 2, 4)

    def test_matches_matrix_sum(self):
        for n in range(1, 4):
            for k in range(n + 1):
                for m in range(5):
                    assert flag_moment(n, k, m) == flag_moment_by_matrix_sum(n, k, m)


def column_dp_moment(n, k, m, step):
    """h (step 1) or g (step 2) with every coefficient from `fiber_weight`."""
    if m % step:
        return MultiPoly(n)
    vectors = (tuple(step * v for v in nu) for nu in compositions(m // step, n))
    return MultiPoly(n, {a: fiber_weight(n, k, a) for a in vectors})


def flag_value(k, m, x):
    """h_m(T_1(x), ..., T_K(x)) at an integer point: the z**m coefficient
    of prod 1/(1 - T_i(x) z), in plain integers."""
    series = [1] + [0] * m
    for i in range(min(k + 1, len(x))):
        t = sum(x[i:])
        for j in range(1, m + 1):
            series[j] += t * series[j - 1]
    return series[m]


def value_at(poly, x):
    return sum(c * prod(map(pow, x, exps)) for exps, c in poly.terms.items())


class TestFlagExpansion:
    """The K-variable expansion against the column DP over each fiber, and
    at sizes out of that DP's reach against point values of h."""

    @staticmethod
    def _compare(n, max_degree):
        for k in range(n + 1):
            for m in range(max_degree + 1):
                assert flag_moment(n, k, m) == column_dp_moment(n, k, m, 1)
                assert flag_moment_even(n, k, m) == column_dp_moment(n, k, m, 2)

    def test_matches_column_dp(self):
        for n in range(1, 5):
            self._compare(n, 8)

    @pytest.mark.large
    def test_matches_column_dp_at_five(self):
        self._compare(5, 10)

    def test_point_values_out_of_the_column_dp_reach(self):
        h = flag_moment(8, 4, 10)
        for x in [(1,) * 8, (2, -1, 0, 3, 1, -2, 1, 1), (3, 1, 4, 1, 5, 9, 2, 6)]:
            assert value_at(h, x) == flag_value(4, 10, x)
        h = flag_moment(3, 1, 60)  # multinomials of S**r up to r = 60
        for x in [(1, 1, 1), (2, -1, 3), (-4, 5, 2)]:
            assert value_at(h, x) == flag_value(1, 60, x)
        g = flag_moment_even(2, 1, 400)
        for x in [(1, 1), (2, -3), (5, 7)]:
            flips = [(s * x[0], t * x[1]) for s in (1, -1) for t in (1, -1)]
            assert 4 * value_at(g, x) == sum(flag_value(1, 400, y) for y in flips)


class TestEvenFlagMoment:
    def test_example(self):
        assert flag_moment_even(2, 1, 2) == MultiPoly(2, {(2, 0): 1, (0, 2): 3})

    def test_odd_degree_vanishes(self):
        for n in range(1, 4):
            for k in range(n + 1):
                assert flag_moment_even(n, k, 3).is_zero()

    def test_one_variable(self):
        assert flag_moment_even(1, 0, 2) == MultiPoly(1, {(2,): 1})

    def test_matches_sign_average(self):
        for n in range(1, 4):
            for k in range(n + 1):
                for m in range(5):
                    assert flag_moment_even(n, k, m) == even_part_by_sign_average(n, k, m)


class TestSkeletonInvariant:
    def test_examples(self):
        assert skeleton_invariant(2, 1, 2) == MultiPoly(2, {(2, 0): 2, (0, 2): 2})
        assert skeleton_invariant(2, 0, 2) == elementary_symmetric_squares(2, 1)

    def test_top_skeleton_equals_previous(self):
        for degree in (2, 4):
            assert skeleton_invariant(2, 2, degree) == skeleton_invariant(2, 1, degree)
            assert skeleton_invariant(3, 3, degree) == skeleton_invariant(3, 2, degree)

    def test_matches_group_average(self):
        for n in range(1, 4):
            for k in range(n + 1):
                for degree in range(7):
                    assert skeleton_invariant(n, k, degree) == invariant_by_group_average(
                        n, k, degree
                    )

    def test_odd_degrees_vanish(self):
        for n in range(1, 4):
            for k in range(n + 1):
                for degree in (1, 3, 5, 7):
                    assert skeleton_invariant(n, k, degree).is_zero()

    def test_symmetric_in_squared_variables(self):
        tau = skeleton_invariant(3, 1, 4)
        for perm in permutations(range(3)):
            assert signed_permute(tau, perm=perm) == tau


class TestElementaryAndAlternating:
    def test_elementary_examples(self):
        assert elementary_symmetric_squares(2, 1) == MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert elementary_symmetric_squares(2, 2) == MultiPoly(2, {(2, 2): 1})
        assert elementary_symmetric_squares(3, 2) == MultiPoly(
            3, {(2, 2, 0): 1, (2, 0, 2): 1, (0, 2, 2): 1}
        )
        with pytest.raises(ValueError):
            elementary_symmetric_squares(2, 3)

    def test_alternating_small(self):
        assert fundamental_alternating(1) == MultiPoly(1, {(1,): 1})
        assert fundamental_alternating(2) == MultiPoly(2, {(3, 1): 1, (1, 3): -1})

    def test_alternating_three_variables(self):
        d = fundamental_alternating(3)
        assert {sum(e) for e in d.terms} == {9}
        assert len(d.terms) == 6
        assert all(c in (1, -1) for c in d.terms.values())

    def test_alternating_signs(self):
        for n in (2, 3):
            d = fundamental_alternating(n)
            for i in range(n):
                signs = tuple(-1 if j == i else 1 for j in range(n))
                assert signed_permute(d, signs=signs) == -d
            for i in range(n):
                for j in range(i + 1, n):
                    perm = list(range(n))
                    perm[i], perm[j] = perm[j], perm[i]
                    assert signed_permute(d, perm=tuple(perm)) == -d


class TestTermBudget:
    def test_budget_guard_fires(self, monkeypatch):
        from cubeharm.invariants import TermBudgetExceeded

        monkeypatch.setattr(invariants, "TERM_BUDGET", 1)
        with pytest.raises(TermBudgetExceeded):
            expand_in_elementary_basis(3, 2, 0)

    def test_budget_override_allows_work(self, monkeypatch):
        monkeypatch.setattr(invariants, "TERM_BUDGET", 100000)
        assert expand_in_elementary_basis(2, 1, 0).leading == 1


class TestExpansion:
    def test_leading_examples(self):
        assert expand_in_elementary_basis(2, 1, 1).leading == 2
        assert expand_in_elementary_basis(2, 1, 1).lower_terms == ()
        assert expand_in_elementary_basis(2, 1, 0).leading == 1
        assert expand_in_elementary_basis(3, 2, 0).leading == 4

    def test_reconstruction_is_exact(self):
        for n in range(1, 4):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    expansion = expand_in_elementary_basis(n, m, k)
                    assert reconstruct(expansion) == skeleton_invariant(n, k, 2 * m)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            expand_in_elementary_basis(1, 2, 0)
