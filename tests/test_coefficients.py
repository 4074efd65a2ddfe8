import cmath
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from cubeharm import coefficients, generating
from cubeharm.bernoulli import scaled_bernoulli
from cubeharm.coefficients import (
    closed_form,
    coeff_by_expansion,
    coeff_by_generating,
    coeff_by_matrix_sum,
    coeff_by_partition_sum,
    coeff_by_recursion,
    coeff_by_young_sum,
    coefficient_record,
    recursion_table,
    route_records,
    young_generating_poly,
    young_weight,
)
from cubeharm.combinat import compositions
from oracles import (
    fraction_recursion_table,
    matrix_sum_by_fibers,
    matrix_weight,
    partition_sign_weight,
    support_weight_by_moebius,
    young_poly_by_lengths,
)
from staircase import quad_matrices_with_colsums


def sign_weight_by_roots_of_unity(n, m, nu):
    """Float oracle: the signed permutation sum over m-th roots of unity."""
    zeta = cmath.exp(2j * cmath.pi / m)
    total = 0j
    for perm in permutations(range(1, n + 1)):
        if all(perm[i] <= m for i in range(n) if nu[i] >= 1):
            total += zeta ** sum(perm[i] * nu[i] for i in range(n))
    return total


def matrix_weight_by_enumeration(n, k, nu):
    total = Fraction(0)
    for mat in quad_matrices_with_colsums(n, k, nu):
        num = 1
        den = 1
        for row in mat.entries:
            num *= factorial(sum(row))
            for e in row:
                den *= factorial(e)
        total += Fraction(num, den)
    return total


def young_weight_by_rearrangements(k, parts):
    total = Fraction(0)
    for nu in set(permutations(parts + (0,) * (k - len(parts)))):
        term = Fraction(1)
        for j in range(1, k + 1):
            term /= 2 * sum(nu[:j]) + j
        for v in nu:
            term /= factorial(2 * v)
        total += term
    return total


def partition_sum_by_compositions(n, m, k):
    """Reference for the partition route: the signed sum over every ordered
    partition nu of m into n parts, each fiber by `matrix_weight`."""
    total = sum(
        partition_sign_weight(n, m, nu) * matrix_weight(n, k, tuple(2 * v for v in nu))
        for nu in compositions(m, n)
    )
    return Fraction((-1) ** (m - 1) * total, factorial(n))


class TestPartitionSignWeight:
    def test_examples(self):
        assert partition_sign_weight(2, 2, (2, 0)) == 2
        assert partition_sign_weight(2, 2, (1, 1)) == -2
        assert partition_sign_weight(3, 2, (1, 1, 0)) == -2

    def test_symmetry(self):
        for nu in compositions(3, 3):
            base = partition_sign_weight(3, 3, nu)
            for perm in permutations(nu):
                assert partition_sign_weight(3, 3, perm) == base

    def test_matches_float_definition(self):
        # the closed form reduces the n-variable sum to the m-variable one,
        # which needs n >= m; that is the only regime the coefficient sums use
        for n in range(1, 5):
            for m in range(1, n + 1):
                for nu in compositions(m, n):
                    exact = partition_sign_weight(n, m, nu)
                    approx = sign_weight_by_roots_of_unity(n, m, nu)
                    assert abs(approx - complex(exact)) < 1e-9

    def test_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            partition_sign_weight(2, 2, (1, 0))


class TestMatrixWeight:
    def test_examples(self):
        assert matrix_weight(2, 0, (1, 1)) == 2
        assert matrix_weight(2, 1, (2, 0)) == 1

    def test_zero_skeleton_is_multinomial(self):
        for nu in compositions(4, 3):
            expected = Fraction(factorial(4))
            for v in nu:
                expected /= factorial(v)
            assert matrix_weight(3, 0, nu) == expected

    def test_matches_enumeration(self):
        for n in range(1, 4):
            for k in range(4):
                for total in range(4):
                    for nu in compositions(total, n):
                        assert matrix_weight(n, k, nu) == matrix_weight_by_enumeration(
                            n, k, nu
                        )


class TestYoungWeight:
    def test_examples(self):
        assert young_weight(1, (1,)) == Fraction(1, 6)
        assert young_weight(2, (1,)) == Fraction(1, 6)
        assert young_weight(3, (1,)) == Fraction(1, 12)
        assert young_weight(1, ()) == 1
        with pytest.raises(ValueError):
            young_weight(1, (1, 1))

    def test_matches_rearrangement_sum(self):
        from cubeharm.combinat import young_diagrams

        for k in range(1, 5):
            for weight in range(5):
                for parts in young_diagrams(weight, k):
                    assert young_weight(k, parts) == young_weight_by_rearrangements(k, parts)


class TestRoutes:
    def test_matrix_examples(self):
        assert coeff_by_matrix_sum(2, 1, 0) == 1
        assert coeff_by_matrix_sum(2, 1, 1) == 2
        assert coeff_by_matrix_sum(2, 1, 2) == 2

    def test_matrix_matches_fiber_by_fiber_sum(self):
        for n in range(1, 6):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    assert coeff_by_matrix_sum(n, m, k) == matrix_sum_by_fibers(n, m, k), (n, m, k)

    def test_matrix_matches_partition(self):
        for n in range(1, 11):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    assert coeff_by_matrix_sum(n, m, k) == coeff_by_partition_sum(n, m, k), (n, m, k)

    def test_partition_examples(self):
        assert coeff_by_partition_sum(2, 1, 1) == 2
        assert coeff_by_partition_sum(3, 1, 1) == Fraction(7, 3)
        assert coeff_by_partition_sum(3, 2, 0) == 4

    def test_partition_matches_composition_sum(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    expected = partition_sum_by_compositions(n, m, k)
                    assert coeff_by_partition_sum(n, m, k) == expected, (n, m, k)

    def test_partition_matches_recursion(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    assert coeff_by_partition_sum(n, m, k) == coeff_by_recursion(n, m, k)

    def test_young_examples(self):
        assert [coeff_by_young_sum(2, 1, k) for k in range(3)] == [1, 2, 2]
        assert coeff_by_young_sum(3, 2, 1) == Fraction(28, 3)
        for m in range(1, 5):
            expected = Fraction(factorial(3 * m), factorial(m)) * scaled_bernoulli(m)
            assert coeff_by_young_sum(m, m, m) == expected

    def test_generating_examples(self):
        assert coeff_by_generating(1, 1, 0) == 1
        assert coeff_by_generating(1, 1, 1) == 1
        assert coeff_by_generating(3, 1, 2) == Fraction(10, 3)
        for k in range(5):
            assert coeff_by_generating(4, 2, k) == coeff_by_young_sum(4, 2, k)

    def test_oracle_examples(self):
        assert coeff_by_expansion(2, 1, 1) == 2
        assert coeff_by_expansion(2, 2, 0) == closed_form(2, 2, 0) == 4
        assert coeff_by_expansion(3, 2, 2) == Fraction(28, 3)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            coeff_by_matrix_sum(1, 2, 0)
        with pytest.raises(ValueError):
            coeff_by_young_sum(2, 1, 3)
        with pytest.raises(ValueError):
            coefficient_record(2, 1, 0, "nonsense")


class TestClosedForms:
    def test_smallest_skeleton(self):
        for n in range(1, 7):
            assert closed_form(n, 1, 0) == 1

    def test_common_value_near_top(self):
        for k in (1, 2, 3):
            assert closed_form(3, 2, k) == Fraction(28, 3)

    def test_three_below_top(self):
        assert closed_form(3, 2, 0) == 4

    def test_inapplicable_is_none(self):
        assert closed_form(6, 2, 2) is None
        assert closed_form(5, 1, 2) is None

    def test_endpoint_formulas_on_grid(self):
        for n in range(1, 6):
            for m in range(1, n + 1):
                low = factorial(2 * m) * (2 ** (2 * m) - 1) * scaled_bernoulli(m)
                top = Fraction(factorial(n + 2 * m), factorial(n)) * scaled_bernoulli(m)
                assert closed_form(n, m, 0) == low
                assert closed_form(n, m, n) == top
                assert closed_form(n, m, n - 1) == top


class TestRecursionTable:
    def test_rows(self):
        table = recursion_table(3)
        assert table[(3, 2, 2)] == Fraction(28, 3)
        assert [table[(3, 1, k)] for k in range(4)] == [
            1,
            Fraction(7, 3),
            Fraction(10, 3),
            Fraction(10, 3),
        ]
        assert [table[(2, 1, k)] for k in range(3)] == [1, 2, 2]

    def test_middle_cells_match_other_routes(self):
        cells = [(4, 1, 2), (5, 1, 2), (5, 1, 3), (12, 1, 5), (30, 1, 13), (5, 2, 2), (5, 3, 2)]
        for cell in cells:
            assert coeff_by_recursion(*cell) == coeff_by_young_sum(*cell)

    def test_replay_other_directions(self):
        # the filled table satisfies the recursion identity however it is
        # rearranged: check the backward and diagonal forms directly
        n_max = 5
        table = recursion_table(n_max)
        for n in range(2, n_max + 1):
            for m in range(2, n + 1):
                for k in range(1, n - 1):
                    factor = Fraction((n - k) * (n - k - 1) * m, n * (m - 1))
                    bracket = (2 * m + k - 1) * table[(n - 1, m - 1, k)] - (
                        k + 1
                    ) * table[(n - 1, m - 1, k + 1)]
                    # backward: recover the k-1 cell from the k cell
                    assert table[(n, m, k - 1)] == table[(n, m, k)] - factor * bracket
                    # diagonal: recover the (n-1, m-1, k+1) cell
                    delta = table[(n, m, k)] - table[(n, m, k - 1)]
                    recovered = (
                        (2 * m + k - 1) * table[(n - 1, m - 1, k)] - delta / factor
                    ) / (k + 1)
                    assert table[(n - 1, m - 1, k + 1)] == recovered

    def test_first_row_builds_no_table(self):
        recursion_table.cache_clear()
        assert coeff_by_recursion(1000, 1, 500) == Fraction(501 * 502 * 2000, 6000)
        assert recursion_table.cache_info().currsize == 0
        table = recursion_table(12)
        for n in range(1, 13):
            for k in range(n + 1):
                assert coeff_by_recursion(n, 1, k) == table[(n, 1, k)]

    def test_table_holds_its_top_layer(self):
        # one table per call: a lower cell is the top layer of its own table
        recursion_table.cache_clear()
        table = recursion_table(24)
        assert recursion_table.cache_info().currsize == 1
        assert table[(20, 7, 3)] == coeff_by_young_sum(20, 7, 3)
        assert recursion_table.cache_info().currsize == 2
        recursion_table.cache_clear()
        tracemalloc.start()
        try:
            table = recursion_table(40)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the top layer, 1,640 cells, takes about 0.4 MiB; every row of the grid would take 1.6 MiB
        assert held < 600 * 1024
        assert table[(40, 40, 40)] == coeff_by_generating(40, 40, 40)

    def test_cross_check_fires(self, monkeypatch):
        real = coefficients.closed_form
        # a perturbed closed form at the top of a row is checked, not copied;
        # a perturbed k = 0 seed shows at the next covered cell
        cases = [
            ((5, 1, 1), (5, 1, 1)),
            ((5, 2, 3), (5, 2, 3)),
            ((7, 4, 7), (7, 4, 7)),
            ((8, 3, 5), (8, 3, 5)),
            ((6, 3, 0), (6, 3, 1)),
        ]
        for cell, caught in cases:

            def perturbed(n, m, k, cell=cell):
                value = real(n, m, k)
                return value + 1 if (n, m, k) == cell else value

            monkeypatch.setattr(coefficients, "closed_form", perturbed)
            recursion_table.cache_clear()
            try:
                where = "({},{},{})".format(*caught)
                with pytest.raises(RuntimeError, match=re.escape(where)):
                    recursion_table(cell[0])
            finally:
                recursion_table.cache_clear()

    def test_closed_forms_cover_only_the_checked_k(self):
        # the sweep asks `closed_form` only at these k, so it checks every covered cell
        for n in range(1, 16):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    if k not in (0, 1, n - 3, n - 2, n - 1, n):
                        assert closed_form(n, m, k) is None, (n, m, k)

    def test_mapping_contract(self):
        table = recursion_table(12)
        reference = fraction_recursion_table(12)
        assert len(table) == len(reference) == 728
        assert list(table) == list(reference)
        assert (5, 2, 3) in table and (12, 12, 12) in table
        outside = [
            (5, 2, 6), (12, 2, 13), (5, 0, 1), (5, 6, 1), (12, 13, 1), (13, 2, 1), (5, 2, -1),
        ]
        for cell in outside:
            assert cell not in table
            with pytest.raises(KeyError):
                table[cell]
        first, second = table[(7, 3, 2)], table[(7, 3, 2)]
        assert type(first) is type(second) is Fraction
        assert first == second == reference[(7, 3, 2)]
        with pytest.raises(TypeError):
            table[(7, 3, 2)] = first

    def test_matches_fraction_sweep(self):
        table = recursion_table(30)
        reference = fraction_recursion_table(30)
        assert list(table) == list(reference)
        for cell, value in table.items():
            assert type(value) is Fraction
            assert value == reference[cell]
            assert value > 0

    @pytest.mark.large
    def test_n60_positive_and_matches_generating(self):
        table = recursion_table(60)
        assert len(table) == 75640
        for (n, m, k), value in table.items():
            assert value > 0
            assert value == coeff_by_generating(n, m, k)


class TestRouteIndependence:
    @staticmethod
    def _forbid(monkeypatch, name, module="cubeharm.coefficients", raising=True):
        def refuse(*args):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(f"{module}.{name}", refuse, raising=raising)

    def test_enumerating_routes_skip_closed_form(self):
        assert not hasattr(coefficients, "matrix_weight")
        assert coeff_by_matrix_sum(4, 2, 1) == coeff_by_young_sum(4, 2, 1)
        assert coeff_by_expansion(3, 2, 1) == coeff_by_young_sum(3, 2, 1)

    def test_partition_route_skips_enumeration(self, monkeypatch):
        self._forbid(monkeypatch, "compositions", "cubeharm.combinat")
        self._forbid(monkeypatch, "compositions", raising=False)
        assert coeff_by_partition_sum(4, 2, 1) == coeff_by_young_sum(4, 2, 1)

    def test_matrix_route_reads_no_fiber_sum_or_closed_form(self, monkeypatch):
        """Of the other routes' parts the matrix route reads only `_sign_weight`."""
        expected = coeff_by_young_sum(5, 3, 2)
        for name in (
            "_column_den",
            "closed_form",
            "coeff_by_partition_sum",
            "young_diagrams",
            "recursion_table",
            "scaled_bernoulli",
        ):
            self._forbid(monkeypatch, name)
        self._forbid(monkeypatch, "coefficient_from_family", "cubeharm.generating")
        self._forbid(monkeypatch, "compositions", "cubeharm.combinat")
        # a route that imported it by name would call it through coefficients
        self._forbid(monkeypatch, "compositions", raising=False)
        for name in ("flag_moment", "flag_moment_even", "skeleton_invariant"):
            self._forbid(monkeypatch, name, "cubeharm.invariants")
        assert coeff_by_matrix_sum(5, 3, 2) == expected

    def test_oracle_reads_no_staircase_closed_form(self, monkeypatch):
        """The oracle expands tau from the flag moment's own recursion: it
        reads no staircase closed form and no other route's parts."""
        expected = coeff_by_young_sum(4, 2, 1)
        for name in (
            "_column_den",
            "_sign_weight",
            "closed_form",
            "coeff_by_partition_sum",
            "recursion_table",
        ):
            self._forbid(monkeypatch, name)
        self._forbid(monkeypatch, "coefficient_from_family", "cubeharm.generating")
        assert coeff_by_expansion(4, 2, 1) == expected

    def test_generating_route_skips_series_log(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("series_log called")

        monkeypatch.setattr("cubeharm.generating.series_log", refuse)
        for cached in (generating.generating_poly, generating._s_family):
            cached.cache_clear()
        assert coeff_by_generating(12, 12, 5) == coeff_by_recursion(12, 12, 5)
        assert generating.generating_poly(12)[5] > 0


class TestSummedForms:
    """The routes' closed forms against the term-by-term sums of `tests/oracles.py`."""

    def test_support_weight_is_its_moebius_sum(self):
        for n in range(1, 15):
            for m in range(1, n + 1):
                for u in range(1, m + 1):
                    expected = support_weight_by_moebius(n, m, u)
                    assert coefficients._support_weight(n, m, u) == expected, (n, m, u)

    def test_young_route_reads_young_weight(self, monkeypatch):
        base = coefficients._young_base_poly(6)
        real = coefficients.young_weight
        monkeypatch.setattr(coefficients, "young_weight", lambda k, parts: 2 * real(k, parts))
        coefficients._young_base_poly.cache_clear()
        try:
            doubled = coefficients._young_base_poly(6)
        finally:
            coefficients._young_base_poly.cache_clear()
        assert doubled != base
        assert doubled.coeffs == tuple(2 * c for c in base.coeffs)

    def test_young_poly_is_the_per_length_lift(self):
        for n in range(1, 31):
            for m in range(1, n + 1):
                assert young_generating_poly(n, m) == young_poly_by_lengths(n, m), (n, m)


class TestRouteAgreement:
    def test_all_routes_small_grid(self):
        for n in range(1, 4):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    records = route_records(n, m, k)
                    values = {r.value for r in records}
                    assert len(values) == 1, (n, m, k, records)

    def test_generating_matches_recursion(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    assert coeff_by_generating(n, m, k) == coeff_by_recursion(n, m, k)

    def test_matrix_matches_partition_at_n6(self):
        n = 6
        for m in range(1, n + 1):
            for k in range(n + 1):
                assert coeff_by_matrix_sum(n, m, k) == coeff_by_partition_sum(n, m, k)

    def test_matrix_matches_partition_at_n7(self):
        for m in range(1, 4):
            for k in range(8):
                assert coeff_by_matrix_sum(7, m, k) == coeff_by_partition_sum(7, m, k)

    @pytest.mark.large
    def test_matrix_matches_recursion_to_16(self):
        table = recursion_table(16)
        assert len(table) == 1632
        for (n, m, k), value in table.items():
            assert coeff_by_matrix_sum(n, m, k) == value, (n, m, k)

    def test_matrix_matches_generating_far_out(self):
        for cell in [(30, 30, 30), (40, 20, 19)]:
            assert coeff_by_matrix_sum(*cell) == coeff_by_generating(*cell)

    def test_young_matches_generating_far_out(self):
        for k in range(1001):
            assert coeff_by_young_sum(1000, 12, k) == coeff_by_generating(1000, 12, k), k

    def test_positivity_and_top_identities(self):
        table = recursion_table(5)
        for n in range(1, 6):
            for m in range(1, n + 1):
                assert table[(n, m, n)] == table[(n, m, n - 1)]
                if m >= 2:
                    assert table[(n, m, n - 2)] == table[(n, m, n - 1)]
                for k in range(n + 1):
                    assert table[(n, m, k)] > 0
