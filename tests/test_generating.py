from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

import pytest

from cubeharm import generating
from cubeharm.bernoulli import scaled_bernoulli
from cubeharm.coefficients import (
    coeff_by_expansion,
    coeff_by_matrix_sum,
    coeff_by_partition_sum,
    young_generating_poly,
)
from cubeharm.generating import (
    bernstein_transform,
    coefficient_from_family,
    coefficient_from_generating_poly,
    generating_poly,
    identity_report,
    lifted_generating_poly,
    reversed_generating_poly,
)
from cubeharm.unipoly import ONE, T, UniPoly
from oracles import (
    bernstein_from_ode,
    binomial_bernstein_transform,
    fraction_generating_poly,
    power,
)


class TestBasePolynomials:
    def test_first_member(self):
        assert generating_poly(1) == UniPoly((Fraction(1, 6), Fraction(1, 2)))

    def test_second_member_two_derivations(self):
        expected = UniPoly((Fraction(1, 90), Fraction(1, 15), Fraction(1, 6)))
        assert generating_poly(2) == expected
        assert young_generating_poly(2, 2) == expected

    def test_third_member_constant_term_and_shape(self):
        g3 = generating_poly(3)
        assert g3.degree == 3
        assert g3[0] == Fraction(1, 945)
        assert all(c > 0 for c in g3.coeffs)

    def test_positivity_and_degree(self):
        for m in range(1, 13):
            g = generating_poly(m)
            assert g.degree == m
            assert all(c > 0 for c in g.coeffs)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            generating_poly(0)

    def test_matches_fraction_recursion(self):
        for m in range(1, 41):
            assert generating_poly(m) == fraction_generating_poly(m)
            nums, den = generating._s_family(m)
            assert gcd(den, *nums) == 1


class TestLifted:
    def test_examples(self):
        assert lifted_generating_poly(1, 1) == generating_poly(1)
        assert lifted_generating_poly(2, 1) == UniPoly(
            (Fraction(1, 6), Fraction(2, 3), Fraction(1, 2))
        )
        assert lifted_generating_poly(3, 1) == UniPoly(
            (Fraction(1, 6), Fraction(5, 6), Fraction(7, 6), Fraction(1, 2))
        )

    def test_rejects_n_below_m(self):
        with pytest.raises(ValueError):
            lifted_generating_poly(1, 2)

    def test_n_independence_multiplicative(self):
        one_plus_t = ONE + T
        for m in range(1, 6):
            base = lifted_generating_poly(m, m)
            for n in range(m, m + 4):
                lifted = lifted_generating_poly(n, m)
                assert lifted * power(one_plus_t, m) == base * power(one_plus_t, n)

    def test_young_route_matches_for_all_n(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                assert young_generating_poly(n, m) == lifted_generating_poly(n, m)


def _matches_lifted(n, m, route):
    poly = lifted_generating_poly(n, m)
    return all(
        route(n, m, k) == coefficient_from_generating_poly(poly, n, m, k) for k in range(n + 1)
    )


class TestAssemblyFromCoefficients:
    def test_oracle_provider(self):
        assert _matches_lifted(1, 1, coeff_by_expansion)
        assert _matches_lifted(3, 2, coeff_by_expansion)

    def test_matrix_provider(self):
        assert _matches_lifted(2, 1, coeff_by_matrix_sum)
        assert _matches_lifted(4, 3, coeff_by_matrix_sum)

    def test_partition_provider(self):
        assert lifted_generating_poly(3, 2) == UniPoly(
            (Fraction(1, 90), Fraction(7, 90), Fraction(7, 30), Fraction(1, 6))
        )
        assert _matches_lifted(3, 2, coeff_by_partition_sum)
        assert _matches_lifted(7, 4, coeff_by_partition_sum)

    def test_family_provider(self):
        for n in range(1, 31):
            for m in range(1, n + 1):
                assert _matches_lifted(n, m, coefficient_from_family)
        for args in ((3, 4, 0), (3, 0, 0), (3, 2, 4), (3, 2, -1)):
            with pytest.raises(ValueError):
                coefficient_from_family(*args)

    def test_extraction_inverts_assembly(self):
        for n in range(1, 5):
            for m in range(1, n + 1):
                poly = lifted_generating_poly(n, m)
                for k in range(n + 1):
                    value = coefficient_from_generating_poly(poly, n, m, k)
                    rebuilt = (
                        Fraction(factorial(n))
                        * value
                        / (factorial(n - k) * factorial(2 * m + k))
                    )
                    assert poly[n - k] == rebuilt

    def test_endpoint_values(self):
        for n in range(1, 5):
            for m in range(1, n + 1):
                poly = lifted_generating_poly(n, m)
                top = coefficient_from_generating_poly(poly, n, m, n)
                low = coefficient_from_generating_poly(poly, n, m, 0)
                assert poly[0] == Fraction(factorial(n)) * top / factorial(n + 2 * m)
                assert poly[n] == low / factorial(2 * m)
                assert poly[0] == scaled_bernoulli(m)
                assert low == factorial(2 * m) * (2 ** (2 * m) - 1) * scaled_bernoulli(m)


class TestBernstein:
    def test_first_member(self):
        assert bernstein_transform(1, 1) == UniPoly((Fraction(1, 2), Fraction(-1, 3)))
        assert bernstein_transform(4, 1) == bernstein_transform(1, 1)

    def test_second_member(self):
        expected = UniPoly((Fraction(1, 6), Fraction(-4, 15), Fraction(1, 9)))
        assert bernstein_transform(2, 2) == expected
        assert bernstein_transform(4, 2) == expected

    def test_constant_term(self):
        for m in range(1, 7):
            f = bernstein_transform(m, m)
            assert f[0] == (2 ** (2 * m) - 1) * scaled_bernoulli(m)

    def test_n_independence_literal(self):
        for m in range(1, 6):
            base = bernstein_transform(m, m)
            for n in range(m, m + 4):
                assert bernstein_transform(n, m) == base
        with pytest.raises(ValueError):
            bernstein_transform(2, 3)

    def test_matches_substitution(self):
        # t**n P((1-t)/t) as the sum of p_j (1-t)**j t**(n-j), multiplied out
        for n in range(1, 12):
            for m in range(1, n + 1):
                total = UniPoly()
                for j, c in enumerate(lifted_generating_poly(n, m).coeffs):
                    total = total + c * power(ONE - T, j) * power(T, n - j)
                assert bernstein_transform(n, m) == total

    def test_matches_binomial_expansion(self):
        for m in range(1, 41):
            assert bernstein_transform(m, m) == binomial_bernstein_transform(m)


class TestOdeRoute:
    def test_second_member_from_first(self):
        f2 = bernstein_from_ode(2, bernstein_transform(1, 1))
        assert f2 == UniPoly((Fraction(1, 6), Fraction(-4, 15), Fraction(1, 9)))

    def test_third_member_frozen(self):
        f3 = bernstein_from_ode(3, bernstein_transform(2, 2))
        assert f3 == UniPoly(
            (Fraction(1, 15), Fraction(-17, 105), Fraction(2, 15), Fraction(-1, 27))
        )

    def test_chain_matches_transform(self):
        prev = bernstein_transform(1, 1)
        for m in range(2, 9):
            prev = bernstein_from_ode(m, prev)
            assert prev == bernstein_transform(m, m)
            assert prev.degree == m

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            bernstein_from_ode(3, bernstein_transform(1, 1))


class TestFamily:
    def test_family_invariants(self):
        for m in range(1, 7):
            direct = generating_poly(m)
            reflected = reversed_generating_poly(m, m)
            assert direct.degree == m
            assert direct[0] == scaled_bernoulli(m)
            edge = (2 ** (2 * m) - 1) * scaled_bernoulli(m)
            assert reflected[0] == edge
            assert bernstein_transform(m, m)[0] == edge
            assert reflected == direct.reciprocal(m)


class TestIdentitySuite:
    def test_order_validation(self):
        with pytest.raises(ValueError):
            identity_report(3)
        with pytest.raises(ValueError):
            identity_report(7)

    def test_all_identities_hold_at_order_eight(self):
        report = identity_report(8)
        assert report.all_ok, report.checks

    def test_all_identities_hold_at_order_sixteen(self):
        report = identity_report(16)
        assert report.all_ok, report.checks

    @pytest.mark.parametrize(
        "index, failing",
        [
            (0, {"cleared-product", "log-series"}),
            (3, {"cleared-product", "log-series", "reflected-tanh"}),
        ],
    )
    def test_wrong_family_member_fails(self, monkeypatch, index, failing):
        # Q_3 with one s-basis numerator off by one; Q_1..Q_8 are cached
        # first, so the recursion never reads the perturbed member
        original = generating._s_family
        original(8)

        @lru_cache(maxsize=None)
        def perturbed(m):
            nums, den = original(m)
            if m == 3:
                nums = nums[:index] + (nums[index] + 1,) + nums[index + 1 :]
            return nums, den

        monkeypatch.setattr(generating, "_s_family", perturbed)
        generating.generating_poly.cache_clear()
        try:
            report = identity_report(16)
        finally:
            generating.generating_poly.cache_clear()
        assert {c.name for c in report.checks if not c.ok} == failing

    def test_reflected_tanh_first_coefficient(self):
        assert reversed_generating_poly(1, 1)[0] == Fraction(1, 2)

    def test_log_series_first_coefficient(self):
        from cubeharm.generating import _log_argument
        from cubeharm.series import series_log

        logs = series_log(_log_argument(8))
        assert logs.coefficient(2) == UniPoly((Fraction(1, 2), Fraction(-1, 3)))

    def test_quotient_first_coefficient_cleared(self):
        # z^2 coefficient of (z coth z + t z^2 - 1) / (2 (t z coth z + 1)) is
        # (3t+1)/(6(t+1)); checked as the cross-multiplied polynomial identity
        # a1 * 6(t+1) == (3t+1) * b0 with a the numerator and b the denominator
        from cubeharm.bernoulli import coth_series

        zcoth = coth_series(4)
        a1 = T + UniPoly.constant(zcoth.coefficient(2))  # t + 1/3
        b0 = 2 * (T + ONE)  # constant series term of 2(t z coth z + 1)
        lhs = a1 * 6 * (ONE + T)
        rhs = UniPoly((Fraction(1), Fraction(3))) * b0
        assert lhs == rhs
        # and the cleared numerator (3t+1)/6 is the first base polynomial
        assert UniPoly((Fraction(1, 6), Fraction(1, 2))) == generating_poly(1)
