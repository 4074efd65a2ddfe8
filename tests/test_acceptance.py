"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts; all
comparisons are exact, with the single documented exception of the
float-tolerance check of the sign weight against its root-of-unity
definition (1e-9).
"""

import cmath
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from cubeharm.bernoulli import scaled_bernoulli
from cubeharm.coefficients import (
    recursion_table,
    route_records,
    young_weight,
)
from cubeharm.combinat import compositions, young_diagrams
from cubeharm.generating import (
    bernstein_transform,
    generating_poly,
    identity_report,
    lifted_generating_poly,
)
from cubeharm.harmonics import (
    annihilates_alternating,
    harmonic_basis_report,
    harmonic_module_dimension,
    mean_value_report,
)
from cubeharm.invariants import flag_moment, flag_moment_even, skeleton_invariant
from cubeharm.multipoly import MultiPoly
from cubeharm.unipoly import ONE, T, UniPoly
from oracles import matrix_weight, partition_sign_weight, power, signed_permute
from staircase import quad_matrices_with_colsums


def _verdict(number, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_route_agreement():
    ok = True
    for n in range(1, 6):
        for m in range(1, n + 1):
            for k in range(n + 1):
                records = route_records(n, m, k)
                if len({r.value for r in records}) != 1:
                    ok = False
    _verdict(1, "route agreement on the full grid n <= 5 (oracle n <= 3)", ok)


def test_criterion_2_anchored_values():
    ok = generating_poly(1) == UniPoly((Fraction(1, 6), Fraction(1, 2)))
    for n in range(1, 5):
        ok = ok and bernstein_transform(n, 1) == UniPoly((Fraction(1, 2), Fraction(-1, 3)))
    # endpoint closed forms against a route that does not consume them
    from cubeharm.coefficients import coeff_by_young_sum

    for n in range(1, 6):
        for m in range(1, n + 1):
            low = factorial(2 * m) * (2 ** (2 * m) - 1) * scaled_bernoulli(m)
            top = Fraction(factorial(n + 2 * m), factorial(n)) * scaled_bernoulli(m)
            ok = ok and coeff_by_young_sum(n, m, 0) == low
            ok = ok and coeff_by_young_sum(n, m, n) == top
            ok = ok and coeff_by_young_sum(n, m, n - 1) == top
    _verdict(2, "anchored endpoint formulas and first-family values", ok)


def test_criterion_3_derived_spot_values():
    expected_rows = {
        (2, 1): [1, 2, 2],
        (3, 1): [1, Fraction(7, 3), Fraction(10, 3), Fraction(10, 3)],
        (3, 2): [4, Fraction(28, 3), Fraction(28, 3), Fraction(28, 3)],
    }
    table = recursion_table(3)
    ok = True
    for (n, m), row in expected_rows.items():
        for k, value in enumerate(row):
            for record in route_records(n, m, k):
                ok = ok and record.value == value
            ok = ok and table[(n, m, k)] == value
    ok = ok and generating_poly(2) == UniPoly(
        (Fraction(1, 90), Fraction(1, 15), Fraction(1, 6))
    )
    ok = ok and bernstein_transform(2, 2) == UniPoly(
        (Fraction(1, 6), Fraction(-4, 15), Fraction(1, 9))
    )
    ok = ok and [scaled_bernoulli(m) for m in (1, 2, 3)] == [
        Fraction(1, 6),
        Fraction(1, 90),
        Fraction(1, 945),
    ]
    _verdict(3, "derived spot values (coefficient rows, base polynomials)", ok)


def test_criterion_4_positivity():
    ok = True
    for m in range(1, 13):
        g = generating_poly(m)
        ok = ok and g.degree == m and all(c > 0 for c in g.coeffs)
    for (n, m, k), value in recursion_table(5).items():
        ok = ok and value > 0
    _verdict(4, "positive generating polynomials and positive coefficients", ok)


def test_criterion_5_series_identities():
    report = identity_report(16)
    _verdict(5, "series identities at truncation order 16", report.all_ok)


def test_criterion_6_n_independence():
    ok = True
    one_plus_t = ONE + T
    for m in range(1, 6):
        base = lifted_generating_poly(m, m)
        bern = bernstein_transform(m, m)
        for n in range(m, m + 4):
            lifted = lifted_generating_poly(n, m)
            ok = ok and lifted * power(one_plus_t, m) == base * power(one_plus_t, n)
            ok = ok and bernstein_transform(n, m) == bern
    _verdict(6, "n-independence of the normalized generating polynomials", ok)


def _brute_ratio(mat):
    num = 1
    den = 1
    for row in mat.entries:
        num *= factorial(sum(row))
        for e in row:
            den *= factorial(e)
    return Fraction(num, den)


def test_criterion_7_definitional_equivalences():
    ok = True
    # moment polynomials against the raw staircase-matrix sum
    for n in range(1, 4):
        for k in range(n + 1):
            for m in range(5):
                brute = MultiPoly(n)
                for cs in compositions(m, n):
                    for mat in quad_matrices_with_colsums(n, k, cs):
                        brute = brute + _brute_ratio(mat) * MultiPoly.monomial(mat.col_sums)
                ok = ok and flag_moment(n, k, m) == brute
    # even part against the literal sign average
    for n in range(1, 4):
        for k in range(n + 1):
            for m in range(5):
                h = flag_moment(n, k, m)
                avg = MultiPoly(n)
                for signs in product((1, -1), repeat=n):
                    avg = avg + signed_permute(h, signs=signs)
                ok = ok and flag_moment_even(n, k, m) == avg * Fraction(1, 2 ** n)
    # full group average and odd-degree vanishing
    for n in range(1, 4):
        for k in range(n + 1):
            for degree in range(7):
                h = flag_moment(n, k, degree)
                avg = MultiPoly(n)
                for perm in permutations(range(n)):
                    for signs in product((1, -1), repeat=n):
                        avg = avg + signed_permute(h, signs=signs, perm=perm)
                avg = avg * Fraction(1, 2 ** n * factorial(n))
                ok = ok and skeleton_invariant(n, k, degree) == avg
                if degree % 2:
                    ok = ok and skeleton_invariant(n, k, degree).is_zero()
    # matrix weight against enumeration
    for n in range(1, 4):
        for k in range(4):
            for total in range(4):
                for nu in compositions(total, n):
                    brute = sum(
                        (_brute_ratio(mat) for mat in quad_matrices_with_colsums(n, k, nu)),
                        Fraction(0),
                    )
                    ok = ok and matrix_weight(n, k, nu) == brute
    # young weight against rearrangement sums
    for k in range(1, 5):
        for weight in range(5):
            for parts in young_diagrams(weight, k):
                brute = Fraction(0)
                for nu in set(permutations(parts + (0,) * (k - len(parts)))):
                    term = Fraction(1)
                    for j in range(1, k + 1):
                        term /= 2 * sum(nu[:j]) + j
                    for v in nu:
                        term /= factorial(2 * v)
                    brute += term
                ok = ok and young_weight(k, parts) == brute
    # sign weight against the root-of-unity definition, float tolerance
    for n in range(1, 5):
        for m in range(1, n + 1):
            zeta = cmath.exp(2j * cmath.pi / m)
            for nu in compositions(m, n):
                total = 0j
                for perm in permutations(range(1, n + 1)):
                    if all(perm[i] <= m for i in range(n) if nu[i] >= 1):
                        total += zeta ** sum(perm[i] * nu[i] for i in range(n))
                exact = complex(partition_sign_weight(n, m, nu))
                ok = ok and abs(total - exact) < 1e-9
    _verdict(7, "definitional brute-force equivalences", ok)


def test_criterion_8_harmonics_suite():
    ok = harmonic_module_dimension(1) == 2
    ok = ok and harmonic_module_dimension(2) == 8
    ok = ok and harmonic_module_dimension(3) == 48
    for n in range(1, 4):
        report = harmonic_basis_report(n)
        ok = ok and report.all_ok
    square = mean_value_report(MultiPoly.monomial((2, 0)), 2, 1)
    ok = ok and not square.holds
    ok = ok and square.residual == MultiPoly(3, {(0, 0, 2): Fraction(2, 3)})
    for n in range(1, 4):
        for m in range(1, n + 1):
            for k in range(n + 1):
                ok = ok and annihilates_alternating(n, m, k)
    _verdict(8, "harmonics suite (dimension, mean value, annihilation)", ok)
