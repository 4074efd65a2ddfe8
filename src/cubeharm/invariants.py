"""Symbolic construction of the cube-skeleton invariant polynomials.

The chain goes: complete homogeneous polynomials of suffix sums, their
even part under sign flips (computed through the staircase-matrix sum,
which avoids the 2**n blowup), and finally the full hyperoctahedral
average.  Expanding that average in the elementary symmetric basis of
the squared variables yields the leading coefficients that every other
computation route must reproduce.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from .combinat import compositions, fiber_weight, young_diagrams
from .linalg import solve_or_rank
from .multipoly import MultiPoly, grlex_key

__all__ = [
    "TERM_BUDGET",
    "TermBudgetExceeded",
    "complete_homogeneous",
    "suffix_sums",
    "flag_moment",
    "flag_moment_even",
    "skeleton_invariant",
    "symmetrize_over_permutations",
    "elementary_symmetric_squares",
    "fundamental_alternating",
    "InvariantExpansion",
    "expand_in_elementary_basis",
]

TERM_BUDGET = 200_000  # largest term count a symbolic expansion may reach


class TermBudgetExceeded(RuntimeError):
    """A symbolic expansion grew beyond the term budget."""


def _check_budget(npolys_terms):
    if npolys_terms > TERM_BUDGET:
        raise TermBudgetExceeded(
            f"expansion needs {npolys_terms} terms, budget is {TERM_BUDGET}"
        )


def complete_homogeneous(degree, args):
    """Sum over ordered degree splittings of products args[0]**m0 * ... .

    This is the complete homogeneous symmetric polynomial when the
    arguments are distinct variables.
    """
    args = list(args)
    if not args:
        raise ValueError("need at least one argument polynomial")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    nvars = args[0].nvars
    if any(p.nvars != nvars for p in args):
        raise ValueError("argument variable counts differ")
    powers = []
    for p in args:
        cache = [MultiPoly.constant(nvars, 1)]
        for _ in range(degree):
            cache.append(cache[-1] * p)
        powers.append(cache)
    total = MultiPoly.zero(nvars)
    for split in compositions(degree, len(args)):
        term = MultiPoly.constant(nvars, 1)
        for cache, e in zip(powers, split):
            if e:
                term = term * cache[e]
        total = total + term
        _check_budget(len(total.terms))
    return total


def suffix_sums(n):
    """The polynomials x_i + x_{i+1} + ... + x_n for i = 1..n."""
    sums = []
    acc = MultiPoly.zero(n)
    for i in range(n - 1, -1, -1):
        acc = acc + MultiPoly.variable(n, i)
        sums.append(acc)
    sums.reverse()
    return sums


def flag_moment(n, k, m):
    """Complete homogeneous polynomial of the first k+1 suffix sums.

    For k = n the extra argument is the empty sum, so the value matches
    k = n - 1.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    tails = suffix_sums(n)
    args = [tails[i] for i in range(min(k + 1, n))]
    if k == n:
        args.append(MultiPoly.zero(n))
    return complete_homogeneous(m, args)


def flag_moment_even(n, k, m):
    """Even part (under all sign flips) of flag_moment, by the staircase sum.

    The monomial with even exponents 2 nu (nu adding to m/2) has as its
    coefficient the summed staircase weight of the matrices with column
    sums 2 nu, summed by `fiber_weight`.  Odd m gives zero.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if m % 2:
        return MultiPoly.zero(n)
    coeffs = {}
    for nu in compositions(m // 2, n):
        colsums = tuple(2 * v for v in nu)
        coeffs[colsums] = fiber_weight(n, k, colsums)
    return MultiPoly(n, coeffs)


def symmetrize_over_permutations(poly):
    """Average of a polynomial over all permutations of its variables.

    Works orbit by orbit on the exponent vectors instead of summing n!
    substitution images; the result is identical.
    """
    n = poly.nvars
    orbits = {}
    for exps, c in poly.terms.items():
        key = tuple(sorted(exps, reverse=True))
        orbits[key] = orbits.get(key, Fraction(0)) + c
    nfact = factorial(n)
    out = {}
    for key, total in orbits.items():
        if not total:
            continue
        stabilizer = 1
        for count in Counter(key).values():
            stabilizer *= factorial(count)
        weight = total * Fraction(stabilizer, nfact)
        for arrangement in set(permutations(key)):
            out[arrangement] = out.get(arrangement, Fraction(0)) + weight
    return MultiPoly(n, out)


def skeleton_invariant(n, k, degree):
    """Full hyperoctahedral average of flag_moment: a homogeneous invariant.

    Zero for odd degree.  The value for k = n coincides with k = n - 1.
    """
    return symmetrize_over_permutations(flag_moment_even(n, k, degree))


def elementary_symmetric_squares(n, m):
    """m-th elementary symmetric polynomial of the squared variables."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    terms = {}
    for chosen in combinations(range(n), m):
        exps = [0] * n
        for i in chosen:
            exps[i] = 2
        terms[tuple(exps)] = Fraction(1)
    return MultiPoly(n, terms)


def fundamental_alternating(n):
    """x_1 ... x_n times the product of (x_i**2 - x_j**2) over i < j."""
    if n < 1:
        raise ValueError("need n >= 1")
    poly = MultiPoly.monomial((1,) * n)
    for i in range(n):
        for j in range(i + 1, n):
            xi2 = MultiPoly.monomial(tuple(2 if t == i else 0 for t in range(n)))
            xj2 = MultiPoly.monomial(tuple(2 if t == j else 0 for t in range(n)))
            poly = poly * (xi2 - xj2)
    return poly


@dataclass(frozen=True)
class InvariantExpansion:
    """Expansion of a skeleton invariant in the elementary squared basis.

    `leading` multiplies the top elementary polynomial e_{2m}; the lower
    terms are keyed by the partition of m giving each product of smaller
    elementary polynomials.
    """

    n: int
    m: int
    k: int
    leading: Fraction
    lower_terms: tuple  # ((partition tuple, Fraction), ...) in enumeration order


def _elementary_product(n, parts):
    poly = MultiPoly.constant(n, 1)
    for p in parts:
        poly = poly * elementary_symmetric_squares(n, p)
    return poly


def expand_in_elementary_basis(n, m, k):
    """Solve for the unique expansion of the degree-2m skeleton invariant.

    Builds the exact linear system over the monomial support of all
    weighted products of elementary squared polynomials of weight 2m and
    solves it; the system always has a unique solution.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    target = skeleton_invariant(n, k, 2 * m)
    basis_parts = [lam.parts for lam in young_diagrams(m, m)]
    basis_polys = [_elementary_product(n, parts) for parts in basis_parts]
    _check_budget(sum(len(p.terms) for p in basis_polys) + len(target.terms))

    support = set(target.terms)
    for p in basis_polys:
        support.update(p.terms)
    support = sorted(support, key=grlex_key)
    matrix = [[p.terms.get(mono, Fraction(0)) for p in basis_polys] for mono in support]
    rhs = [target.terms.get(mono, Fraction(0)) for mono in support]
    solution = solve_or_rank(matrix, rhs)

    leading = None
    lower = []
    for parts, coeff in zip(basis_parts, solution):
        if parts == (m,):
            leading = coeff
        elif coeff:
            lower.append((parts, coeff))
    return InvariantExpansion(n, m, k, leading, tuple(lower))
