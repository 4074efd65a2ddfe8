"""The cube-skeleton invariant polynomials, all from one staircase fiber sum.

The flag moment h (`flag_moment`) is the complete homogeneous polynomial
of degree m in the first k + 1 flag sums T_i = x_i + ... + x_n.  By the
multinomial theorem each product prod T_i**R_i contributes
prod R_i! / prod e! for every staircase matrix with row sums R and
column sums a, so the coefficient of x**a in h is the staircase weight
summed over the fiber of a, `combinat.fiber_weight(n, k, a)`.  The even
part g (`flag_moment_even`) keeps the fibers whose column sums are all
even.  The skeleton invariant tau (`skeleton_invariant`) is the average
of h over the hyperoctahedral group: the sign flips give g, and the
permutations of the variables give each exponent vector the mean of g
over its orbit, which is a set of compositions listed once each.
Expanding tau in the elementary symmetric basis of the squared variables
yields the leading coefficients that every other computation route must
reproduce.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .combinat import compositions, fiber_weight, young_diagrams
from .linalg import solve_or_rank
from .multipoly import MultiPoly

__all__ = [
    "TERM_BUDGET",
    "TermBudgetExceeded",
    "flag_moment",
    "flag_moment_even",
    "skeleton_invariant",
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


def _fiber_sums(n, k, m, step):
    """Map each exponent vector of degree m whose entries are multiples of
    `step` to its staircase fiber sum: the coefficients of h (step 1) or
    g (step 2).  No vector qualifies when `step` does not divide m."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if m < 0:
        raise ValueError("need m >= 0")
    if m % step:
        return {}
    vectors = (tuple(step * v for v in nu) for nu in compositions(m // step, n))
    return {a: fiber_weight(n, k, a) for a in vectors}


def flag_moment(n, k, m):
    """Complete homogeneous polynomial of degree m in the first k+1 flag sums.

    For k = n the extra argument is the empty sum, so the value matches
    k = n - 1.
    """
    return MultiPoly(n, _fiber_sums(n, k, m, 1))


def flag_moment_even(n, k, m):
    """Even part (under all sign flips) of flag_moment: its monomials with
    even exponents.  Odd m gives zero."""
    return MultiPoly(n, _fiber_sums(n, k, m, 2))


def skeleton_invariant(n, k, degree):
    """Full hyperoctahedral average of flag_moment: a homogeneous invariant.

    Each coefficient is the mean of flag_moment_even over the orbit of
    its exponent vector under permuting the variables.  Zero for odd
    degree.  The value for k = n coincides with k = n - 1.
    """
    weights = _fiber_sums(n, k, degree, 2)
    orbits = {}
    for exps in weights:
        orbits.setdefault(tuple(sorted(exps)), []).append(exps)
    terms = {}
    for members in orbits.values():
        mean = Fraction(sum(weights[a] for a in members), len(members))
        for exps in members:
            terms[exps] = mean
    return MultiPoly(n, terms)


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
    basis_parts = list(young_diagrams(m, m))
    basis_polys = []
    for parts in basis_parts:  # checked before the next product is built
        basis_polys.append(_elementary_product(n, parts))
        _check_budget(sum(len(p.terms) for p in [target, *basis_polys]))

    support = dict.fromkeys(mono for p in [target, *basis_polys] for mono in p.terms)
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
