"""The cube-skeleton invariant polynomials, all from one expansion of the
flag moment.

The flag moment h (`flag_moment`) is the complete homogeneous polynomial
of degree m in the first K = min(k+1, n) flag sums T_i = x_i + ... + x_n.
The later variables enter every T_i only through S = x_K + ... + x_n, so
h is expanded once, in integers, in x_1, ..., x_{K-1} and S by the
recursion h_j(T_1..T_i) = h_j(T_1..T_{i-1}) + T_i h_{j-1}(T_1..T_i)
(Macdonald, Symmetric Functions and Hall Polynomials, I.2).  The
coefficient of x**a is that of x_1**a_1 ... x_{K-1}**a_{K-1} S**r times
the multinomial r! / prod_{j>=K} a_j!, r = a_K + ... + a_n.  The even
part g (`flag_moment_even`) keeps the exponent vectors with all entries
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
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from operator import mul

from .combinat import compositions, young_diagrams
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


def _flag_expansion(powers, m):
    """h_m(T_1, ..., T_K), K = len(powers), in x_1, ..., x_{K-1}, S, one
    degree at a time, with integer coefficients keyed by sum_u e_u
    powers[u]: T_i = x_i + ... + x_{K-1} + S adds powers[u] for each u >= i."""
    layer = [{0: 1}] * len(powers)
    for _ in range(m):
        below = {}
        for i in range(len(powers)):
            row = dict(below)
            shifts = powers[i:]
            for key, c in layer[i].items():
                for s in shifts:
                    row[key + s] = row.get(key + s, 0) + c
            layer[i] = below = row
    return layer[-1]


def _fiber_sums(n, k, m, step):
    """Map each exponent vector of degree m whose entries are multiples of
    `step` to its coefficient in h (step 1) or g (step 2), read off
    `_flag_expansion`.  No vector qualifies when `step` does not divide m."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if m < 0:
        raise ValueError("need m >= 0")
    if m % step:
        return {}
    rows = min(k + 1, n)
    powers = [(m + 1) ** u for u in range(rows)]  # no exponent exceeds m
    flag = _flag_expansion(powers, m)

    @lru_cache(maxsize=n)  # in composition order a tail's rows are reused in runs
    def pascal(r):  # row r of Pascal's triangle, each entry from the last
        return list(accumulate(range(r), lambda c, i: c * (r - i) // (i + 1), initial=1))

    weights = {}
    for nu in compositions(m // step, n):
        a = tuple(step * v for v in nu)
        r = sum(a[rows - 1 :])
        w = flag[sum(map(mul, a[: rows - 1] + (r,), powers))]
        for v in a[rows - 1 : -1]:  # r! / prod_{j>=K} a_j!, a binomial at a time
            w *= pascal(r)[v]
            r -= v
        weights[a] = w
    return weights


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
        terms[tuple(exps)] = 1
    return MultiPoly(n, terms)


def fundamental_alternating(n):
    """x_1 ... x_n times the product of (x_i**2 - x_j**2) over i < j.

    That is x_1 ... x_n times a Vandermonde determinant in the x_i**2,
    expanded: the sum over the n! arrangements e of 1, 3, ..., 2n-1 of
    (-1)**(inv e + n(n-1)/2) x**e, where inv e counts the pairs i < j
    with e_i > e_j.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    sign = (-1) ** (n * (n - 1) // 2)
    terms = {
        exps: sign * (-1) ** sum(a > b for a, b in combinations(exps, 2))
        for exps in permutations(range(1, 2 * n, 2))
    }
    return MultiPoly(n, terms)


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
    matrix = [[p.terms.get(mono, 0) for p in basis_polys] for mono in support]
    rhs = [target.terms.get(mono, 0) for mono in support]
    solution = solve_or_rank(matrix, rhs)

    leading = None
    lower = []
    for parts, coeff in zip(basis_parts, solution):
        if parts == (m,):
            leading = coeff
        elif coeff:
            lower.append((parts, coeff))
    return InvariantExpansion(n, m, k, leading, tuple(lower))
