"""Reference code the tests compare the program against.

None of it runs in production: the differential-difference route to the
Bernstein family, the symbolic expansion of complete homogeneous
polynomials of the suffix sums, the signed permutation of variables and
the orbit-by-orbit permutation average that define the hyperoctahedral
averages, the rebuilding of an invariant from its elementary-basis
expansion, the recursion sweep and the generating-polynomial recursion
in `Fraction` arithmetic, the Bernstein form by binomial expansion, the
staircase closed form, the staircase weight of one fiber by a column
dynamic program (the reference for the flag moment's coefficients), the
checked sign weight of an ordered partition and the matrix route's
signed sum fiber by fiber, the point DP's support weight as its Moebius
sum, the Young generating polynomial with each length lifted on its
own, the alternating polynomial as a product of
its n(n-1)/2 factors, elimination on dense rows, and the sparse
echelon basis in `Fraction` arithmetic.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from operator import add

from cubeharm.bernoulli import scaled_bernoulli
from cubeharm.coefficients import (
    _degree_two_count,
    _sign_weight,
    closed_form,
    recursion_rows,
    young_weight,
)
from cubeharm.combinat import compositions, young_diagrams
from cubeharm.invariants import _check_budget, elementary_symmetric_squares
from cubeharm.multipoly import MultiPoly, grlex_key
from cubeharm.unipoly import UniPoly, binomial_poly


def power(base, exponent):
    """A `UniPoly` to a nonnegative power, by repeated multiplication."""
    result = UniPoly((1,))
    for _ in range(exponent):
        result = result * base
    return result


def bernstein_from_ode(m, prev):
    """Solve the differential-difference equation for the next member.

    Coefficient matching in 2*F + (t/m)*F' + ((1-t)**2/(m-1))*prev' = 0
    determines every coefficient of F, since 2 + j/m > 0.  The constant
    term must come out as (2**(2m)-1)*b_m; a mismatch means a bug, so it
    is a hard error rather than a report.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if prev.degree != m - 1:
        raise ValueError("previous member must have degree m - 1")
    f = [prev[j] for j in range(max(prev.degree + 1, 0))]

    def fc(j):
        return f[j] if 0 <= j < len(f) else Fraction(0)

    coeffs = []
    for j in range(m + 1):
        rhs = -(Fraction(1, m - 1)) * ((j + 1) * fc(j + 1) - 2 * j * fc(j) + (j - 1) * fc(j - 1))
        coeffs.append(rhs / (2 + Fraction(j, m)))
    result = UniPoly(coeffs)
    expected0 = (2 ** (2 * m) - 1) * scaled_bernoulli(m)
    if result[0] != expected0:
        raise RuntimeError(
            f"differential-difference solution has constant term {result[0]},"
            f" expected {expected0}"
        )
    return result


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
    total = MultiPoly(nvars)
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
    acc = MultiPoly(n)
    for i in range(n - 1, -1, -1):
        acc = acc + MultiPoly.monomial(tuple(int(j == i) for j in range(n)))
        sums.append(acc)
    sums.reverse()
    return sums


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


def signed_permute(poly, signs=None, perm=None):
    """Substitute x_i -> signs[i] * x_{perm[i]} (identity when omitted)."""
    if signs is None:
        signs = (1,) * poly.nvars
    if perm is None:
        perm = tuple(range(poly.nvars))
    out = {}
    for exps, c in poly.terms.items():
        sign = 1
        new = [0] * poly.nvars
        for i, e in enumerate(exps):
            if e:
                new[perm[i]] += e
                if signs[i] < 0 and e % 2:
                    sign = -sign
        key = tuple(new)
        out[key] = out.get(key, Fraction(0)) + sign * c
    return MultiPoly(poly.nvars, out)


def alternating_by_products(n):
    """x_1 ... x_n times the product of (x_i**2 - x_j**2) over i < j,
    multiplied out factor by factor."""
    poly = MultiPoly.monomial((1,) * n)
    for i in range(n):
        for j in range(i + 1, n):
            xi2 = MultiPoly.monomial(tuple(2 if t == i else 0 for t in range(n)))
            xj2 = MultiPoly.monomial(tuple(2 if t == j else 0 for t in range(n)))
            poly = poly * (xi2 - xj2)
    return poly


def _elementary_product(n, parts):
    poly = MultiPoly.constant(n, 1)
    for p in parts:
        poly = poly * elementary_symmetric_squares(n, p)
    return poly


def reconstruct(expansion):
    """The invariant an `InvariantExpansion` stands for, rebuilt from its terms."""
    n = expansion.n
    total = _elementary_product(n, (expansion.m,)) * expansion.leading
    for parts, coeff in expansion.lower_terms:
        total = total + _elementary_product(n, parts) * coeff
    return total


def _c63_factor(n, m, k):
    return Fraction((n - k) * (n - k - 1) * m, n * (m - 1))


def fraction_recursion_table(n_max):
    """Fill the whole coefficient grid through the recursion, in one sweep.

    The m = 1 row is counted directly by `_degree_two_count`.  Rows with
    m >= 2 take the closed forms at k in {0, n-1, n} and are swept upward
    in k in between, consuming the already filled (n-1, m-1) row.  Every
    cell a closed form covers is cross-checked against it; a mismatch is
    an internal error.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    table = {}
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            for k in range(n + 1):
                check = closed_form(n, m, k)
                if m == 1:
                    value = _degree_two_count(n, k)
                elif k in (0, n - 1, n):
                    value = check
                else:
                    value = table[(n, m, k - 1)] + _c63_factor(n, m, k) * (
                        (2 * m + k - 1) * table[(n - 1, m - 1, k)]
                        - (k + 1) * table[(n - 1, m - 1, k + 1)]
                    )
                if check is not None and check != value:
                    raise RuntimeError(
                        f"recursion sweep disagrees with closed form at ({n},{m},{k})"
                    )
                table[(n, m, k)] = value
    return table


def recursion_grid(n_max):
    """Every cell with n <= n_max, read from `recursion_rows` in one pass,
    as a dict (n, m, k) -> `Fraction` in the order of `fraction_recursion_table`."""
    return {
        (n, m, k): Fraction(num, den)
        for n, m, nums, den in sorted(recursion_rows(n_max))
        for k, num in enumerate(nums)
    }


@lru_cache(maxsize=None)
def fraction_generating_poly(m):
    """The Bernoulli recursion for P_m in the basis t, in `Fraction` polynomials:
        P_m = b_m (t+1)**(m-1) + 2 t * sum_{i<m} b_{m-i} (t+1)**(m-i-1) P_i
    with P_1 = t/2 + 1/6.
    """
    if m == 1:
        return UniPoly((Fraction(1, 6), Fraction(1, 2)))
    acc = UniPoly()
    for i in range(1, m):
        term = scaled_bernoulli(m - i) * binomial_poly(m - i - 1)
        acc = acc + term * fraction_generating_poly(i)
    return scaled_bernoulli(m) * binomial_poly(m - 1) + 2 * UniPoly((0, 1)) * acc


def binomial_bernstein_transform(m):
    """t**m G_m((1-t)/t) with G_m from `fraction_generating_poly`: expanding
    sum_j g_j (1-t)**j t**(m-j) binomially puts g_j (-1)**i C(j, i) at
    t**(m-j+i).
    """
    coeffs = [Fraction(0)] * (m + 1)
    for j, c in enumerate(fraction_generating_poly(m).coeffs):
        for i in range(j + 1):
            coeffs[m - j + i] += (-1) ** i * comb(j, i) * c
    return UniPoly(coeffs)


def fiber_weight(n, k, colsums):
    """Sum of the staircase weights of the (k+1) x n staircase matrices
    with the given column sums, by a dynamic program over the columns:
    the coefficient of x**colsums in the flag moment h.

    A matrix with row sums R_i and entries e weighs prod R_i! / prod e!,
    which is prod R_i! * prod_j multinomial(c_j; column j) / prod c_j!.
    The state is the vector of partial row sums and its value the integer
    sum of the column multinomials so far; column j splits c_j over its
    first min(j+1, k+1) rows.  At the end each state is multiplied by
    prod R_i!, and the total divides exactly by prod c_j!.  This sums the
    terms of the matrix-by-matrix enumeration, never the staircase closed
    form (`matrix_weight`).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if len(colsums) != n:
        raise ValueError("colsums length must equal n")
    nrows = k + 1
    states = {(0,) * nrows: 1}
    for j, c in enumerate(colsums):
        free = min(j + 1, nrows)
        steps = []
        for split in compositions(c, free):
            multinomial = factorial(c)
            for e in split:
                multinomial //= factorial(e)
            steps.append((split + (0,) * (nrows - free), multinomial))
        grown = {}
        for state, value in states.items():
            for split, multinomial in steps:
                key = tuple(map(add, state, split))
                grown[key] = grown.get(key, 0) + value * multinomial
        states = grown
    total = 0
    for state, value in states.items():
        for r in state:
            value *= factorial(r)
        total += value
    for c in colsums:
        total //= factorial(c)
    return total


def matrix_weight(n, k, nu):
    """Weighted count of staircase matrices with column sums nu.

    Closed form (sum(nu)+k)! / (prod_{j<=k}(nu_1+...+nu_j+j) * prod nu_j!),
    the value of `fiber_weight` without the column-by-column sum.
    """
    if len(nu) != n:
        raise ValueError("column-sum vector length must equal n")
    if any(v < 0 for v in nu):
        raise ValueError("column sums must be nonnegative")
    den = 1
    partial = 0
    # Columns past the n-th are empty; they still count while j <= k.
    for j, v in enumerate(tuple(nu) + (0,) * (k - n), 1):
        partial += v
        den *= factorial(v) * (partial + j if j <= k else 1)
    return Fraction(factorial(partial + k), den)


def partition_sign_weight(n, m, nu):
    """The sign weight of an ordered partition nu of m into n parts,
    checked: `coefficients._sign_weight` at its number of positive parts."""
    if len(nu) != n:
        raise ValueError("partition length must equal n")
    if sum(nu) != m or any(v < 0 for v in nu):
        raise ValueError("expected nonnegative entries summing to m")
    if m < 1:
        raise ValueError("need m >= 1")
    return _sign_weight(n, m, sum(1 for v in nu if v))


def matrix_sum_by_fibers(n, m, k):
    """The matrix route's signed sum with one fiber DP per ordered partition.

    (-1)**(m-1)/n! times the sum, over the ordered partitions nu of m into
    n parts, of partition_sign_weight(n, m, nu) times
    `fiber_weight` at the column sums 2 nu.
    """
    total = sum(
        partition_sign_weight(n, m, nu) * fiber_weight(n, k, tuple(2 * v for v in nu))
        for nu in compositions(m, n)
    )
    return Fraction((-1) ** (m - 1) * total, factorial(n))


def support_weight_by_moebius(n, m, u):
    """The point DP's weight of the points with u nonzero entries, as the
    Moebius sum d(u) = sum_{s=u}^m (-1)**(s-u) C(n-u, s-u) w(s) over the
    support sizes s, w = `coefficients._sign_weight`."""
    return sum(
        (-1) ** (s - u) * comb(n - u, s - u) * _sign_weight(n, m, s) for s in range(u, m + 1)
    )


@lru_cache(maxsize=None)
def _young_sums_by_length(m):
    """The Young diagrams of weight m summed per length l, unlifted: each
    contributes (-1)**(l-1) (l-1)! young_weight(l, lambda) times the
    product over its parts j of ((2j+1) t + 1)."""
    by_length = {}
    for parts in young_diagrams(m, m):
        ell = len(parts)
        product = [1]
        for part in parts:
            product = [a + (2 * part + 1) * b for a, b in zip(product + [0], [0] + product)]
        weight = (-1) ** (ell - 1) * factorial(ell - 1) * young_weight(ell, parts)
        by_length[ell] = by_length.get(ell, UniPoly()) + weight * UniPoly(product)
    return by_length


def young_poly_by_lengths(n, m):
    """The Young generating polynomial with each length's sum lifted by
    its own (t+1)**(n-l), the total scaled by (-1)**(m-1) m."""
    total = UniPoly()
    for ell, poly in _young_sums_by_length(m).items():
        total = total + poly * binomial_poly(n - ell)
    return Fraction((-1) ** (m - 1) * m) * total


def dense_independent_subset(polys):
    """Greedy maximal linearly independent subset, in input order.

    Each polynomial becomes a dense row over the grlex-sorted support of
    all of them, and is reduced against the pivot rows kept so far in
    increasing order of their leading columns.
    """
    polys = [p for p in polys if not p.is_zero()]
    support = sorted({mono for p in polys for mono in p.terms}, key=grlex_key)
    index = {mono: i for i, mono in enumerate(support)}
    pivots = {}  # leading column -> dense row with 1 there
    chosen = []
    for p in polys:
        row = [Fraction(0)] * len(support)
        for mono, c in p.terms.items():
            row[index[mono]] = Fraction(c)
        for col in sorted(pivots):
            factor = row[col]
            if factor:
                row = [a - factor * b for a, b in zip(row, pivots[col])]
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is not None:
            pivots[lead] = [c / row[lead] for c in row]
            chosen.append(p)
    return chosen


class FractionRowBasis:
    """Incremental echelon basis of sparse rows {column: value} in
    `Fraction` arithmetic, each pivot row scaled to leading entry 1 at
    its least column, reduced against the pivots in ascending order."""

    def __init__(self):
        self.pivots = {}  # leading column -> normalized reduced sparse row

    def reduce(self, row):
        work = {j: Fraction(c) for j, c in row.items() if c}
        for col in sorted(self.pivots):
            factor = work.get(col)
            if factor:
                for j, b in self.pivots[col].items():
                    value = work.get(j, 0) - factor * b
                    if value:
                        work[j] = value
                    else:
                        del work[j]
        return work

    def add(self, row):
        reduced = self.reduce(row)
        if not reduced:
            return False
        lead = min(reduced)
        self.pivots[lead] = {j: c / reduced[lead] for j, c in reduced.items()}
        return True

    def contains(self, row):
        return not self.reduce(row)

    @property
    def rank(self):
        return len(self.pivots)
