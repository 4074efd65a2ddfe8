"""Leading skeleton-invariant coefficients by every available route.

The coefficient c(n, m, k) multiplies the top elementary symmetric
polynomial of the squared variables in the degree-2m skeleton invariant.
Routes implemented here:

  matrix      signed sum over the staircase matrices, as the flag moment
              summed over the points {-1, 0, 1}**n by one integer dynamic
              program, weighed by support size (n <= 6 in the sweep)
  partition   the same signed sum with each fiber by its closed form, as an
              integer dynamic program over the positions of nu
  young       generating polynomial assembled over Young diagrams at n = m
              as integer sums per length, joined by Horner's rule over
              one denominator, and lifted once to n
  generating  generating polynomial from the Bernoulli recursion
  recursion   the coefficient recursion walked up each diagonal n - m
              in integer rows, seeded by the m = 1 row's own count and
              the k = 0 closed form; only the top layer is held
  oracle      symbolic expansion in the elementary basis (small n)
  extremal    closed forms alone, where applicable

All routes return identical exact rationals; tests enforce this cell by
cell.
"""

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, perm
from operator import add

from . import cost, generating
from .bernoulli import scaled_bernoulli
from .combinat import young_diagrams
from .invariants import expand_in_elementary_basis
from .unipoly import UniPoly, binomial_poly

__all__ = [
    "CoefficientRecord",
    "young_weight",
    "coeff_by_matrix_sum",
    "coeff_by_partition_sum",
    "young_generating_poly",
    "coeff_by_young_sum",
    "coeff_by_generating",
    "coeff_by_expansion",
    "closed_form",
    "coeff_by_recursion",
    "recursion_table",
    "ROUTES",
    "coefficient_record",
    "route_records",
]


@dataclass(frozen=True)
class CoefficientRecord:
    n: int
    m: int
    k: int
    value: Fraction
    route: str


def _validate(n, m, k):
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")


def _sign_weight(n, m, ell):
    """Closed form m * (-1)**(l-1) * (l-1)! * (n-l)! of an ordered
    partition nu of m into n nonnegative parts with l positive parts.

    For n >= m this equals the signed root-of-unity permutation sum
    attached to nu; the coefficient sums only ever evaluate it there.
    """
    return m * (-1) ** (ell - 1) * factorial(ell - 1) * factorial(n - ell)


def _support_weight(n, m, u):
    """The matrix route's weight d(u) = sum_{s=u}^m (-1)**(s-u) C(n-u, s-u)
    w(s) of a point with u nonzero entries, w = `_sign_weight`, in closed
    form: term s is w(u) C(s-1, u-1), which sum to C(m, u) w(u) by upper summation."""
    return comb(m, u) * _sign_weight(n, m, u)


def _column_den(j, k, c, partial):
    """Column j's denominator in the staircase closed form.

    The staircase weight summed over the fiber with column sums nu is
    (sum(nu)+k)! / (prod_{j<=k}(nu_1+...+nu_j+j) * prod nu_j!), columns
    past the n-th counting as empty while j <= k.  Column j (1-based)
    with sum c and partial column sum `partial` up to and including it
    contributes 1 / (c! * (partial + j)) while j <= k, and 1 / c! after
    that.
    """
    return factorial(c) * (partial + j) if j <= k else factorial(c)


def young_weight(k, parts):
    """Closed form 1 / (prod s_j! * prod ((2j+1)!)**s_j) over part multiplicities.

    The multiplicities include the k - len(parts) zero parts of k ambient parts.
    """
    if len(parts) > k:
        raise ValueError("diagram has more than k parts")
    den = factorial(k - len(parts))
    for part, count in Counter(parts).items():
        den *= factorial(count) * factorial(2 * part + 1) ** count
    return Fraction(1, den)


def coeff_by_matrix_sum(n, m, k):
    """The signed sum over staircase matrices, from the flag moment h at
    the 3**n points x in {-1, 0, 1}**n, by one dynamic program.

    [x^a] h, h = h_2m(T_1, ..., T_K), K = min(k+1, n), T_i = x_i + ... +
    x_n, sums the staircase weights of the matrices with column sums a;
    the value is (-1)**(m-1)/n! times the sum of w(l(a)) [x^a] h over the
    even a, w = `_sign_weight` at the number l(a) of nonzero a_j.  Means
    over sign vectors and Moebius inversion over supports make it the sum
    of d(u) h(x) / 2**u over the points x with 1 <= u <= m nonzero
    entries, d = `_support_weight`.  States (T_i, u) enter position K
    from C(n-K, u) C(u, p) points at T = 2p - u; each position i <= K
    branches x_i into 0, 1, -1 and multiplies each state's integer
    z-series by 1 / (1 - T_i z) up to z**2m, whose last entry sums h(x).
    """
    _validate(n, m, k)
    rest = n - min(k + 1, n)
    states = {
        (2 * p - u, u): [comb(rest, u) * comb(u, p)] + [0] * (2 * m)
        for u in range(min(rest, m) + 1)
        for p in range(u + 1)
    }
    for _ in range(min(k + 1, n)):
        grown = {}
        for (t, u), series in states.items():
            for x in (0, 1, -1) if u < m else (0,):
                key = (t + x, u + (x != 0))
                grown[key] = list(map(add, grown[key], series)) if key in grown else series
        states = {}
        for (t, u), series in grown.items():
            acc = 0
            states[t, u] = [acc := c + t * acc for c in series]
    by_support = [0] * (m + 1)
    for (_, u), series in states.items():
        by_support[u] += series[-1]
    total = sum(_support_weight(n, m, u) * 2 ** (m - u) * by_support[u] for u in range(1, m + 1))
    return Fraction((-1) ** (m - 1) * total, factorial(n) * 2**m)


def coeff_by_partition_sum(n, m, k):
    """The matrix route's signed sum with each fiber weighed by its closed form.

    A dynamic program over the positions j = 1..n replaces the loop over
    the ordered partitions nu.  Its state is the partial sum S_j and the
    number l of nonzero parts so far, and each step divides by the column
    denominator `_column_den` at column sum 2 nu_j and partial sum 2 S_j.
    The values stay integers: step j scales them all by the lcm of its
    possible column denominators, so each division becomes an exact
    integer multiplier.  The sign weight depends on nu only through l, so
    it is applied per l at the end, together with (2m+k)!/n!.
    """
    _validate(n, m, k)
    states = {(0, 0): 1}
    scale = 1
    for j in range(1, n + 1):
        dens = {
            (v, s): _column_den(j, k, 2 * v, 2 * s) for s in range(m + 1) for v in range(s + 1)
        }
        step = lcm(*dens.values())
        scale *= step
        factor = {vs: step // den for vs, den in dens.items()}
        grown = {}
        for (partial, ell), value in states.items():
            for v in range(m - partial + 1):
                key = (partial + v, ell + (v > 0))
                grown[key] = grown.get(key, 0) + value * factor[v, partial + v]
        states = grown
    total = sum(
        _sign_weight(n, m, ell) * value
        for (partial, ell), value in states.items()
        if partial == m
    )
    return Fraction((-1) ** (m - 1) * total * factorial(2 * m + k), scale * factorial(n))


@lru_cache(maxsize=None)
def _young_base_poly(m):
    """G_m, the generating polynomial assembled from Young diagrams at n = m.

    A diagram of length l with part multiplicities r_1..r_m contributes
    (-1)**(l-1) (l-1)! young_weight(l, lambda) times the product over
    parts j of ((2j+1) t + 1)**r_j and (t+1)**(m - l).  The weight's
    denominator prod r_j! prod ((2j+1)!)**r_j divides D_l = l! (2m+l)!
    (two multinomials), so each length sums integer numerators over D_l.
    The per-length sums are joined by Horner's rule in t + 1, the total
    times l (2m+l) = D_l / D_(l-1) at each step, so it ends over D_m; only
    then is it scaled by (-1)**(m-1) m and made into `Fraction`s.
    """
    dens = [factorial(ell) * factorial(2 * m + ell) for ell in range(m + 1)]
    by_length = [[0] * (ell + 1) for ell in range(m + 1)]
    for parts in young_diagrams(m, m):
        ell = len(parts)
        weight = young_weight(ell, parts)
        sign = (-1) ** (ell - 1) * factorial(ell - 1)
        num = sign * dens[ell] * weight.numerator // weight.denominator
        product = [1]
        for part in parts:
            # product *= (2 part + 1) t + 1, in integers
            product = [a + (2 * part + 1) * b for a, b in zip(product + [0], [0] + product)]
        by_length[ell] = [a + num * c for a, c in zip(by_length[ell], product)]
    total = [0]
    for ell in range(1, m + 1):
        step = ell * (2 * m + ell)  # total (t + 1), brought over D_l, plus the length-l sum
        total = [step * (a + b) + c for a, b, c in zip(total + [0], [0] + total, by_length[ell])]
    scale = (-1) ** (m - 1) * m
    return UniPoly(Fraction(scale * c, dens[m]) for c in total)


@lru_cache(maxsize=None)
def young_generating_poly(n, m):
    """(t+1)**(n-m) times the Young G_m of `_young_base_poly`; defined for n >= m >= 1."""
    if not n >= m >= 1:
        raise ValueError("need n >= m >= 1")
    return binomial_poly(n - m) * _young_base_poly(m)


def coeff_by_young_sum(n, m, k):
    _validate(n, m, k)
    return generating.coefficient_from_generating_poly(
        young_generating_poly(n, m), n, m, k
    )


def coeff_by_generating(n, m, k):
    """Read the coefficient off the Bernoulli-recursion generating polynomial."""
    _validate(n, m, k)
    return generating.coefficient_from_family(n, m, k)


def coeff_by_expansion(n, m, k):
    """Definition-level value from the symbolic elementary-basis expansion."""
    _validate(n, m, k)
    return expand_in_elementary_basis(n, m, k).leading


def closed_form(n, m, k):
    """Closed-form value at the extreme skeleton dimensions, else None.

    Applicable at k in {0, 1, n-3, n-2, n-1, n} within the stated ranges.
    When several forms cover the same k they must agree; disagreement is
    an internal error.
    """
    _validate(n, m, k)
    values = []
    b = scaled_bernoulli(m)
    if k == 0:
        values.append(factorial(2 * m) * (2 ** (2 * m) - 1) * b)
    if k == 1:
        b_next = scaled_bernoulli(m + 1)
        low = (2 ** (2 * m) - 1) * b.numerator * b_next.denominator * n
        high = 2 * m * (2 ** (2 * (m + 1)) - 1) * b_next.numerator * b.denominator
        values.append(
            Fraction(factorial(2 * m + 1) * (low - high), n * b.denominator * b_next.denominator)
        )
    if k >= n - 3:
        top = perm(n + 2 * m, 2 * m) * b
        if k in (n - 1, n) or (k == n - 2 and m >= 2):
            values.append(top)
        if k == n - 3 and n >= 3 and m >= 2:
            values.append(top - 4 * m * perm(n + 2 * m - 3, 2 * m - 3) * scaled_bernoulli(m - 1))
    if not values:
        return None
    if any(v != values[0] for v in values[1:]):
        raise RuntimeError(f"closed forms disagree at ({n},{m},{k}): {values}")
    return values[0]


def _degree_two_count(n, k):
    """c(n, 1, k) = (k+1)(k+2)(3n-2k) / (6n), counted directly.

    A degree-2 invariant has only fibers with one column of sum 2,
    column j splits it over min(j, k+1) rows, and averaging
    C(min(j, k+1) + 1, 2) over j gives the count.
    """
    return Fraction((k + 1) * (k + 2) * (3 * n - 2 * k), 6 * n)


class _RecursionTable(Mapping):
    """The read-only grid of `recursion_table`, keyed (n, m, k) in sweep order.

    Only the top layer n = n_max, the one the route reads, is held, as
    `Fraction`s.  A lower cell (n, m, k) is read from the top layer of
    `recursion_table(n)`.
    """

    def __init__(self, n_max, top):
        self.n_max = n_max
        self._top = top  # (n_max, m, k) -> Fraction

    def __getitem__(self, cell):
        value = self._top.get(cell)
        if value is not None:
            return value
        try:
            n, m, k = cell
            below = 1 <= m <= n < self.n_max and 0 <= k <= n
        except (TypeError, ValueError):
            below = False
        if not below:
            raise KeyError(cell)
        return recursion_table(n)[cell]

    def __iter__(self):
        for n in range(1, self.n_max + 1):
            for m in range(1, n + 1):
                for k in range(n + 1):
                    yield n, m, k

    def __len__(self):
        n = self.n_max
        return n * (n + 1) * (n + 2) // 3


@lru_cache(maxsize=None)
def recursion_table(n_max):
    """Fill the coefficient grid through the recursion, one diagonal at a time.

    Row (n, m) reads only row (n-1, m-1), so the top row (n_max, m) is
    reached by walking the diagonal n - m = n_max - m up from its m = 1
    row, holding one row of integer numerators over one denominator.
    The m = 1 row is `_degree_two_count` over the lcm of its
    denominators.  A row with m >= 2 starts from the closed form at
    k = 0, and step k adds

        (n-k)(n-k-1) m ((2m+k-1) c(n-1, m-1, k) - (k+1) c(n-1, m-1, k+1))
        / (n (m-1))

    over the row below; the step is zero at k = n-1 and k = n.  The
    row's denominator is the lcm of the step's and the seed's, so each
    step is one integer update, and the row is reduced once at the end.
    Every row of the grid lies on one diagonal, so each is swept once,
    and every cell a closed form covers, which is some of k in {0, 1,
    n-3, n-2, n-1, n}, is cross-checked against it; a mismatch is an
    internal error.  The result is a read-only mapping (n, m, k) ->
    `Fraction` that holds only the top layer n = n_max.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    top = {}
    for m_top in range(1, n_max + 1):
        for m in range(1, m_top + 1):  # up the diagonal; nums, den hold the row below
            n = n_max - m_top + m
            covered = sorted(k for k in {0, 1, n - 3, n - 2, n - 1, n} if k >= 0)
            checks = {k: closed_form(n, m, k) for k in covered}
            if m == 1:
                row = [_degree_two_count(n, k) for k in range(n + 1)]
                den = lcm(*(c.denominator for c in row))
                nums = [c.numerator * (den // c.denominator) for c in row]
            else:
                prev, seed = nums, checks[0]
                step_den = n * (m - 1) * den
                den = lcm(step_den, seed.denominator)
                lift = den // step_den
                num = seed.numerator * (den // seed.denominator)
                nums = [num]
                for k in range(1, n + 1):
                    if k < n - 1:
                        num += lift * (n - k) * (n - k - 1) * m * (
                            (2 * m + k - 1) * prev[k] - (k + 1) * prev[k + 1]
                        )
                    nums.append(num)
            for k, check in checks.items():
                if check is not None and check.numerator * den != nums[k] * check.denominator:
                    raise RuntimeError(
                        f"recursion sweep disagrees with closed form at ({n},{m},{k})"
                    )
            common = gcd(den, *nums)
            nums, den = [num // common for num in nums], den // common
        top.update(((n_max, m_top, k), Fraction(num, den)) for k, num in enumerate(nums))
    return _RecursionTable(n_max, top)


def coeff_by_recursion(n, m, k):
    """The cell of `recursion_table(n)`; the m = 1 row needs no table."""
    _validate(n, m, k)
    if m == 1:
        return _degree_two_count(n, k)
    return recursion_table(n)[(n, m, k)]


ROUTES = {
    "matrix": coeff_by_matrix_sum,
    "partition": coeff_by_partition_sum,
    "young": coeff_by_young_sum,
    "generating": coeff_by_generating,
    "recursion": coeff_by_recursion,
    "oracle": coeff_by_expansion,
    "extremal": closed_form,
}


def coefficient_record(n, m, k, route):
    """One computed coefficient tagged with its route."""
    try:
        func = ROUTES[route]
    except KeyError:
        raise ValueError(f"unknown route {route!r}") from None
    value = func(n, m, k)
    if value is None:
        raise ValueError(f"route {route!r} does not apply at ({n},{m},{k})")
    return CoefficientRecord(n, m, k, value, route)


def route_records(n, m, k):
    """Records for every route that joins the sweep at one grid cell.

    A route joins as `cost.joins_sweep` says; the closed form joins
    whenever it applies.
    """
    _validate(n, m, k)
    records = []
    for route, func in ROUTES.items():
        if cost.joins_sweep(route, n):
            value = func(n, m, k)
            if value is not None:
                records.append(CoefficientRecord(n, m, k, value, route))
    return records
