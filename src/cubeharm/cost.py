"""One cost policy for every command.

The paper's objects grow factorially: Delta_n has n! terms, the
derivative module has dimension 2**n n!, and the invariant basis has p(m)
members.  So before it does any work, each command estimates what it is
about to compute, by closed-form arithmetic (its entry in COMMANDS), and
`check` refuses an estimate over its limit in LIMITS unless large work
is allowed (`--allow-large` on the command line, with which no
estimate is computed at all).  A limit admits a command that ends
within seconds on a 2-core machine, the slowest in about 5 s, and past
it the work grows fast.  The library checks nothing in advance, except
the derivative module through `allow_large`.
"""

from math import comb, exp, factorial, isqrt, lgamma, log, pi, sqrt

__all__ = [
    "TooLarge",
    "LIMITS",
    "check",
    "joins_sweep",
    "ROUTE_COSTS",
    "averaging",
    "COMMANDS",
]

# kind: (limit, what the estimate counts).  A "sweep" entry is no check:
# it is the largest n at which that route joins a multi-route sweep.
LIMITS = {
    "grid": (6, "coefficient grid bound n"),
    "matrix sweep": (6, "largest n at which the matrix route joins a sweep"),
    "oracle sweep": (3, "largest n at which the oracle joins a sweep"),
    "oracle": (5, "symbolic oracle variable count"),
    "dimension": (3, "derivative-module variable count"),
    "factorial": (100_000, "factorial size n + 2m"),
    "fiber DP": (3_000_000, "fiber DP step estimate"),
    "partition DP": (3_000_000, "partition DP step estimate"),
    "Young diagrams": (1_000_000, "Young diagram part estimate p(m) m"),
    "lift": (100_000_000, "lift product estimate"),
    "generating family": (2_000_000, "generating-family product estimate m^3"),
    "recursion table": (200_000, "recursion table cell count"),
    "Bernoulli numbers": (500, "Bernoulli number count"),
    "series order": (128, "series order"),
    "averaging": (20_000_000, "degree-weighted averaging term count"),
    "exponent entries": (10_000_000, "exponent entry estimate"),
}

HUGE = 10**50  # every estimate at least this big is shown as "over" it


class TooLarge(ValueError):
    """A cost estimate over its limit, without the opt-in."""


def check(kind, estimate, allow_large=False):
    """Refuse `estimate` over the limit of `kind` unless `allow_large`."""
    limit, what = LIMITS[kind]
    if estimate > limit and not allow_large:
        shown = estimate if estimate < HUGE else f"over {HUGE:.0e}"
        raise TooLarge(
            f"{what} is {shown}, over the limit {limit}; pass --allow-large to run it anyway"
        )


def joins_sweep(route, n):
    """Whether a route joins a multi-route sweep at n: up to its "sweep"
    bound in LIMITS, and at every n without one."""
    bound, _ = LIMITS.get(route + " sweep", (n, ""))
    return n <= bound


def _comb(a, b):
    """C(a, b) up to HUGE, 0 outside 0 <= b <= a; cheap at any size."""
    if not 0 <= b <= a:
        return 0
    b = min(b, a - b)
    return min(comb(a, b), HUGE) if b <= 100 else HUGE


def _factorial(n):
    """n! up to HUGE, 1 below n = 0."""
    return factorial(max(n, 0)) if n <= 41 else HUGE


def _partitions(m):
    """The Hardy-Ramanujan estimate of p(m), the Young diagrams of weight m
    (a float only here, in a cost estimate, never in a value)."""
    if m < 1:
        return int(m == 0)
    if m > 10_000:
        return HUGE
    return min(int(exp(pi * sqrt(2 * m / 3)) / (4 * sqrt(3) * m)) + 1, HUGE)


def _column_steps(total, rows, free, before, after):
    """State-by-split steps at one column of a staircase column DP.

    The state before the column is its vector of row sums over `rows`
    rows, and the column splits its sum over `free` rows.  The count runs
    over every such pair together with a composition of the row-sum total
    into `before` parts and one of what the column leaves into `after`
    parts, all adding up to `total`.  By Vandermonde's identity and
    C(P+a, a) C(P+b, b) = sum_i C(a, i) C(b, i) C(P-i+a+b, a+b) it is
    sum_i C(before-1, i) C(rows-1, i) C(total-i+d, d) with d = before +
    rows + free + after - 2, or C(total+d, d) with d = free + after - 1
    when there are no rows yet (and no row-sum total to split)."""
    if rows == 0:
        return _comb(total + free + after - 1, free + after - 1)
    d = before + rows + free + after - 2
    terms = min(before - 1, rows - 1, max(total, -1)) + 1
    return sum(
        _comb(before - 1, i) * _comb(rows - 1, i) * _comb(total - i + d, d) for i in range(terms)
    )


def _point_dp(n, m, k):
    """Work of `coefficients.coeff_by_matrix_sum`, in fiber-DP steps: at
    each of K = min(k+1, n) positions, L = n-K..n-1 in, C(min(L, m)+2, 2)
    states make up to three updates of 2m+1 entries, plus six of fixed
    cost.  Entries of about m log2(2n) + 2m log2(m) bits cost 1 + bits/1000
    each, and the weights' m+1 factorials of about n cost n**1.5 log2(n)
    / 200 entries each.  14 entries take about one fiber-DP step, and the
    slowest cells admitted run about 5 s on a 2-core machine."""
    if not 1 <= m <= n or not 0 <= k <= n:
        return 0  # the route refuses the cell itself
    rows = min(k + 1, n)

    def states_before(length):  # the states summed over L < length
        return _comb(min(length, m + 1) + 2, 3) + max(length - m - 1, 0) * _comb(m + 2, 2)

    updates = 3 * (states_before(n) - states_before(n - rows)) + _comb(min(n - rows, m) + 2, 2)
    bits = m * (n.bit_length() + 1) + 2 * m * m.bit_length()
    entries = updates * (2 * m + 7) * (1000 + bits) // 1000
    factorials = (m + 1) * n * isqrt(n) * n.bit_length() // 200
    return (entries + factorials) // 14


def _fiber_dp(n, total, k, step):
    """Work of `combinat.fiber_weight` over the C(total/step + n-1, n-1)
    fibers of column sums step * nu, nu a composition of total / step.

    Column j of a fiber sees the row sums over r = min(j-1, K) rows, K =
    min(k+1, n), and splits its sum over min(j, K) rows.  Over every fiber
    of column total `total` these steps are `_column_steps` with j-1
    parts before the column and n-j after, of which a staircase reaches
    about (j - r) / (j - 1), since each row fills only from its own column
    on; the fibers of step 2 are their share of those of step 1.  This is
    0.46 to 1 times the steps counted on every fiber family with 2 <= n
    <= 7 and at least 20,000 steps.  Their integers grow to about total
    log(total) bits, so a step counts 1 + total // 25 times.  Each fiber
    also closes with a factorial per row and a division per column, a
    product of about (total // 25)**2, and costs 3n whatever its column
    sums, three times its steps at k = 0 (one split per column).  Timed
    on a 2-core machine at the largest m the limit admits, the slowest
    of 15 invariants with n <= 10 ran 5 s."""
    if total < 0 or n < 1:
        return 0
    rows = min(k + 1, n)
    fibers = _comb(total // step + n - 1, n - 1)
    if fibers >= HUGE:
        return HUGE
    steps = sum(
        _column_steps(total, min(j - 1, rows), min(j, rows), j - 1, n - j)
        * (j - min(j - 1, rows))
        // max(j - 1, 1)
        for j in range(1, n + 1)
    )
    if steps >= HUGE:
        return HUGE
    steps = steps * fibers // comb(total + n - 1, n - 1)
    size = total // 25
    return steps * (1 + size) + fibers * (size * size + 3 * n)


def _partition_dp(n, m):
    """Steps of `coefficients.coeff_by_partition_sum`, n (m+1)**3, each 1 + bits / 80,000
    times for the n log2((2m)!) bits its scale reaches (a float only in this estimate)."""
    steps = n * (m + 1) ** 3
    if steps >= HUGE:
        return HUGE
    return int(steps * (1 + n * lgamma(2 * max(m, 0) + 1) / log(2) / 80_000))


def _lift(n, m):
    """m n**2 products, each 1 + n / 6000 times for the n-bit binomials of (t+1)**n."""
    return m * n * n * (6000 + n) // 6000


def _recursion_cells(n, m):
    """Cells of `recursion_table(n)`, which only rows with m >= 2 build."""
    return n * (n + 1) * (n + 2) // 3 if m >= 2 else 0


# route: (n, m, k) -> the (kind, estimate) pairs of one coefficient
ROUTE_COSTS = {
    "matrix": lambda n, m, k: [("fiber DP", _point_dp(n, m, k))],
    "partition": lambda n, m, k: [("partition DP", _partition_dp(n, m))],
    # p(m) diagrams of up to m parts, then up to m lifts by (t+1)**(n-l)
    "young": lambda n, m, k: [("Young diagrams", _partitions(m) * m), ("lift", _lift(n, m))],
    "generating": lambda n, m, k: [("generating family", m**3), ("factorial", n + 2 * m)],
    "recursion": lambda n, m, k: [("recursion table", _recursion_cells(n, m))],
    "oracle": lambda n, m, k: [("oracle", n)],
    "extremal": lambda n, m, k: [("factorial", n + 2 * m), ("Bernoulli numbers", m + 1)],
}


def _coeff(args):
    n, m, k = args.n, args.m, args.k
    routes = [r for r in ROUTE_COSTS if joins_sweep(r, n)] if args.route == "all" else [args.route]
    return [pair for route in routes for pair in ROUTE_COSTS[route](n, m, k)]


def _gen(args):
    """The family up to m, lifted to n (`_lift`); the Bernstein form is
    built from G_m at size m, with no lift."""
    m, n = args.m, args.m if args.n is None else args.n
    lift = [] if args.what == "F" else [("lift", _lift(n, m))]
    return [("generating family", m**3), *lift]


def _invariant(args):
    """Exponent entries the invariant polynomial writes, and for h, g and
    tau the fiber DP that gives their coefficients: one fiber per term,
    over the column total m (h) or 2 (m/2) (g and tau).  The entries come
    first and the fiber DP is estimated only once they pass, since its
    estimate takes a step per column."""
    what, n, m, k = args.what, args.n, args.m, args.k
    if what == "delta":
        # C(n, 2) products, each at most doubling the terms up to n!
        yield "exponent entries", _factorial(n) * n**3
    elif what == "e":
        yield "exponent entries", _comb(n, m) * n
    else:
        step = 1 if what == "h" else 2
        total = m if m % step == 0 else -step  # an odd degree is zero at once
        yield "exponent entries", _comb(total // step + n - 1, n - 1) * n
        yield "fiber DP", _fiber_dp(n, total, k, step)


def averaging(exponents):
    """Terms of `harmonics.skeleton_average`: prod(a_i // 2 + 1) per term,
    weighted by its degree + 1, since the binomials grow with it."""
    total = 0
    for exps in exponents:
        beta = 1
        for a in exps:
            beta *= a // 2 + 1
        total += beta * (sum(exps) + 1)
    return total


def _mvp(args):
    """`averaging` of Delta_n, whose exponents permute 1, 3, ..., 2n-1:
    n! terms of n! products each, at degree n**2.  A --f polynomial is
    checked once it is read."""
    n = args.n
    return [] if args.poly_file else [("averaging", _factorial(n) ** 2 * (n * n + 1))]


def _annihilation(args):
    """Exponent entries of applying every skeleton invariant of degree
    2m <= 2n to Delta_n: (n+1) C(m+n-1, n-1) operator terms per m, each
    one pass over the n! terms, and sum_m C(m+n-1, n-1) = C(2n, n) - 1."""
    n = args.n
    return [("exponent entries", (n + 1) * (_comb(2 * n, n) - 1) * _factorial(n) * n)]


# command: its parsed arguments -> the (kind, estimate) pairs `cli.main`
# checks before running it
COMMANDS = {
    "coeff": _coeff,
    "table": lambda args: [("grid", args.n)],
    "gen": _gen,
    "bernoulli": lambda args: [("Bernoulli numbers", args.count)],
    "invariant": _invariant,
    "verify identities": lambda args: [("series order", args.order)],
    "verify mvp": _mvp,
    "verify dimension": lambda args: [("dimension", args.n)],
    "verify annihilation": _annihilation,
    "verify routes": lambda args: [("grid", args.n_max)],
}
