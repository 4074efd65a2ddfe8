"""One cost policy for every command.

The paper's objects grow factorially: Delta_n has n! terms, the
derivative module has dimension 2**n n!, and the invariant basis has p(m)
members.  So before it does any work, each command estimates what it is
about to compute, by closed-form arithmetic (its entry in COMMANDS), and
`check` refuses an estimate over its limit in LIMITS unless large work
is allowed (`--allow-large` on the command line, with which no
estimate is computed at all).  An estimate counts the steps of the code
that does the work, weighted by the size of their integers, and a limit
admits a command that ends within seconds on a 2-core machine, the
slowest in about 5 s; past it the work grows fast.  The library checks
nothing in advance, except the derivative module through `allow_large`.
"""

from math import comb, exp, factorial, isqrt, lgamma, log, log2, pi, sqrt

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
    "point DP": (3_000_000, "point DP step estimate"),
    "partition DP": (3_000_000, "partition DP step estimate"),
    "Young diagrams": (1_000_000, "Young diagram part estimate p(m) m"),
    "lift": (100_000_000, "lift product estimate"),
    "generating family": (2_000_000, "generating-family product estimate m^3"),
    "recursion table": (1_500_000, "recursion table cell count"),
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


def _point_dp(n, m, k):
    """Work of `coefficients.coeff_by_matrix_sum`, in point-DP steps: at
    each of K = min(k+1, n) positions, L = n-K..n-1 in, C(min(L, m)+2, 2)
    states make up to three updates of 2m+1 entries, plus six of fixed
    cost.  Entries of about m log2(2n) + 2m log2(m) bits cost 1 + bits/1000
    each, and the weights' m+1 factorials of about n cost n**1.5 log2(n)
    / 200 entries each.  14 entries take about one step, and the
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
    """Cells of `recursion_table(n)`, which only rows with m >= 2 build:
    n (n+1) (n+2) / 3, each one integer update of its diagonal walks,
    whose integers grow with n; only the top layer is held.  The last
    admitted table, n = 164, runs about 3 s through the CLI on a 2-core
    machine."""
    return n * (n + 1) * (n + 2) // 3 if m >= 2 else 0


# route: (n, m, k) -> the (kind, estimate) pairs of one coefficient
ROUTE_COSTS = {
    "matrix": lambda n, m, k: [("point DP", _point_dp(n, m, k))],
    "partition": lambda n, m, k: [("partition DP", _partition_dp(n, m))],
    # p(m) diagrams of up to m parts, then one lift by (t+1)**(n-m)
    "young": lambda n, m, k: [("Young diagrams", _partitions(m) * m), ("lift", _lift(n, 1))],
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


def _flag_moment(n, m, k, step):
    """Work of `invariants._fiber_sums` in exponent entries: K(K+1)/2 for
    each of the C(m-1+K, K) entries of the expansion below degree m, K =
    min(k+1, n), four per row and degree, and n + 60 per term read off,
    built, sorted and printed, times (1 + bits/3000)**2 for its integer of
    about m log2(n) bits (a float only here).  Fitted to the CLI's wall
    time on 126 invariants with n <= 10 on a 2-core machine, an entry
    takes about 0.3 microseconds; the slowest admitted ran about 4 s."""
    if n < 1 or not 0 <= k <= n or m < 0 or m % step:
        return 0  # refused by the library, or an odd degree of g or tau: zero at once
    rows = min(k + 1, n)
    updates = _comb(m - 1 + rows, rows) * rows * (rows + 1) // 2 + 4 * rows * m
    terms = _comb(m // step + n - 1, n - 1)
    if max(updates, terms) >= HUGE:
        return HUGE
    bits = int(m * log2(n))
    return updates + (n + 60) * terms * (3000 + bits) ** 2 // 3000**2


def _invariant(args):
    """Exponent entries the invariant polynomial writes."""
    what, n, m, k = args.what, args.n, args.m, args.k
    if what == "delta":
        # C(n, 2) products, each at most doubling the terms up to n!
        return [("exponent entries", _factorial(n) * n**3)]
    if what == "e":
        return [("exponent entries", _comb(n, m) * n)]
    return [("exponent entries", _flag_moment(n, m, k, 1 if what == "h" else 2))]


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
