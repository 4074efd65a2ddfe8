"""One cost policy for every command.

The paper's objects grow factorially: Delta_n has n! terms, the
derivative module has dimension 2**n n!, and the invariant basis has p(m)
members.  So before it does any work, each command estimates what it is
about to compute, by closed-form arithmetic (its entry in COMMANDS), and
`check` refuses an estimate over its limit in LIMITS unless large work
is allowed (`--allow-large` on the command line).  A limit admits a
command that ends within seconds on a 2-core machine; the slowest
admitted, at about 7 s, is the matrix route's cell (6, 6, 6), which the
n <= 6 sweep needs.  Past a limit the work grows fast.  The library
checks nothing in advance, except the derivative module through
`allow_large`.
"""

from math import comb, exp, factorial, pi, sqrt

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
    "partition DP": (3_000_000, "partition DP step estimate n (m+1)^3"),
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


def _fiber_dp(n, total, k, step):
    """Work of `combinat.fiber_weight` over the C(total/step + n-1, n-1)
    fibers of column sums step * nu, nu a composition of total / step.
    A fiber takes C(total+K, K) row sums on K + 1 = min(k+1, n) rows over
    n - K columns, in integers of about total log(total) bits: a step
    counts 1 + total // 25 times, and the closing factorial products and
    divisions of a fiber (total // 25)**2 times.  Each fiber also costs
    3n steps whatever its column sums: it builds each column's splits and
    multinomials, and closes with a factorial per row and a division per
    column, which at k = 0 (one split per column) is three times its
    state steps.  The state steps were fitted to those counted on every
    cell with n <= 7 (within a factor of 2.4), but undercount large
    column sums at K >= 2 (5.4 times at n = 4, K = 2, total 38), which the
    size factor covers.  Timed on a 2-core machine, the slowest admitted
    invariant with n <= 5 at the largest m the limit admits ran 6 s."""
    rows = max(0, min(k, n - 1))
    size = max(total, 0) // 25
    steps = (n - rows) * _comb(total + rows, rows)
    fiber = steps * (1 + size) + size * size + 3 * n
    return _comb(total // step + n - 1, n - 1) * fiber


def _recursion_cells(n, m):
    """Cells of `recursion_table(n)`, which only rows with m >= 2 build."""
    return n * (n + 1) * (n + 2) // 3 if m >= 2 else 0


# route: (n, m, k) -> the (kind, estimate) pairs of one coefficient
ROUTE_COSTS = {
    "matrix": lambda n, m, k: [("fiber DP", _fiber_dp(n, 2 * m, k, 2))],
    "partition": lambda n, m, k: [("partition DP", n * (m + 1) ** 3)],
    # p(m) diagrams of up to m parts, then up to m lifts by (t+1)**(n-l)
    "young": lambda n, m, k: [("Young diagrams", _partitions(m) * m), ("lift", m * n * n)],
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
    """The family up to m, lifted to n in n**2 m products; the Bernstein
    form is built from G_m at size m, with no lift."""
    m, n = args.m, args.m if args.n is None else args.n
    lift = [] if args.what == "F" else [("lift", n * n * m)]
    return [("generating family", m**3), *lift]


def _invariant(args):
    """Exponent entries the invariant polynomial writes, and for h, g and
    tau the fiber DP that gives their coefficients: one fiber per term,
    over the column total m (h) or 2 (m/2) (g and tau)."""
    what, n, m, k = args.what, args.n, args.m, args.k
    if what == "delta":
        # C(n, 2) products, each at most doubling the terms up to n!
        return [("exponent entries", _factorial(n) * n**3)]
    if what == "e":
        return [("exponent entries", _comb(n, m) * n)]
    step = 1 if what == "h" else 2
    total = m if m % step == 0 else -step  # an odd degree is zero at once
    terms = _comb(total // step + n - 1, n - 1)
    return [("fiber DP", _fiber_dp(n, total, k, step)), ("exponent entries", terms * n)]


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
