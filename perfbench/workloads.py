"""The benchmark's workloads: their inputs, their ops and the checks on results.

A workload builds its ops from the seed; an op is one user request (one
CLI command, or the one library call behind it).  `run` performs an op
and returns its result, `check` tests one result against the references,
and `cross_check` tests what only a set of results shows, such as routes
agreeing on a cell.  cubeharm is imported inside `build`, so that the
worker can time the import as part of set-up.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import reference

ROUTE_NAMES = ("matrix", "partition", "young", "generating", "recursion")


def _module(name):
    # Looked up at call time: the traced run replaces module attributes.
    return sys.modules["cubeharm." + name]


def _has_extreme_form(n, m, k):
    """The cells where the program's own closed forms apply."""
    return k in (0, 1, n - 1, n) or (k == n - 2 and m >= 2) or (k == n - 3 and n >= 3 and m >= 2)


def _coefficient_ok(n, m, k, value, bern):
    expected = reference.closed_form(n, m, k, bern)
    return value > 0 and (expected is None or value == expected)


def _disagreeing(values):
    """Indices of ops whose value differs from the majority value of its cell.

    `values` yields (op index, cell, value).  A cell whose values have no
    strict majority marks all of its ops.
    """
    cells = {}
    for index, key, value in values:
        cells.setdefault(key, []).append((index, value))
    bad = set()
    for entries in cells.values():
        values = [v for _, v in entries]
        consensus = max(set(values), key=values.count)
        if 2 * values.count(consensus) <= len(values):
            consensus = None
        bad.update(i for i, v in entries if v != consensus)
    return bad


class RouteGrid:
    """Every route on every cell with n <= 5, one CLI command per op.

    The seed orders the ops inside each (n, m) block.  Blocks run in a
    fixed order, because the caches a cold op fills (a recursion table, a
    generating polynomial) are read by later blocks; inside a block the
    first op to need a cache pays the same whichever it is.
    """

    N_MAX = 5

    def build(self, seed):
        import cubeharm.cli  # noqa: F401  (timed as set-up)

        rng = random.Random(seed)
        ops = []
        for n in range(1, self.N_MAX + 1):
            for m in range(1, n + 1):
                block = []
                for k in range(n + 1):
                    routes = list(ROUTE_NAMES)
                    if n <= 3:
                        routes.append("oracle")
                    if _has_extreme_form(n, m, k):
                        routes.append("extremal")
                    block.extend((n, m, k, route) for route in routes)
                rng.shuffle(block)
                ops.extend(block)
        return ops

    def references(self, ops):
        return {"bern": reference.scaled_bernoulli_table(self.N_MAX + 1)}

    def run(self, op):
        n, m, k, route = op
        argv = ["coeff", "--n", str(n), "--m", str(m), "--k", str(k),
                "--route", route, "--format", "json"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = _module("cli").main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {sink.getvalue().strip()}")
        return json.loads(sink.getvalue())

    def check(self, op, result, refs):
        n, m, k, route = op
        records = result["records"]
        return (
            result["agree"] is True
            and (result["n"], result["m"], result["k"]) == (n, m, k)
            and [r["route"] for r in records] == [route]
            and _coefficient_ok(n, m, k, Fraction(records[0]["value"]), refs["bern"])
        )

    def cross_check(self, ops, results, refs):
        return _disagreeing(
            (i, op[:3], result["records"][0]["value"])
            for i, (op, result) in enumerate(zip(ops, results))
            if result is not None
        )


class RouteWide:
    """The four fast routes far beyond the matrix route's reach.

    An op is one generating-polynomial row: every k for one (route, n, m).
    Each route runs at its largest size and at one shared with a
    neighbouring route, so that neighbours cross-check on whole rows.
    Every row, shared or not, is also evaluated as its generating
    polynomial at the CHECK_POINTS and compared with the reference's log
    series there, so a single wrong cell anywhere in a row fails it.  The
    generating rows at n = 20, 24 and 28 fill the middle of the cost
    range, so that op_p50_ms and op_p90_ms fall among many rows of similar
    cost rather than between the cached recursion rows and the rest.  The
    seed orders the rows inside each (route, n) block, except the
    generating rows: their m ascends, so that each row fills
    generating_poly(m) for the next, whatever the seed.
    """

    SIZES = {
        "partition": (8,),
        "young": (8, 16),
        "generating": (16, 20, 24, 28, 30),
        "recursion": (30, 60),
    }
    IDENTITY_ORDER = 48
    CHECK_POINTS = (Fraction(1), Fraction(-1, 2))

    def build(self, seed):
        import cubeharm.coefficients  # noqa: F401  (timed as set-up)
        import cubeharm.generating  # noqa: F401

        rng = random.Random(seed)
        ops = []
        for route, sizes in self.SIZES.items():
            for n in sizes:
                block = [(route, n, m) for m in range(1, n + 1)]
                if route != "generating":
                    rng.shuffle(block)
                ops.extend(block)
        ops.append(("identities", self.IDENTITY_ORDER, 0))
        return ops

    def references(self, ops):
        n_max = max(n for route, n, _ in ops if route != "identities")
        order = max(n for route, n, _ in ops if route == "identities")
        return {
            "bern": reference.scaled_bernoulli_table(n_max + 1),
            "tanh": reference.tanh_coefficients(order),
            "logs": {t: reference.log_series_at(t, n_max) for t in self.CHECK_POINTS},
        }

    def run(self, op):
        route, n, m = op
        if route == "identities":
            generating = _module("generating")
            report = generating.identity_report(n)
            reflected = [
                generating.reversed_generating_poly(j, j)[0] for j in range(1, n // 2 + 1)
            ]
            return report, reflected
        record = _module("coefficients").coefficient_record
        return [record(n, m, k, route).value for k in range(n + 1)]

    def check(self, op, result, refs):
        route, n, m = op
        if route == "identities":
            report, reflected = result
            tanh = refs["tanh"]
            return report.all_ok and len(report.checks) == 4 and all(
                (-1) ** (j - 1) * value == tanh[2 * j - 1] / 2
                for j, value in enumerate(reflected, start=1)
            )
        return (
            len(result) == n + 1
            and all(
                _coefficient_ok(n, m, k, value, refs["bern"]) for k, value in enumerate(result)
            )
            and all(
                reference.weighted_row(result, n, m, t)
                == reference.generating_value(n, m, t, logs)
                for t, logs in refs["logs"].items()
            )
        )

    def cross_check(self, ops, results, refs):
        return _disagreeing(
            (i, (n, m, k), value)
            for i, ((route, n, m), row) in enumerate(zip(ops, results))
            if row is not None and route != "identities"
            for k, value in enumerate(row)
        )


class ModuleN4:
    """The n = 4 derivative module and the mean value property.

    The i-th random polynomial of each (n, k) has the first 1 + i % 5 of
    the SHAPES as its terms, so that costs spread evenly instead of
    bunching by (n, k), and the op_p50_ms and op_p90_ms fall among
    neighbours of similar cost.
    Only the coefficients of the random polynomials come from the seed.
    Their monomials are drawn once, from LAYOUT_SEED: averaging walks the
    axes in order, so where the nonzero exponents sit changes the work,
    and a seed that moved them would move the timings.  The (2, 0, ...)
    term makes every polynomial non-harmonic: its r**2 part has nothing
    to cancel against.  The ops run in a fixed order; nothing is cached.
    """

    SHAPES = ((2,), (1, 1), (3, 1), (2, 1, 1), (2, 2))
    RANDOM_PER_CELL = 10  # polynomials per (n, k), n = 3..5
    LAYOUT_SEED = 20111024

    def build(self, seed):
        from cubeharm.invariants import fundamental_alternating
        from cubeharm.multipoly import MultiPoly

        layout = random.Random(self.LAYOUT_SEED)
        rng = random.Random(seed)
        ops = [("dimension", 4)]
        delta = fundamental_alternating(4)
        ops.extend(("mvp-delta", delta, 4, k) for k in range(5))
        ops.extend(("annihilation", 4, m, k) for m in range(1, 5) for k in range(5))
        ops.extend(("oracle", 4, m, k) for m in range(1, 5) for k in range(5))
        ops.append(("basis-report", 3))
        for n in (3, 4, 5):
            for k in range(n + 1):
                for i in range(self.RANDOM_PER_CELL):
                    terms = {}
                    for shape in self.SHAPES[: 1 + i % len(self.SHAPES)]:
                        exps = list(shape) + [0] * (n - len(shape))
                        layout.shuffle(exps)
                        terms[tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 9)
                    ops.append(("mvp-random", MultiPoly(n, terms), n, k))
        return ops

    def references(self, ops):
        refs = {"bern": reference.scaled_bernoulli_table(5)}
        for op in ops:
            if op[0] == "mvp-random":
                _, f, n, k = op
                refs[id(f), k] = reference.mvp_residual(f.terms, n, k)
        return refs

    def run(self, op):
        kind = op[0]
        if kind == "dimension":
            return _module("harmonics").harmonic_module_dimension(op[1], allow_large=True)
        if kind in ("mvp-delta", "mvp-random"):
            _, f, n, k = op
            return _module("harmonics").mean_value_report(f, n, k)
        if kind == "annihilation":
            return _module("harmonics").annihilates_alternating(*op[1:])
        if kind == "oracle":
            return _module("coefficients").coeff_by_expansion(*op[1:])
        return _module("harmonics").harmonic_basis_report(op[1])

    def check(self, op, result, refs):
        kind = op[0]
        if kind == "dimension":
            return result == reference.module_dimension(op[1])
        if kind == "mvp-delta":
            return result.holds and result.residual.is_zero()
        if kind == "mvp-random":
            _, f, n, k = op
            return not result.holds and result.residual.terms == refs[id(f), k]
        if kind == "annihilation":
            return result is True
        if kind == "oracle":
            return _coefficient_ok(*op[1:], result, refs["bern"])
        expected = reference.module_dimension(op[1])
        return (
            result.all_ok
            and result.dimension == expected
            and result.expected_dimension == expected
        )

    def cross_check(self, ops, results, refs):
        return set()


WORKLOADS = {
    "route-grid": RouteGrid(),
    "route-wide": RouteWide(),
    "module-n4": ModuleN4(),
}
