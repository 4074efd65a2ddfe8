"""Command-line front end: coefficient tables, polynomial dumps, verifiers.

Exit codes: 0 success (all verifications passed), 1 a verification
failed, 2 usage or domain error.  Machine formats render rationals as
"p/q" strings, never as decimals; the text format may append a clearly
marked decimal approximation.  Identical invocations produce identical
bytes.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from math import factorial

from . import coefficients as coeff
from . import generating as gen
from . import harmonics, invariants
from .bernoulli import bernoulli, scaled_bernoulli
from .multipoly import MultiPoly

__all__ = ["emit_table", "main", "TABLE_MAX_N"]

TABLE_MAX_N = 6
FORMATS = ("text", "csv", "json")


class _Output:
    def __init__(self, path):
        self.path = path
        self.buffer = io.StringIO()

    def write(self, text):
        self.buffer.write(text)

    def line(self, text=""):
        self.buffer.write(text + "\n")

    def flush(self):
        data = self.buffer.getvalue()
        if self.path:
            with open(self.path, "w") as handle:
                handle.write(data)
        else:
            sys.stdout.write(data)


def _fraction_text(value):
    if value.denominator == 1:
        return str(value)
    return f"{value} (~= {float(value):.6g})"


def _summary(out, command, checks, failed):
    out.line(
        "SUMMARY "
        + json.dumps(
            {"command": command, "checks": checks, "failed": failed, "ok": failed == 0}
        )
    )


def _csv_text(header, rows):
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return sink.getvalue()


def cmd_coeff(args, out):
    n, m, k = args.n, args.m, args.k
    coeff_records = (
        coeff.route_records(n, m, k)
        if args.route == "all"
        else [coeff.coefficient_record(n, m, k, args.route)]
    )
    values = {r.value for r in coeff_records}
    agree = len(values) == 1
    if args.fmt == "json":
        out.line(
            json.dumps(
                {
                    "n": n,
                    "m": m,
                    "k": k,
                    "records": [{"route": r.route, "value": str(r.value)} for r in coeff_records],
                    "agree": agree,
                },
                indent=2,
            )
        )
    elif args.fmt == "csv":
        out.write(
            _csv_text(
                ["route", "n", "m", "k", "value"],
                [[r.route, r.n, r.m, r.k, str(r.value)] for r in coeff_records],
            )
        )
    else:
        for r in coeff_records:
            out.line(f"{r.route:<12} {_fraction_text(r.value)}")
        if len(coeff_records) > 1:
            verdict = "agree" if agree else "DISAGREE"
            out.line(f"routes {verdict}")
    return 0 if agree else 1


def _grid(n_max):
    """Cells 1 <= m <= n <= n_max, 0 <= k <= n, for a bound 1 <= n_max <= TABLE_MAX_N."""
    if not 1 <= n_max <= TABLE_MAX_N:
        raise ValueError(f"grid bound must be between 1 and {TABLE_MAX_N}")
    return [
        (n, m, k)
        for n in range(1, n_max + 1)
        for m in range(1, n + 1)
        for k in range(n + 1)
    ]


def emit_table(n_max, fmt):
    """Deterministic coefficient table for 1 <= m <= n <= n_max, 0 <= k <= n.

    Each record carries the agreed value as "p/q" plus the list of routes
    that produced it; the routes are those of `coefficients.route_records`.
    """
    records = []
    for n, m, k in _grid(n_max):
        consensus = coeff.coeff_by_young_sum(n, m, k)
        agreeing = sorted(
            r.route for r in coeff.route_records(n, m, k) if r.value == consensus
        )
        records.append(
            {"n": n, "m": m, "k": k, "value": str(consensus), "routesAgreeing": agreeing}
        )
    if fmt == "json":
        return json.dumps({"nMax": n_max, "records": records}, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text(
            ["n", "m", "k", "value", "routesAgreeing"],
            [
                [r["n"], r["m"], r["k"], r["value"], " ".join(r["routesAgreeing"])]
                for r in records
            ],
        )
    lines = [f"{'n':>3} {'m':>3} {'k':>3}  {'value':<12} routes"]
    for r in records:
        lines.append(
            f"{r['n']:>3} {r['m']:>3} {r['k']:>3}  {r['value']:<12} "
            + ",".join(r["routesAgreeing"])
        )
    return "\n".join(lines) + "\n"


def cmd_table(args, out):
    out.write(emit_table(args.n, args.fmt))
    return 0


def cmd_gen(args, out):
    n = args.n if args.n else args.m
    if args.what == "Ghat":
        poly = gen.reversed_generating_poly(n, args.m)
    elif args.what == "F":
        poly = gen.bernstein_transform(n, args.m)
    else:
        poly = gen.lifted_generating_poly(n, args.m)
    if args.fmt == "json":
        out.line(
            json.dumps(
                {
                    "what": args.what,
                    "m": args.m,
                    "n": n,
                    "coefficients": poly.to_strings(),
                },
                indent=2,
            )
        )
    elif args.fmt == "csv":
        out.write(
            _csv_text(
                ["power", "coefficient"],
                [[i, s] for i, s in enumerate(poly.to_strings())],
            )
        )
    else:
        out.line(poly.pretty())
    return 0


def cmd_bernoulli(args, out):
    if args.count < 1:
        raise ValueError("need --count >= 1")
    rows = [
        [m, str(bernoulli(m)), str(scaled_bernoulli(m))]
        for m in range(1, args.count + 1)
    ]
    if args.fmt == "json":
        out.line(
            json.dumps(
                {"rows": [{"m": m, "B": b, "b": s} for m, b, s in rows]}, indent=2
            )
        )
    elif args.fmt == "csv":
        out.write(_csv_text(["m", "B", "b"], rows))
    else:
        out.line(f"{'m':>3} {'B_m':<16} {'b_m':<16}")
        for m, b, s in rows:
            out.line(f"{m:>3} {b:<16} {s:<16}")
    return 0


def cmd_invariant(args, out):
    what, n = args.what, args.n
    if what == "delta":
        poly = invariants.fundamental_alternating(n)
    elif what == "e":
        poly = invariants.elementary_symmetric_squares(n, args.m)
    elif what == "h":
        poly = invariants.flag_moment(n, args.k, args.m)
    elif what == "g":
        poly = invariants.flag_moment_even(n, args.k, args.m)
    else:
        poly = invariants.skeleton_invariant(n, args.k, args.m)
    if args.fmt == "json":
        out.line(
            json.dumps({"what": what, "variables": n, "terms": poly.to_obj()}, indent=2)
        )
    elif args.fmt == "csv":
        out.write(
            _csv_text(
                ["exponents", "coefficient"],
                [[" ".join(map(str, e)), c] for e, c in poly.to_obj()],
            )
        )
    else:
        out.line(poly.pretty())
    return 0


def cmd_verify_identities(args, out):
    report = gen.identity_report(args.order)
    failed = 0
    for check in report.checks:
        if check.ok:
            out.line(f"ok   {check.name}")
        else:
            failed += 1
            out.line(f"FAIL {check.name}: {check.detail}")
    _summary(out, "verify identities", len(report.checks), failed)
    return 0 if failed == 0 else 1


def _load_poly(path, n):
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("polynomial file must hold a JSON object")
    if data.get("variables") != n:
        raise ValueError("polynomial file variable count does not match --n")
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise ValueError('polynomial file needs a "terms" list')
    seen = set()
    for term in terms:
        if not (
            isinstance(term, list)
            and len(term) == 2
            and isinstance(term[0], list)
            and all(type(e) is int and e >= 0 for e in term[0])
            and isinstance(term[1], (str, int))
        ):
            raise ValueError(f"malformed polynomial term {json.dumps(term)}")
        try:
            Fraction(term[1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient in polynomial term {json.dumps(term)}") from None
        exps = tuple(term[0])
        if exps in seen:
            raise ValueError(f"repeated exponents {json.dumps(term[0])} in polynomial file")
        seen.add(exps)
    return MultiPoly.from_obj(n, terms)


def cmd_verify_mvp(args, out):
    if args.poly_file:
        f = _load_poly(args.poly_file, args.n)
        label = args.poly_file
    else:
        f = invariants.fundamental_alternating(args.n)
        label = "alternating polynomial"
    report = harmonics.mean_value_report(f, args.n, args.k)
    names = [f"x{i + 1}" for i in range(args.n)] + ["r"]
    if report.holds:
        out.line(f"ok   mean value property holds for {label} (n={args.n}, k={args.k})")
    else:
        out.line(
            f"FAIL mean value property fails for {label} (n={args.n}, k={args.k});"
            f" residual {report.residual.pretty(names)}"
        )
    _summary(out, "verify mvp", 1, 0 if report.holds else 1)
    return 0 if report.holds else 1


def cmd_verify_dimension(args, out):
    n = args.n
    dim = harmonics.harmonic_module_dimension(n, allow_large=args.allow_large)
    expected = 2 ** n * factorial(n)
    ok = dim == expected
    status = "ok  " if ok else "FAIL"
    out.line(f"{status} derivative module dimension {dim} (expected {expected})")
    _summary(out, "verify dimension", 1, 0 if ok else 1)
    return 0 if ok else 1


def cmd_verify_annihilation(args, out):
    n = args.n
    if n < 1:
        raise ValueError("need --n >= 1")
    failed = 0
    checks = 0
    for m in range(1, n + 1):
        for k in range(n + 1):
            checks += 1
            if harmonics.annihilates_alternating(n, m, k):
                out.line(f"ok   operator (m={m}, k={k}) annihilates")
            else:
                failed += 1
                out.line(f"FAIL operator (m={m}, k={k}) does not annihilate")
    _summary(out, "verify annihilation", checks, failed)
    return 0 if failed == 0 else 1


def cmd_verify_routes(args, out):
    cells = _grid(args.n_max)
    failed = 0
    for n, m, k in cells:
        records = coeff.route_records(n, m, k)
        if len({r.value for r in records}) == 1:
            out.line(f"ok   ({n},{m},{k}) = {records[0].value}")
        else:
            failed += 1
            detail = ", ".join(f"{r.route}={r.value}" for r in records)
            out.line(f"FAIL ({n},{m},{k}): {detail}")
    _summary(out, "verify routes", len(cells), failed)
    return 0 if failed == 0 else 1


def _add_out_arg(parser):
    parser.add_argument("--out", default="", help="write output to this file")


def _add_format_args(parser):
    parser.add_argument("--format", dest="fmt", choices=FORMATS, default="text")
    _add_out_arg(parser)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubeharm",
        description="Exact computations around cube-skeleton harmonics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="one leading coefficient, by route")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--route", default="all", choices=["all", *coeff.ROUTES])
    _add_format_args(p)
    p.set_defaults(handler=cmd_coeff)

    p = sub.add_parser("table", help="full coefficient grid with route agreement")
    p.add_argument("--n", type=int, required=True, help="largest n in the grid")
    _add_format_args(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("gen", help="generating polynomials")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--what", default="G", choices=["G", "Ghat", "F"])
    _add_format_args(p)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("bernoulli", help="Bernoulli numbers, positive convention")
    p.add_argument("--count", type=int, required=True)
    _add_format_args(p)
    p.set_defaults(handler=cmd_bernoulli)

    p = sub.add_parser("invariant", help="invariant polynomials, canonical form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0, help="degree (h/g/tau) or index (e)")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--what", default="tau", choices=["h", "g", "tau", "delta", "e"])
    _add_format_args(p)
    p.set_defaults(handler=cmd_invariant)

    p = sub.add_parser("verify", help="exact verification suites")
    vsub = p.add_subparsers(dest="subcommand", required=True)

    v = vsub.add_parser("identities", help="series identities with polynomial coefficients")
    v.add_argument("--order", type=int, default=16)
    _add_out_arg(v)
    v.set_defaults(handler=cmd_verify_identities)

    v = vsub.add_parser("mvp", help="mean value property as a polynomial identity")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    group = v.add_mutually_exclusive_group()
    group.add_argument("--delta", action="store_true", help="check the alternating polynomial (default)")
    group.add_argument("--f", dest="poly_file", default="", help="JSON polynomial file")
    _add_out_arg(v)
    v.set_defaults(handler=cmd_verify_mvp)

    v = vsub.add_parser("dimension", help="derivative module dimension")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--allow-large", action="store_true", help=f"permit n > {harmonics.DIMENSION_GUARD}")
    _add_out_arg(v)
    v.set_defaults(handler=cmd_verify_dimension)

    v = vsub.add_parser("annihilation", help="invariants annihilate the alternating polynomial")
    v.add_argument("--n", type=int, required=True)
    _add_out_arg(v)
    v.set_defaults(handler=cmd_verify_annihilation)

    v = vsub.add_parser("routes", help="cross-route coefficient agreement")
    v.add_argument("--n-max", type=int, default=4)
    _add_out_arg(v)
    v.set_defaults(handler=cmd_verify_routes)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = _Output(args.out)
    try:
        code = args.handler(args, out)
        out.flush()
    except (ValueError, OSError, invariants.TermBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
