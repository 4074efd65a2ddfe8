"""Command-line front end: coefficient tables, polynomial dumps, verifiers.

Every handler is a function of the parsed arguments that returns
`(text, exit_code)`: data commands render through `_render` (`--format`
picks JSON, CSV or text), `verify` commands through `_report` (ok/FAIL
lines and a `SUMMARY` line).  Then `main` alone writes the text to stdout
or `--out`, so a command that fails writes neither.

Exit codes: 0 success (all verifications passed), 1 a verification
failed, 2 usage or domain error, or a refusal: `main` first checks the
command's cost estimates (`cost.COMMANDS`), and one over its limit stops
it with one line naming the estimate, the limit and `--allow-large`,
which every command takes to run anyway, with no estimate at all.
Machine formats render rationals as "p/q" strings, never as decimals;
the text format may append a clearly marked decimal approximation.
Identical invocations produce identical bytes.
"""

import argparse
import csv
import functools
import io
import json
import sys
from contextlib import contextmanager, nullcontext
from decimal import Context
from fractions import Fraction
from math import factorial

from . import coefficients as coeff
from . import cost
from . import generating as gen
from . import harmonics, invariants
from .bernoulli import bernoulli, scaled_bernoulli
from .multipoly import MultiPoly

__all__ = ["emit_table", "main"]

FORMATS = ("text", "csv", "json")
INPUT_DIGITS = 4300  # digits an integer in an input file may have (Python's default bound)


def _fraction_text(value):
    if value.denominator == 1:
        return str(value)
    try:
        approx = float(value)
    except OverflowError:  # past the float range: a decimal quotient instead
        approx = Context(prec=6).divide(value.numerator, value.denominator).normalize()
    return f"{value} (~= {approx:.6g})"


def _render(fmt, doc, header, rows, text_lines):
    """The output of a data command: `doc` as indented JSON, `header` and
    `rows` as CSV, or `text_lines` as text."""
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return sink.getvalue()
    return "".join(line + "\n" for line in text_lines)


def _report(command, checks):
    """The output and exit code of a verify command from its `(ok, line)`
    checks: each line marked ok or FAIL, then the SUMMARY line."""
    lines = []
    failed = 0
    for ok, line in checks:
        lines.append(("ok   " if ok else "FAIL ") + line + "\n")
        failed += not ok
    summary = {"command": command, "checks": len(lines), "failed": failed, "ok": failed == 0}
    lines.append("SUMMARY " + json.dumps(summary) + "\n")
    return "".join(lines), 0 if failed == 0 else 1


def cmd_coeff(args):
    n, m, k = args.n, args.m, args.k
    coeff_records = (
        coeff.route_records(n, m, k)
        if args.route == "all"
        else [coeff.coefficient_record(n, m, k, args.route)]
    )
    agree = len({r.value for r in coeff_records}) == 1
    text_lines = [f"{r.route:<12} {_fraction_text(r.value)}" for r in coeff_records]
    if len(coeff_records) > 1:
        text_lines.append("routes agree" if agree else "routes DISAGREE")
    records = [{"route": r.route, "value": str(r.value)} for r in coeff_records]
    doc = {"n": n, "m": m, "k": k, "records": records, "agree": agree}
    rows = [[r.route, r.n, r.m, r.k, str(r.value)] for r in coeff_records]
    text = _render(args.fmt, doc, ["route", "n", "m", "k", "value"], rows, text_lines)
    return text, 0 if agree else 1


def _grid(n_max):
    """Cells 1 <= m <= n <= n_max, 0 <= k <= n, for a bound n_max >= 1."""
    if n_max < 1:
        raise ValueError("grid bound must be at least 1")
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
        cell = coeff.route_records(n, m, k)
        consensus = next(r.value for r in cell if r.route == "young")
        agreeing = sorted(r.route for r in cell if r.value == consensus)
        records.append(
            {"n": n, "m": m, "k": k, "value": str(consensus), "routesAgreeing": agreeing}
        )
    rows = [
        [r["n"], r["m"], r["k"], r["value"], " ".join(r["routesAgreeing"])]
        for r in records
    ]
    text_lines = [f"{'n':>3} {'m':>3} {'k':>3}  {'value':<12} routes"] + [
        f"{r['n']:>3} {r['m']:>3} {r['k']:>3}  {r['value']:<12} " + ",".join(r["routesAgreeing"])
        for r in records
    ]
    header = ["n", "m", "k", "value", "routesAgreeing"]
    return _render(fmt, {"nMax": n_max, "records": records}, header, rows, text_lines)


def cmd_table(args):
    return emit_table(args.n, args.fmt), 0


def cmd_gen(args):
    n = args.m if args.n is None else args.n
    poly = {
        "G": gen.lifted_generating_poly,
        "Ghat": gen.reversed_generating_poly,
        "F": gen.bernstein_transform,
    }[args.what](n, args.m)
    strings = poly.to_strings()
    doc = {"what": args.what, "m": args.m, "n": n, "coefficients": strings}
    header = ["power", "coefficient"]
    return _render(args.fmt, doc, header, enumerate(strings), [poly.pretty()]), 0


def cmd_bernoulli(args):
    if args.count < 1:
        raise ValueError("need --count >= 1")
    rows = [
        [m, str(bernoulli(m)), str(scaled_bernoulli(m))]
        for m in range(1, args.count + 1)
    ]
    doc = {"rows": [{"m": m, "B": b, "b": s} for m, b, s in rows]}
    text_lines = [f"{'m':>3} {'B_m':<16} {'b_m':<16}"] + [
        f"{m:>3} {b:<16} {s:<16}" for m, b, s in rows
    ]
    return _render(args.fmt, doc, ["m", "B", "b"], rows, text_lines), 0


def cmd_invariant(args):
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
    if args.fmt == "text":  # each format builds only the form it prints
        return _render(args.fmt, None, None, None, [poly.pretty()]), 0
    terms = poly.to_obj()
    doc = {"what": what, "variables": n, "terms": terms}
    rows = ([" ".join(map(str, e)), c] for e, c in terms)
    return _render(args.fmt, doc, ["exponents", "coefficient"], rows, None), 0


def cmd_verify_identities(args):
    return _report(
        "verify identities",
        (
            (check.ok, check.name if check.ok else f"{check.name}: {check.detail}")
            for check in gen.identity_report(args.order).checks
        ),
    )


@contextmanager
def _int_digits(limit):
    """Set Python's limit on int-string conversion (0: none) inside the
    block, then restore the caller's value; where Python has no such
    limit, do nothing."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _load_poly(path, n):
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("polynomial file must hold a JSON object")
    if type(data.get("variables")) is not int or data["variables"] != n:
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
            and type(term[1]) in (str, int)
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


def cmd_verify_mvp(args):
    if args.poly_file:
        with _int_digits(INPUT_DIGITS):
            f = _load_poly(args.poly_file, args.n)
        cost.check("averaging", cost.averaging(f.terms), args.allow_large)
        label = args.poly_file
    else:
        f = invariants.fundamental_alternating(args.n)
        label = "alternating polynomial"
    report = harmonics.mean_value_report(f, args.n, args.k)
    where = f"for {label} (n={args.n}, k={args.k})"
    if report.holds:
        line = f"mean value property holds {where}"
    else:
        names = [f"x{i + 1}" for i in range(args.n)] + ["r"]
        line = f"mean value property fails {where}; residual {report.residual.pretty(names)}"
    return _report("verify mvp", [(report.holds, line)])


def cmd_verify_dimension(args):
    dim = harmonics.harmonic_module_dimension(args.n, allow_large=args.allow_large)
    expected = 2 ** args.n * factorial(args.n)
    line = f"derivative module dimension {dim} (expected {expected})"
    return _report("verify dimension", [(dim == expected, line)])


def cmd_verify_annihilation(args):
    n = args.n
    if n < 1:
        raise ValueError("need --n >= 1")
    checks = []
    for m in range(1, n + 1):
        for k in range(n + 1):
            ok = harmonics.annihilates_alternating(n, m, k)
            verdict = "annihilates" if ok else "does not annihilate"
            checks.append((ok, f"operator (m={m}, k={k}) {verdict}"))
    return _report("verify annihilation", checks)


def cmd_verify_routes(args):
    checks = []
    for n, m, k in _grid(args.n_max):
        records = coeff.route_records(n, m, k)
        if len({r.value for r in records}) == 1:
            routes = ",".join(r.route for r in records)
            checks.append((True, f"({n},{m},{k}) = {records[0].value} [{routes}]"))
        else:
            detail = ", ".join(f"{r.route}={r.value}" for r in records)
            checks.append((False, f"({n},{m},{k}): {detail}"))
    return _report("verify routes", checks)


def _add_output_args(parser, handler, formats=True):
    """The options every command ends with, the handler it runs, and the
    costs `main` checks first: the command's entry in `cost.COMMANDS`."""
    if formats:
        parser.add_argument("--format", dest="fmt", choices=FORMATS, default="text")
    parser.add_argument("--out", default="", help="write output to this file")
    parser.add_argument("--allow-large", action="store_true", help="run past the cost limits")
    parser.set_defaults(handler=handler, costs=cost.COMMANDS[parser.prog.split(maxsplit=1)[1]])


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
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
    _add_output_args(p, cmd_coeff)

    p = sub.add_parser("table", help="full coefficient grid with route agreement")
    p.add_argument("--n", type=int, required=True, help="largest n in the grid")
    _add_output_args(p, cmd_table)

    p = sub.add_parser("gen", help="generating polynomials")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, help="lift to this n (default m)")
    p.add_argument("--what", default="G", choices=["G", "Ghat", "F"])
    _add_output_args(p, cmd_gen)

    p = sub.add_parser("bernoulli", help="Bernoulli numbers, positive convention")
    p.add_argument("--count", type=int, required=True)
    _add_output_args(p, cmd_bernoulli)

    p = sub.add_parser("invariant", help="invariant polynomials, canonical form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0, help="degree (h/g/tau) or index (e)")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--what", default="tau", choices=["h", "g", "tau", "delta", "e"])
    _add_output_args(p, cmd_invariant)

    p = sub.add_parser("verify", help="exact verification suites")
    vsub = p.add_subparsers(dest="subcommand", required=True)

    v = vsub.add_parser("identities", help="series identities with polynomial coefficients")
    v.add_argument("--order", type=int, default=16)
    _add_output_args(v, cmd_verify_identities, formats=False)

    v = vsub.add_parser("mvp", help="mean value property as a polynomial identity")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    group = v.add_mutually_exclusive_group()
    group.add_argument("--delta", action="store_true", help="check the alternating polynomial (default)")
    group.add_argument("--f", dest="poly_file", default="", help="JSON polynomial file")
    _add_output_args(v, cmd_verify_mvp, formats=False)

    v = vsub.add_parser("dimension", help="derivative module dimension")
    v.add_argument("--n", type=int, required=True)
    _add_output_args(v, cmd_verify_dimension, formats=False)

    v = vsub.add_parser("annihilation", help="invariants annihilate the alternating polynomial")
    v.add_argument("--n", type=int, required=True)
    _add_output_args(v, cmd_verify_annihilation, formats=False)

    v = vsub.add_parser("routes", help="cross-route coefficient agreement")
    v.add_argument("--n-max", type=int, default=4)
    _add_output_args(v, cmd_verify_routes, formats=False)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if not args.allow_large:  # with the flag no check can refuse, so none is estimated
            for kind, estimate in args.costs(args):
                cost.check(kind, estimate)
        with _int_digits(0):  # an exact result may have any number of digits
            text, code = args.handler(args)
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as sink:
            sink.write(text)
    except (ValueError, OSError, invariants.TermBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
