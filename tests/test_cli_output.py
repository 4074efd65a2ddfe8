"""The CLI's output path: golden bytes, the --out file and the cached parser."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cubeharm import cost
from cubeharm.cli import build_parser, main
from cubeharm.coefficients import ROUTES

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(c["argv"]) for c in GOLDEN["cases"]]
)
def test_golden_bytes(capsys, tmp_path, case):
    """stdout, stderr and exit code match the recorded bytes; "{f}" stands
    for the path of the recorded polynomial file."""
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(GOLDEN["poly"]))
    argv = [str(poly) if a == "{f}" else a for a in case["argv"]]
    code, out, err = run(capsys, *argv)
    assert out.replace(str(poly), "{f}") == case["stdout"]
    assert err.replace(str(poly), "{f}") == case["stderr"]
    assert code == case["code"]


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "--n", "1", "--m", "2", "--k", "0", "--format", "csv"],
        ["bernoulli", "--count", "0"],
        ["verify", "annihilation", "--n", "0"],
        ["verify", "mvp", "--n", "3", "--k", "1", "--f", "missing.json"],
    ],
)
def test_failing_command_creates_no_out_file(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert not target.exists()


class TestParserReuse:
    """One process, one parser: no parse may see another's arguments."""

    def test_allow_large_does_not_stick(self, capsys):
        code, out, _ = run(capsys, "verify", "dimension", "--n", "4", "--allow-large")
        assert code == 0 and "dimension 384" in out
        code, out, err = run(capsys, "verify", "dimension", "--n", "4")
        assert code == 2
        assert out == "" and "--allow-large" in err

    def test_format_does_not_stick(self, capsys):
        cell = ["coeff", "--n", "3", "--m", "2", "--k", "1", "--route", "young"]
        code, out, _ = run(capsys, *cell, "--format", "json")
        assert code == 0 and json.loads(out)["records"][0]["value"] == "28/3"
        code, out, _ = run(capsys, *cell)
        assert code == 0
        assert out == "young        28/3 (~= 9.33333)\n"

    def test_out_does_not_stick(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        assert main(["gen", "--m", "1", "--out", str(target)]) == 0
        code, out, _ = run(capsys, "gen", "--m", "1")
        assert code == 0 and out == target.read_text() == "1/2*t + 1/6\n"


def _routes_by_line(capsys, n_max):
    code, out, _ = run(capsys, "verify", "routes", "--n-max", str(n_max))
    assert code == 0
    result = []
    for line in out.splitlines()[:-1]:
        assert line.startswith("ok   (")
        result.append((int(line[len("ok   (")]), line[line.index("[") + 1 : -1].split(",")))
    return result


def test_verify_routes_names_the_routes_of_each_cell(capsys):
    lines = _routes_by_line(capsys, 4)
    assert len(lines) == 40
    for n, routes in lines:
        assert {"matrix", "partition", "young", "generating", "recursion"} <= set(routes)
        assert ("oracle" in routes) == (n <= 3)


def test_verify_routes_runs_the_matrix_route_at_six(capsys):
    lines = _routes_by_line(capsys, 6)
    assert len(lines) == 112 and lines[-1][0] == 6
    for n, routes in lines:
        assert "matrix" in routes
        assert ("oracle" in routes) == (n <= 3)


# sha256 of the stdout of the n = 6 sweep, recorded while the matrix route
# still summed each fiber on its own
SWEEP_DIGESTS = {
    "table --n 6 --format csv": "89ba9829b317d3cc694e65918a600779cafb91997231cb3b759361350c5f5078",
    "verify routes --n-max 6": "3f4465406f7e3c412d308773c0794c804cefe0dc612a1b379839b27ef2fbf20e",
}


@pytest.mark.parametrize("argv", SWEEP_DIGESTS)
def test_sweep_at_six_keeps_its_bytes(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[argv]


def test_partition_route_with_many_parts(capsys):
    """Fast routes far beyond the sweep: many parts, or many compositions."""
    cases = [
        ("1200", "1", "2", "partition", "899/150 (~= 5.99333)"),
        ("1200", "1", "2", "young", "899/150 (~= 5.99333)"),
        ("24", "12", "6", "partition", "419481328278794344421392384/1771 (~= 2.36861e+23)"),
    ]
    for n, m, k, route, value in cases:
        argv = ["coeff", "--n", n, "--m", m, "--k", k, "--route", route]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == f"{route:<12} {value}\n"


# Invariants that end in about a second: tau at n = 10 averages only the
# distinct arrangements of each orbit, and h reads each term off one
# expansion in K = k + 1 variables.
ADMITTED = [
    "invariant --n 10 --m 4 --k 3",
    "invariant --n 6 --m 8 --k 3 --what h",
    "invariant --n 8 --m 10 --k 4 --what h",
]


@pytest.mark.parametrize("argv", ADMITTED)
def test_fiber_sum_invariants_run_without_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "") and out


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
@pytest.mark.parametrize(
    "argv", ["gen --m 1 --n 2500", "coeff --n 3000 --m 150 --k 3000 --route extremal"]
)
def test_results_past_the_int_string_limit(capsys, argv):
    """A result longer than Python's int-string limit prints in full, and
    the caller's limit is back in force afterwards."""
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        unlimited = run(capsys, *argv.split())
        sys.set_int_max_str_digits(640)
        assert run(capsys, *argv.split()) == unlimited
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    code, out, err = unlimited
    assert (code, err) == (0, "")
    assert re.search(r"\d{641}", out)


# Each runs for about 10 s or more, except the two invariants at n = 5,
# which run about 4 s but whose estimate is twice the limit.  Of the
# invariants, the two at n = 2 have few terms, but their expansion makes
# tens of millions of updates on integers of about 1,500 digits; the one
# at n = 7 has a large expansion in K = 7 variables, and the rest many
# terms.  The partition, Young and gen commands are within their step
# counts but their integers grow with n.
TOO_LARGE = [
    "verify mvp --n 10 --k 2",
    "verify annihilation --n 6",
    "invariant --n 7 --m 24 --k 7",
    "invariant --n 9 --m 16 --k 3 --what h",
    "invariant --n 2 --m 5000 --k 1 --what g",
    "invariant --n 2 --m 5400 --k 1 --what h",
    "invariant --n 4 --m 280 --k 2 --what g",
    "invariant --n 5 --m 49 --k 0 --what h",
    "invariant --n 5 --m 96 --k 0 --what g",
    "gen --m 200",
    "gen --m 1 --n 10000",
    "verify identities --order 100000",
    "coeff --n 90 --m 90 --k 89 --route matrix",
    "coeff --n 200 --m 150 --k 20 --route generating",
    "coeff --n 300 --m 200 --k 100 --route partition",
    "coeff --n 375000 --m 1 --k 5 --route partition",
    "coeff --n 200000 --m 1 --k 5 --route partition",
    "coeff --n 46000 --m 3 --k 5 --route partition",
    "coeff --n 10000 --m 1 --k 5 --route young",
    "coeff --n 7000 --m 2 --k 5 --route young",
]


@pytest.mark.parametrize("argv", TOO_LARGE)
def test_large_request_is_refused_at_once(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "cubeharm", *argv.split()],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    elapsed = time.perf_counter() - began
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
    assert "--allow-large" in done.stderr
    assert elapsed < 1


# Runs its arguments as a child and reports the child's exit code and
# resident peak.  A child forked by a large process starts its peak at the
# parent's size, so the test measures through this small process.
PEAK_OF_CHILD = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


@pytest.mark.large
def test_one_recursion_cell_holds_one_layer(capsys):
    """One cell of the largest recursion table the cost policy admits runs
    in a child whose resident peak stays small, since the table holds only
    its top layer (holding every row, it would peak near 235 MiB)."""
    argv = "coeff --n 164 --m 2 --k 82 --route recursion --allow-large".split()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", PEAK_OF_CHILD, sys.executable, "-m", "cubeharm", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, peak_kib = map(int, done.stderr.split())
    assert done.returncode == code == 0
    expected = run(capsys, *argv[:-2], "generating")[1].split(None, 1)[1]
    assert done.stdout == f"{'recursion':<12} {expected}"
    assert peak_kib < 64 * 1024  # ru_maxrss is in KiB on Linux


# The library call each refused command starts its work with; a coeff
# command starts with its route.
STARTS = {
    "verify mvp --n 10 --k 2": "cubeharm.invariants.fundamental_alternating",
    "verify annihilation --n 6": "cubeharm.harmonics.annihilates_alternating",
    "invariant --n 7 --m 24 --k 7": "cubeharm.invariants.skeleton_invariant",
    "invariant --n 9 --m 16 --k 3 --what h": "cubeharm.invariants.flag_moment",
    "invariant --n 2 --m 5000 --k 1 --what g": "cubeharm.invariants.flag_moment_even",
    "invariant --n 2 --m 5400 --k 1 --what h": "cubeharm.invariants.flag_moment",
    "invariant --n 4 --m 280 --k 2 --what g": "cubeharm.invariants.flag_moment_even",
    "invariant --n 5 --m 49 --k 0 --what h": "cubeharm.invariants.flag_moment",
    "invariant --n 5 --m 96 --k 0 --what g": "cubeharm.invariants.flag_moment_even",
    "gen --m 200": "cubeharm.generating.lifted_generating_poly",
    "gen --m 1 --n 10000": "cubeharm.generating.lifted_generating_poly",
    "verify identities --order 100000": "cubeharm.generating.identity_report",
}


class Started(Exception):
    pass


@pytest.mark.parametrize("argv", TOO_LARGE)
def test_allow_large_starts_the_work(monkeypatch, argv):
    def started(*args):
        raise Started

    words = argv.split()
    if words[0] == "coeff":
        monkeypatch.setitem(ROUTES, words[-1], started)
    else:
        monkeypatch.setattr(STARTS[argv], started)
    with pytest.raises(Started):
        main([*words, "--allow-large"])


def test_allow_large_estimates_nothing(capsys, monkeypatch):
    """With the flag no check can refuse, so no estimate is computed."""
    argv = ["invariant", "--n", "3", "--k", "1", "--m", "4", "--what", "g"]
    expected = run(capsys, *argv)

    def refuse(*args):
        raise AssertionError("estimate computed")

    monkeypatch.setattr("cubeharm.cost._flag_moment", refuse)
    assert expected[0] == 0
    assert run(capsys, *argv, "--allow-large") == expected


# One small command per kind of check in the cost table; "{f}" stands for
# a polynomial file, whose averaging is checked once it is read.
CHECKED = [
    ("grid", "table --n 2"),
    ("grid", "verify routes --n-max 2"),
    ("oracle", "coeff --n 2 --m 1 --k 1 --route oracle"),
    ("dimension", "verify dimension --n 2"),
    ("factorial", "coeff --n 3 --m 2 --k 3 --route extremal"),
    ("point DP", "coeff --n 3 --m 2 --k 1 --route matrix"),
    ("partition DP", "coeff --n 3 --m 2 --k 1 --route partition"),
    ("Young diagrams", "coeff --n 3 --m 2 --k 1 --route young"),
    ("lift", "gen --m 2 --n 4 --what Ghat"),
    ("generating family", "coeff --n 3 --m 2 --k 1 --route generating"),
    ("recursion table", "coeff --n 3 --m 2 --k 1 --route recursion"),
    ("Bernoulli numbers", "bernoulli --count 3"),
    ("series order", "verify identities --order 8"),
    ("averaging", "verify mvp --n 2 --k 1"),
    ("averaging", "verify mvp --n 2 --k 1 --f {f}"),
    ("exponent entries", "invariant --n 3 --k 1 --m 2"),
    ("exponent entries", "invariant --n 3 --k 1 --m 4 --what g"),
    ("exponent entries", "verify annihilation --n 2"),
]


def test_every_check_in_the_table_is_exercised():
    checks = {kind for kind in cost.LIMITS if not kind.endswith(" sweep")}
    assert {kind for kind, _ in CHECKED} == checks


@pytest.mark.parametrize("kind, argv", CHECKED, ids=[argv for _, argv in CHECKED])
def test_allow_large_lifts_a_lowered_limit(capsys, monkeypatch, tmp_path, kind, argv):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(GOLDEN["poly"]))
    argv = [str(poly) if a == "{f}" else a for a in argv.split()]
    expected = run(capsys, *argv)
    assert expected[2] == ""
    monkeypatch.setitem(cost.LIMITS, kind, (0, cost.LIMITS[kind][1]))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "--allow-large" in err
    assert run(capsys, *argv, "--allow-large") == expected


def _commands(parser, path=()):
    """(name path, parser) of every command below `parser`."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _commands(child, path + (name,))


COMMANDS = list(_commands(build_parser()))


@pytest.mark.parametrize("path, parser", COMMANDS, ids=[" ".join(p) for p, _ in COMMANDS])
def test_every_command_has_the_flag_and_a_cost(path, parser):
    """A new command cannot skip the policy: it needs --allow-large and an
    entry in the cost table, and its smallest invocation must name only
    checks from the table, each within its limit."""
    assert any("--allow-large" in a.option_strings for a in parser._actions)
    assert " ".join(path) in cost.COMMANDS
    required = [a.option_strings[0] for a in parser._actions if a.required]
    args = build_parser().parse_args([*path, *(x for opt in required for x in (opt, "1"))])
    assert args.costs is cost.COMMANDS[" ".join(path)]
    costs = args.costs(args)
    assert costs
    for kind, estimate in costs:
        assert kind in cost.LIMITS and not kind.endswith(" sweep")
        assert estimate <= cost.LIMITS[kind][0]


def test_every_route_has_a_cost():
    assert set(cost.ROUTE_COSTS) == set(ROUTES)
