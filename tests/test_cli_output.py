"""The CLI's output path: golden bytes, the --out file and the cached parser."""

import json
from pathlib import Path

import pytest

from cubeharm.cli import main

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
        assert out == "" and "explicitly" in err

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


@pytest.mark.large
def test_verify_routes_runs_the_matrix_route_at_six(capsys):
    lines = _routes_by_line(capsys, 6)
    assert len(lines) == 112 and lines[-1][0] == 6
    for n, routes in lines:
        assert "matrix" in routes
        assert ("oracle" in routes) == (n <= 3)


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
