import json

import pytest

from cubeharm.cli import emit_table, main
from cubeharm.coefficients import ROUTES
from cubeharm.cost import LIMITS
from cubeharm.multipoly import MultiPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffCommand:
    def test_all_routes_agree(self, capsys):
        code, out, _ = run(capsys, "coeff", "--n", "2", "--m", "1", "--k", "1")
        assert code == 0
        assert "routes agree" in out
        lines = [l for l in out.splitlines() if l and not l.startswith("routes")]
        assert all(line.split()[-1] == "2" for line in lines)

    def test_single_route_json(self, capsys):
        code, out, _ = run(
            capsys,
            "coeff", "--n", "3", "--m", "2", "--k", "1",
            "--route", "young", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["records"] == [{"route": "young", "value": "28/3"}]

    def test_usage_error_for_bad_range(self, capsys):
        code, _, err = run(capsys, "coeff", "--n", "1", "--m", "2", "--k", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("route", ROUTES)
    def test_route_estimate_leaves_a_bad_range_to_the_route(self, capsys, route):
        code, out, err = run(capsys, "coeff", "--n", "-1", "--m", "1", "--k", "0", "--route", route)
        assert (code, out) == (2, "")
        assert err == "error: need 1 <= m <= n, got m=1, n=-1\n"

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "--n", "2"])
        assert exc.value.code == 2

    def test_all_routes_beyond_matrix_bound(self, capsys):
        code, out, _ = run(capsys, "coeff", "--n", "7", "--m", "7", "--k", "4")
        assert code == 0
        routes = [line.split()[0] for line in out.splitlines()[:-1]]
        assert routes == ["partition", "young", "generating", "recursion", "extremal"]
        assert out.splitlines()[-1] == "routes agree"

    def test_extremal_not_applicable_json(self, capsys):
        code, out, err = run(
            capsys,
            "coeff", "--n", "6", "--m", "1", "--k", "2",
            "--route", "extremal", "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestTableCommand:
    def test_record_count_and_values(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["records"]) == 8
        by_cell = {(r["n"], r["m"], r["k"]): r for r in data["records"]}
        assert by_cell[(2, 1, 0)]["value"] == "1"
        assert set(by_cell[(2, 1, 0)]["routesAgreeing"]) >= {
            "matrix", "partition", "young", "generating", "recursion", "oracle",
        }

    def test_known_cell_at_three(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        by_cell = {(r["n"], r["m"], r["k"]): r["value"] for r in data["records"]}
        assert by_cell[(3, 2, 1)] == "28/3"

    def test_byte_determinism(self):
        assert emit_table(3, "json") == emit_table(3, "json")
        assert emit_table(3, "csv") == emit_table(3, "csv")

    def test_bound(self, capsys):
        code, _, err = run(capsys, "table", "--n", str(LIMITS["grid"][0] + 1))
        assert code == 2
        assert "error" in err

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,m,k,value,routesAgreeing"


class TestGenCommand:
    def test_base_polynomial_text(self, capsys):
        code, out, _ = run(capsys, "gen", "--m", "1")
        assert code == 0
        assert out.strip() == "1/2*t + 1/6"

    def test_bernstein_json(self, capsys):
        code, out, _ = run(capsys, "gen", "--m", "2", "--what", "F", "--format", "json")
        assert code == 0
        assert json.loads(out)["coefficients"] == ["1/6", "-4/15", "1/9"]
        # the Bernstein form depends only on m, so any n is admitted without the flag
        argv = ["gen", "--m", "2", "--n", "600", "--what", "F", "--format", "json"]
        code, wide, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(wide)["coefficients"] == json.loads(out)["coefficients"]

    def test_m120_needs_no_flag(self, capsys):
        code, out, err = run(capsys, "gen", "--m", "120")
        assert (code, err) == (0, "")
        assert out.count("*t") == 120

    def test_lift_requires_n_at_least_m(self, capsys):
        code, _, err = run(capsys, "gen", "--m", "2", "--n", "1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("what", ["G", "Ghat", "F"])
    def test_explicit_zero_n_is_not_the_default(self, capsys, what):
        code, out, err = run(capsys, "gen", "--m", "2", "--n", "0", "--what", what)
        assert (code, out) == (2, "")
        assert err == "error: need n >= m >= 1\n"


class TestBernoulliCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "--count", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "m,B,b",
            "1,1/6,1/6",
            "2,1/30,1/90",
            "3,1/42,1/945",
        ]

    def test_count_below_one(self, capsys):
        code, out, err = run(capsys, "bernoulli", "--count", "-3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestInvariantCommand:
    def test_tau_json(self, capsys):
        code, out, _ = run(
            capsys, "invariant", "--n", "2", "--k", "1", "--m", "2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [[[0, 2], "2"], [[2, 0], "2"]]

    def test_elementary(self, capsys):
        code, out, _ = run(
            capsys, "invariant", "--n", "3", "--m", "2", "--what", "e", "--format", "json"
        )
        assert code == 0
        assert len(json.loads(out)["terms"]) == 3

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "invariant", "--n", "2", "--m", "3", "--what", "e")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "0"], "need n >= 1"),
            (["--n", "3", "--m", "-4", "--what", "g"], "need m >= 0"),
            (["--n", "3", "--m", "-1", "--what", "h"], "need m >= 0"),
        ],
        ids=["tau-n-0", "g-negative-m", "h-negative-m"],
    )
    def test_each_input_check_names_its_bound(self, capsys, argv, message):
        assert run(capsys, "invariant", *argv) == (2, "", f"error: {message}\n")


class TestVerifyCommands:
    def test_identities(self, capsys):
        code, out, _ = run(capsys, "verify", "identities", "--order", "8")
        assert code == 0
        assert out.count("ok   ") == 4
        summary = json.loads(out.splitlines()[-1].removeprefix("SUMMARY "))
        assert summary == {
            "command": "verify identities", "checks": 4, "failed": 0, "ok": True,
        }

    def test_mvp_default_delta(self, capsys):
        code, out, _ = run(capsys, "verify", "mvp", "--n", "2", "--k", "1")
        assert code == 0
        assert "holds" in out

    def test_mvp_failing_polynomial(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        payload = {"variables": 2, "terms": MultiPoly.monomial((2, 0)).to_obj()}
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "mvp", "--n", "2", "--k", "1", "--f", str(path))
        assert code == 1
        assert "FAIL" in out
        assert "2/3*r^2" in out

    @pytest.mark.parametrize(
        "payload",
        [
            {"variables": 2},
            [[[2, 0], "1"]],
            {"variables": 2, "terms": [[2, "1"]]},
            {"variables": 2, "terms": [[[2, 0], "1/0"]]},
            {"variables": 2, "terms": [[[2, 0], "1"], [[2, 0], "1"]]},
        ],
        ids=["no-terms", "top-level-list", "bad-term", "zero-denominator", "duplicate-exponents"],
    )
    def test_mvp_malformed_polynomial_file(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", "mvp", "--n", "2", "--k", "1", "--f", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "term",
        [f"[[1, 0], {'9' * 5000}]", f"[[{'9' * 5000}, 0], 1]", f'[[1, 0], "{"9" * 5000}"]'],
        ids=["coefficient", "exponent", "coefficient-string"],
    )
    def test_mvp_bounds_the_digits_of_file_integers(self, capsys, tmp_path, term):
        """Results may have any number of digits, but an input file keeps
        Python's default bound of 4300."""
        path = tmp_path / "long.json"
        path.write_text(f'{{"variables": 2, "terms": [{term}]}}')
        code, out, err = run(capsys, "verify", "mvp", "--n", "2", "--k", "1", "--f", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "n, payload",
        [
            ("2", {"variables": 2, "terms": [[[1, 0], True]]}),
            ("1", {"variables": True, "terms": [[[1], "1"]]}),
        ],
        ids=["boolean-coefficient", "boolean-variables"],
    )
    def test_mvp_rejects_json_booleans(self, capsys, tmp_path, n, payload):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", "mvp", "--n", n, "--k", "1", "--f", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_verify_takes_no_format(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "mvp", "--n", "2", "--k", "1", "--format", "json"])
        assert exc.value.code == 2

    def test_dimension(self, capsys):
        code, out, _ = run(capsys, "verify", "dimension", "--n", "2")
        assert code == 0
        assert "dimension 8" in out

    def test_dimension_guard(self, capsys):
        code, _, err = run(capsys, "verify", "dimension", "--n", "4")
        assert code == 2
        assert "--allow-large" in err

    def test_annihilation(self, capsys):
        code, out, _ = run(capsys, "verify", "annihilation", "--n", "2")
        assert code == 0
        assert out.count("ok   ") == 6

    def test_annihilation_zero_checks(self, capsys):
        code, out, err = run(capsys, "verify", "annihilation", "--n", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_routes(self, capsys):
        code, out, _ = run(capsys, "verify", "routes", "--n-max", "2")
        assert code == 0
        summary = json.loads(out.splitlines()[-1].removeprefix("SUMMARY "))
        assert summary["checks"] == 8 and summary["ok"]

    def test_routes_zero_checks(self, capsys):
        code, out, err = run(capsys, "verify", "routes", "--n-max", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "table", "--n", "1", "--format", "csv", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == "n,m,k,value,routesAgreeing"

    def test_identical_invocations_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "table", "--n", "2", "--format", "json", "--out", str(a))
        run(capsys, "table", "--n", "2", "--format", "json", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
