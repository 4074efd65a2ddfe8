"""Tests of the benchmark's own references and of its failure accounting.

    python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import reference

SRC = Path(__file__).resolve().parent.parent / "src"


def test_first_scaled_bernoulli_numbers():
    assert reference.scaled_bernoulli_table(3)[1:] == [
        Fraction(1, 6), Fraction(1, 90), Fraction(1, 945)
    ]


def test_tanh_matches_bernoulli_form():
    tanh = reference.tanh_coefficients(15)
    assert tanh[:8] == [0, 1, 0, Fraction(-1, 3), 0, Fraction(2, 15), 0, Fraction(-17, 315)]
    b = reference.scaled_bernoulli_table(8)
    for m in range(1, 9):
        assert tanh[2 * m - 1] == (-1) ** (m - 1) * 2 * (4 ** m - 1) * b[m]


def test_closed_forms_agree_where_they_overlap():
    b = reference.scaled_bernoulli_table(31)
    covered = 0
    for n in range(1, 31):
        for m in range(1, n + 1):
            for k in range(n + 1):
                covered += reference.closed_form(n, m, k, b) is not None
    assert covered > 0
    assert reference.closed_form(2, 2, 0, b) == 4
    assert all(reference.closed_form(n, 1, 0, b) == 1 for n in range(1, 31))
    assert reference.closed_form(6, 2, 2, b) is None


def test_log_series_matches_closed_form_rows():
    # For n <= 5 the closed forms cover every k of every row.
    b = reference.scaled_bernoulli_table(6)
    for t in (Fraction(1), Fraction(-1, 2), Fraction(3, 7)):
        logs = reference.log_series_at(t, 5)
        for n in range(1, 6):
            for m in range(1, n + 1):
                row = [reference.closed_form(n, m, k, b) for k in range(n + 1)]
                assert reference.weighted_row(row, n, m, t) == reference.generating_value(
                    n, m, t, logs
                )


def test_face_moment_matches_face_enumeration():
    for n in range(1, 4):
        for beta in product(range(4), repeat=n):
            for k in range(n + 1):
                assert reference.face_moment(beta, k) == reference.face_moment_by_faces(beta, k)


def test_mvp_residual_of_a_square_on_the_edges():
    assert reference.mvp_residual({(2, 0): 1}, 2, 1) == {(0, 0, 2): Fraction(2, 3)}
    assert reference.mvp_residual({(1, 0): 5, (0, 0): 1}, 2, 1) == {}


def test_module_dimension():
    assert [reference.module_dimension(n) for n in (1, 2, 3, 4)] == [2, 8, 48, 384]


@pytest.fixture
def program():
    sys.path.insert(0, str(SRC))
    yield
    sys.path.remove(str(SRC))


def test_perturbed_value_is_a_failed_op(program):
    import worker
    import workloads

    class Perturbed(workloads.RouteWide):
        SIZES = {"partition": (5,), "young": (5,), "generating": (5,)}
        IDENTITY_ORDER = 4

        def run(self, op):
            result = super().run(op)
            if op == ("generating", 5, 3):
                result[2] += Fraction(1, 10**9)
            return result

    workload = Perturbed()
    ops = workload.build(seed=7)
    report = worker._run_round(workload, ops, "")
    assert report["attempted"] == len(ops) == 16
    assert (report["errors"], report["wrong"]) == (0, 1)
    assert worker._run_round(workloads.RouteWide(), ops, "")["wrong"] == 0


def test_wrong_middle_cell_is_a_failed_op(program):
    # (8, 3, 4) has no closed form and one route: only the row evaluation sees it.
    import worker
    import workloads

    class Perturbed(workloads.RouteWide):
        SIZES = {"recursion": (8,)}
        IDENTITY_ORDER = 4

        def run(self, op):
            result = super().run(op)
            if op == ("recursion", 8, 3):
                result[4] += Fraction(1, 10**9)
            return result

    workload = Perturbed()
    report = worker._run_round(workload, workload.build(seed=7), "")
    assert (report["attempted"], report["errors"], report["wrong"]) == (9, 0, 1)
