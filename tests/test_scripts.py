"""Smoke runs of the command-line scripts under scripts/."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_scripts_run(tmp_path):
    built = run_script("build_tables.py", "--n-max", "3", "--m-max", "4", "--out", str(tmp_path))
    assert built.returncode == 0, built.stderr
    for name in ("coefficients.csv", "coefficients.json", "generating.json", "bernoulli.csv"):
        assert (tmp_path / name).stat().st_size > 0

    verified = run_script("run_verifications.py", "--n-max", "3")
    assert verified.returncode == 0, verified.stdout + verified.stderr
    assert " 0 failed" in verified.stdout


def test_bench_layers_writes_its_schema(tmp_path):
    out = tmp_path / "BENCH_layers.json"
    args = ["--recursion", "4", "6", "--young-m", "5", "--order", "8", "--repeats", "2"]
    done = run_script("bench_layers.py", *args, "--out", str(out))
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert list(report) == ["python", "layers"]
    assert report["python"] == platform.python_version()
    assert [(layer["name"], layer["args"]) for layer in report["layers"]] == [
        ("recursion_table", {"n_max": 4}),
        ("recursion_table", {"n_max": 6}),
        ("young_base_polys", {"m_max": 5}),
        ("identity_report", {"order": 8}),
    ]
    for layer in report["layers"]:
        assert list(layer) == ["name", "args", "repeats", "best_s", "peak_kib"]
        assert layer["repeats"] == 2 and layer["best_s"] > 0 and layer["peak_kib"] > 0
