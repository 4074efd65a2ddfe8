"""Smoke runs of the command-line scripts under scripts/."""

import os
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
