"""One small traced benchmark round per workload.

The benchmark's tracer (perfbench/tracing.py) wraps the public functions
named in each module's `__all__`, patches the multiplication and
elimination methods and `invariants._check_budget`, and reads the
`lru_cache`d tables.  A traced round fails if any of those names is gone,
so these rounds pin them.  The tracer cannot be installed twice in one
process, so every round runs in its own interpreter, writing no bytecode
and its trace under the test's temporary directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

ROUND = """
import json, sys
import worker, workloads

class Grid(workloads.RouteGrid):
    N_MAX = 2

class Wide(workloads.RouteWide):
    SIZES = {route: (4,) for route in workloads.RouteWide.SIZES}
    IDENTITY_ORDER = 8

class Module(workloads.ModuleN4):
    def build(self, seed):
        # the first op of each kind, with the module dimension at n = 3
        ops, kinds = [("dimension", 3)], {"dimension"}
        for op in super().build(seed):
            if op[0] not in kinds:
                kinds.add(op[0])
                ops.append(op)
        return ops

workload = {"route-grid": Grid, "route-wide": Wide, "module-n4": Module}[sys.argv[1]]()
report = worker._run_round(workload, workload.build(seed=1), sys.argv[2])
print(json.dumps({k: report[k] for k in ("attempted", "errors", "wrong", "messages", "per_layer")}))
"""

# Per-layer metrics each small round must move off zero.
LIVE = {
    "route-grid": (
        "cli.calls", "coefficients.matrix.s", "coefficients.oracle.s",
        "combinat.compositions.count", "unipoly.mul.calls",
    ),
    "route-wide": (
        "series.series_log.calls", "series.mul.calls", "unipoly.mul.coeff_products",
        "generating.identity_report.s", "generating.generating_poly.hit_ratio",
        "coefficients.recursion_table.hit_ratio", "coefficients.young_poly.hit_ratio",
    ),
    "module-n4": (
        "multipoly.mul.term_products", "multipoly.partial.calls", "linalg.rowbasis_add.calls",
        "linalg.solve.cells", "invariants.peak_terms", "harmonics.skeleton_average.calls",
        "harmonics.basis.s",
    ),
}


@pytest.mark.parametrize("workload", sorted(LIVE))
def test_traced_round(workload, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
        PYTHONDONTWRITEBYTECODE="1",
    )
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-c", ROUND, workload, str(trace)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["attempted"] > 0
    assert (report["errors"], report["wrong"]) == (0, 0), report["messages"]
    per_layer = report["per_layer"]
    assert [name for name in PER_LAYER if name not in per_layer] == []
    assert [name for name in LIVE[workload] if not per_layer[name] > 0] == []
    assert trace.stat().st_size > 0
