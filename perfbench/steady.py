"""Check that the benchmark is steady: two interleaved sets of the same code.

    python3 perfbench/steady.py

For each workload in BENCHMARK.json, runs run.py ten times for set A
(seeds 1..10) and ten times for set B (seeds 1001..1010), alternating
which set goes first.  Prints, per workload and end-to-end metric, each
set's median and quartiles, the spread (Q3 - Q1) / median, and how far
set B's median lies from set A's, then whether the two sets agree within
the bounds in BENCHMARK.json: every spread within its bound, the two
medians apart by no more than the bound in either direction, and the
same share of failed ops.  The spread of setup_s is printed but not held
to its bound, since set-up is a few tens of milliseconds that the
machine's speed moves most; its medians are held to it.  Raw results go
to perfbench/out/steady-<time>.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def compare(results, specs):
    """Per-metric statistics of both sets and whether they agree within bounds."""
    report = {"metrics": {}}
    shares = [
        {r["failed"] / r["attempted"] for r in results[side]} for side in ("A", "B")
    ]
    report["failed_share"] = sorted(shares[0] | shares[1])
    report["ok"] = len(shares[0] | shares[1]) == 1
    for spec in specs:
        name = spec["name"]
        a, b = (stats([r["metrics"][name]["value"] for r in results[s]]) for s in ("A", "B"))
        drift = (b["median"] - a["median"]) / a["median"]
        ok = abs(drift) <= spec["bound"]
        if name != "setup_s":
            ok = ok and a["spread"] <= spec["bound"] and b["spread"] <= spec["bound"]
        report["metrics"][name] = {"A": a, "B": b, "drift": drift, "ok": ok}
        report["ok"] = report["ok"] and ok
    return report


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    specs = bench["end_to_end"]

    raw = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                seed = (1 if side == "A" else 1001) + i
                raw[w][side].append(run_once(w, seed, seconds))
                print(f"run {i + 1}/{RUNS} {w} set {side} seed {seed}", file=sys.stderr)

    all_ok = True
    summary = {}
    for w in workloads:
        report = compare(raw[w], specs)
        summary[w] = report
        all_ok = all_ok and report["ok"]
        print(f"\n{w}: failed share {report['failed_share']}")
        print(f"  {'metric':<12} {'A median':>11} {'A q1..q3':>23} {'B median':>11} "
              f"{'B q1..q3':>23} {'spreadA':>8} {'spreadB':>8} {'B vs A':>8}  ok")
        for name, m in report["metrics"].items():
            a, b = m["A"], m["B"]
            print(f"  {name:<12} {a['median']:>11.5g} {a['q1']:>11.5g}..{a['q3']:<11.5g}"
                  f" {b['median']:>11.5g} {b['q1']:>11.5g}..{b['q3']:<11.5g}"
                  f" {a['spread']:>8.2%} {b['spread']:>8.2%} {m['drift']:>+8.2%}  {m['ok']}")
    print("\nsets agree within bounds" if all_ok else "\nsets DO NOT agree within bounds")
    OUT.mkdir(exist_ok=True)
    path = OUT / time.strftime("steady-%Y%m%d-%H%M%S.json")
    path.write_text(json.dumps({"seconds": seconds, "raw": raw, "summary": summary}, indent=1))
    print(f"raw results: {path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
