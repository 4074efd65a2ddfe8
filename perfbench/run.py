"""Run one workload of the cubeharm benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round of the workload runs in a fresh interpreter (worker.py), so the
program's caches start cold as they do for a CLI user.  Rounds repeat while
another one is expected to end within S seconds; there is always at least
one.  Set-up is also timed in extra interpreters that only set up, and the
median of all set-up samples is reported.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and the metrics, the
end-to-end ones untraced (--trace 0) or the per-layer ones traced
(--trace 1).  Per-layer counts are per round; times are round medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 25
TIME_LIMIT = 170.0  # a run must end within 180 s


class RunFailed(Exception):
    pass


def _worker(args, deadline):
    env = {k: v for k, v in os.environ.items() if k != "CUBEHARM_TERM_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)] + args,
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - perf_counter(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p90(values):
    return statistics.quantiles(values, n=10)[8]


def measure(workload, seed, seconds, traced):
    start = perf_counter()
    deadline = start + TIME_LIMIT
    base = ["--workload", workload, "--seed", str(seed)]
    _worker(base + ["--mode", "setup"], deadline)  # first interpreter may write bytecode caches
    rounds = []
    while True:
        extra = []
        if traced:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"trace-{workload}-seed{seed}-round{len(rounds) + 1}.json"
            extra = ["--trace-out", str(path)]
        rounds.append(_worker(base + ["--mode", "round"] + extra, deadline))
        elapsed = perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while not traced and len(setups) < SETUP_SAMPLES:
        setups.append(_worker(base + ["--mode", "setup"], deadline)["setup_s"])
    return rounds, setups


def summarize(rounds, setups, traced, bench):
    for r in rounds:
        for message in r["messages"]:
            print(message, file=sys.stderr)
    wrong = sum(r["wrong"] for r in rounds)
    result = {
        "correct": wrong == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": wrong + sum(r["errors"] for r in rounds),
    }
    if traced:
        specs = bench["per_layer"]
        values = {
            spec["name"]: statistics.median(r["per_layer"][spec["name"]] for r in rounds)
            for spec in specs
        }
    else:
        specs = bench["end_to_end"]
        latencies = [x for r in rounds for x in r["latencies"]]
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(r["solve_s"] for r in rounds),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": _p90(latencies) * 1e3,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    result["metrics"] = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    return result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in bench["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cubeharm" / "__init__.py").is_file():
        print(f"error: no cubeharm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        rounds, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(rounds, setups, bool(args.trace), bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
