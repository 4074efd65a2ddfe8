"""One fresh interpreter: set up a workload, run one round of its ops, report.

Started by run.py, never imported.  The import of cubeharm and the
building of the inputs are timed as set-up; the references are computed
after that, untimed; the ops and the checks on their results are timed as
the solve.  The last line of standard output is one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --mode round|setup
        [--trace-out FILE]
"""

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _run_round(workload, ops, trace_out):
    refs = workload.references(ops)
    tracer = None
    if trace_out:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    latencies = []
    results = []
    errors = []
    wrong = set()
    start = perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            frame = tracer.enter(tracer.name_id("op"))
        began = perf_counter()
        try:
            result = workload.run(op)
        except Exception:  # a failed op is counted, and the round goes on
            result = None
            errors.append(traceback.format_exc(limit=3))
        latencies.append(perf_counter() - began)
        if tracer is not None:
            tracer.exit(frame)
        results.append(result)
        if result is not None:
            try:
                ok = workload.check(op, result, refs)
            except Exception:
                ok = False
            if not ok:
                wrong.add(index)
    try:
        wrong |= workload.cross_check(ops, results, refs)
    except Exception:  # results too malformed to compare count as wrong
        wrong |= {i for i, result in enumerate(results) if result is not None}
    solve = perf_counter() - start
    report = {
        "solve_s": solve,
        "latencies": latencies,
        "attempted": len(ops),
        "errors": len(errors),
        "wrong": len(wrong),
        "messages": errors[:3] + [f"wrong result: {ops[i][:4]!r}" for i in sorted(wrong)[:3]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["per_layer"] = tracing.per_layer(tracer)
        tracer.dump(trace_out, {"solve_s": solve, "attempted": len(ops)})
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("round", "setup"), required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    began = perf_counter()
    import cubeharm

    ops = workload.build(args.seed)
    setup = perf_counter() - began
    if Path(cubeharm.__file__).resolve().parent != SRC / "cubeharm":
        sys.exit(f"cubeharm was imported from {cubeharm.__file__}, not from {SRC}")
    report = {"setup_s": setup}
    if args.mode == "round":
        report.update(_run_round(workload, ops, args.trace_out))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
