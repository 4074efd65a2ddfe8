#!/usr/bin/env python3
"""Time the coefficient layers one by one and write BENCH_layers.json.

Each layer is one library call, or a short loop of them, timed cold:
every `lru_cache` of cubeharm's coefficient modules is cleared before
each repeat, and the best of --repeats wall times is kept.  One more
cold call runs under `tracemalloc` and records the layer's peak of
traced memory in KiB; that call is not timed.  The layers are
`recursion_table(n)` for each --recursion n, the Young diagram sums
G_1..G_M of `_young_base_poly` (M = --young-m), and
`identity_report(--order)`.

The output keeps one schema:

    {"python": "3.11.7",
     "layers": [{"name": ..., "args": {...}, "repeats": R, "best_s": ...,
                 "peak_kib": ...}, ...]}

Run it from the repository root as
`PYTHONPATH=src python scripts/bench_layers.py`; compare only files
written on one machine in one session.
"""

import argparse
import json
import platform
import tracemalloc
from pathlib import Path
from time import perf_counter

from cubeharm import bernoulli, coefficients, generating

CACHED = (bernoulli, coefficients, generating)


def clear_caches():
    for module in CACHED:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def cold_time(call):
    clear_caches()
    began = perf_counter()
    call()
    return perf_counter() - began


def traced_peak(call):
    """The peak of traced memory, in bytes, of one cold call."""
    clear_caches()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layers(args):
    """(name, arguments, call) of each layer, in the order they are timed."""
    for n in args.recursion:
        yield "recursion_table", {"n_max": n}, lambda n=n: coefficients.recursion_table(n)
    yield "young_base_polys", {"m_max": args.young_m}, lambda: [
        coefficients._young_base_poly(m) for m in range(1, args.young_m + 1)
    ]
    yield "identity_report", {"order": args.order}, lambda: generating.identity_report(args.order)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--recursion", type=int, nargs="+", default=[30, 60])
    parser.add_argument("--young-m", type=int, default=25)
    parser.add_argument("--order", type=int, default=48)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=Path("BENCH_layers.json"))
    args = parser.parse_args()

    report = {"python": platform.python_version(), "layers": []}
    for name, arguments, call in layers(args):
        seconds = min(cold_time(call) for _ in range(args.repeats))
        peak_kib = traced_peak(call) / 1024
        report["layers"].append(
            {
                "name": name,
                "args": arguments,
                "repeats": args.repeats,
                "best_s": round(seconds, 6),
                "peak_kib": round(peak_kib, 1),
            }
        )
        print(
            f"{name:<18} {json.dumps(arguments):<18} best of {args.repeats}: {seconds:.4f} s,"
            f" peak {peak_kib:.0f} KiB"
        )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
