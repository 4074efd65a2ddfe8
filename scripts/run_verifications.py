#!/usr/bin/env python3
"""Run the full verification battery through the CLI and summarize.

Exits nonzero if any verification fails.  The battery runs 32 commands:
the series identities, the route sweep up to --n-max (default 6, the
largest n at which the matrix route joins the sweep), one wide cell
(n = 40, m = 20, k = 19) on which the partition, Young, generating and
recursion routes must agree, the derivative module and annihilation for
n <= 3, the n = 4 derivative module and annihilation, annihilation at
n = 5, and the mean value property of the alternating polynomial at
every k for n <= 5.  Each command's wall time is printed after its
output, and the battery's total at the end.
"""

import argparse
import sys
from time import perf_counter

from cubeharm.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--order", type=int, default=16)
    args = parser.parse_args()

    batches = [
        ["verify", "identities", "--order", str(args.order)],
        ["verify", "routes", "--n-max", str(args.n_max)],
        ["coeff", "--n", "40", "--m", "20", "--k", "19", "--route", "all"],
    ]
    for n in (1, 2, 3):
        batches.append(["verify", "dimension", "--n", str(n)])
        batches.append(["verify", "annihilation", "--n", str(n)])
    batches.append(["verify", "dimension", "--n", "4", "--allow-large"])
    batches.append(["verify", "annihilation", "--n", "4"])
    batches.append(["verify", "annihilation", "--n", "5"])
    for n in range(1, 6):
        for k in range(n + 1):
            batches.append(["verify", "mvp", "--n", str(n), "--k", str(k), "--delta"])

    failures = 0
    start = perf_counter()
    for argv in batches:
        print(f"$ cubeharm {' '.join(argv)}")
        began = perf_counter()
        code = cli_main(argv)
        if code != 0:
            failures += 1
        print(f"({perf_counter() - began:.2f} s)")
        print()
    total = perf_counter() - start
    print(f"{len(batches)} verification commands, {failures} failed, {total:.1f} s in all")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
