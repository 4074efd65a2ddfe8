#!/usr/bin/env python3
"""Run the full verification battery through the CLI and summarize.

Exits nonzero if any verification fails.  The battery runs 29 commands,
among them the n = 4 derivative module (about 0.2 s) and the mean value
property of the alternating polynomial at every k for n <= 5 (about
0.9 s together, 0.12-0.15 s per k at n = 5).  The route sweep at the
default --n-max 6 is the slow part: about 23 s, nearly all of it the
matrix route's fiber sums at n = 6.  The whole battery takes about 25
seconds with Python 3.11.7 on one core of a 2-core Xeon sandbox.
"""

import argparse
import sys

from cubeharm.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--order", type=int, default=16)
    args = parser.parse_args()

    batches = [
        ["verify", "identities", "--order", str(args.order)],
        ["verify", "routes", "--n-max", str(args.n_max)],
    ]
    for n in (1, 2, 3):
        batches.append(["verify", "dimension", "--n", str(n)])
        batches.append(["verify", "annihilation", "--n", str(n)])
    batches.append(["verify", "dimension", "--n", "4", "--allow-large"])
    for n in range(1, 6):
        for k in range(n + 1):
            batches.append(["verify", "mvp", "--n", str(n), "--k", str(k), "--delta"])

    failures = 0
    for argv in batches:
        print(f"$ cubeharm {' '.join(argv)}")
        code = cli_main(argv)
        if code != 0:
            failures += 1
        print()
    print(f"{len(batches)} verification commands, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
