#!/usr/bin/env python3
"""Run the full verification battery through the CLI and summarize.

Exits nonzero if any verification fails.  The battery runs 18 commands,
among them the n = 4 derivative module (about 0.1 s).  The route sweep at
the default --n-max 6 is the slow part: about 8.6 s, nearly all of it the
matrix route's fiber sums at n = 6.  The whole battery takes about 9
seconds with Python 3.11.7 on one Xeon core.
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
        for k in range(n + 1):
            batches.append(["verify", "mvp", "--n", str(n), "--k", str(k), "--delta"])
    batches.append(["verify", "dimension", "--n", "4", "--allow-large"])

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
