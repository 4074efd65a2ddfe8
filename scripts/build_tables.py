#!/usr/bin/env python3
"""Materialize the coefficient grid and generating polynomials to disk.

Writes, under the output directory (default ./tables):
  coefficients.csv / coefficients.json   cross-checked grid up to --n-max
  generating.json                        base/reflected/Bernstein polynomials
  bernoulli.csv                          the positive-convention numbers
"""

import argparse
import json
from pathlib import Path

from cubeharm.bernoulli import bernoulli, scaled_bernoulli
from cubeharm.cli import emit_table
from cubeharm.generating import bernstein_transform, generating_poly, reversed_generating_poly


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--m-max", type=int, default=8, help="generating family bound")
    parser.add_argument("--out", type=Path, default=Path("tables"))
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "coefficients.csv").write_text(emit_table(args.n_max, "csv"))
    (args.out / "coefficients.json").write_text(emit_table(args.n_max, "json"))

    families = []
    for m in range(1, args.m_max + 1):
        families.append(
            {
                "m": m,
                "direct": generating_poly(m).to_strings(),
                "reflected": reversed_generating_poly(m, m).to_strings(),
                "bernstein": bernstein_transform(m, m).to_strings(),
            }
        )
    (args.out / "generating.json").write_text(json.dumps(families, indent=2) + "\n")

    rows = ["m,B,b"]
    for m in range(1, args.m_max + 1):
        rows.append(f"{m},{bernoulli(m)},{scaled_bernoulli(m)}")
    (args.out / "bernoulli.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote tables for n <= {args.n_max}, m <= {args.m_max} to {args.out}/")


if __name__ == "__main__":
    main()
