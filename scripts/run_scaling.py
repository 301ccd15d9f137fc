#!/usr/bin/env python3
"""Flooding-time scaling study across arena sizes.

Runs seeded flood replicas at several network sizes (L = sqrt(n), R at the
connectivity threshold, v = R/c2) for both source rules, then prints the
per-scale medians, the sweep-wide bound constant, and the fitted spread
constant.  Mirrors `mrwpflood scaling` but exercises the library API.
"""

import argparse
from pathlib import Path

from mrwpflood.cli import write_json
from mrwpflood.experiments import scaling_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scales", type=int, nargs="+", default=[1000, 2000, 4000])
    parser.add_argument("--replicas", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=Path("scaling.json"))
    args = parser.parse_args()

    report = scaling_experiment(
        scales=tuple(args.scales),
        replicas=args.replicas,
        seed=args.seed,
    )
    write_json(args.output, report.to_json_dict())

    header = f"{'n':>6} {'rule':<10} {'median T':>9} {'range':>12} {'T/bound':>10}"
    print(header)
    print("-" * len(header))
    for row in report.rows:
        rng = f"{row['min_time']}..{row['max_time']}"
        print(
            f"{row['n']:>6} {row['rule']:<10} {row['median_time']:>9.1f} "
            f"{rng:>12} {row['ratio']:>10.3g}"
        )
    print(f"\nsweep-wide bound constant C = {report.max_ratio:.4g}")
    print(f"fitted spread constant      = {report.spread_constant:.4g}")
    for rule, slope in sorted(report.slopes.items()):
        print(f"log-ratio slope ({rule}): {slope:+.4f}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
