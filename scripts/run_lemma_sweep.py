#!/usr/bin/env python3
"""Run every structural checker across the 20-point parameter sweep.

For each setting this verifies central-zone row/column coverage, boundary
expansion on random subsets, the suburb diameter allowance, core-density
stability (on the dense settings), and per-window turn counts, then prints
one summary row per setting.
"""

import argparse
import sys
from pathlib import Path

from mrwpflood.cli import write_json
from mrwpflood.experiments import lemma_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expansion-samples", type=int, default=2000)
    parser.add_argument("--density-horizon", type=int, default=300)
    parser.add_argument("--turn-windows", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=Path("lemma_sweep.json"))
    args = parser.parse_args()

    report = lemma_sweep(
        expansion_samples=args.expansion_samples,
        density_horizon=args.density_horizon,
        turn_windows=args.turn_windows,
        seed=args.seed,
    )
    write_json(args.output, report.to_json_dict())

    header = (
        f"{'setting':<18} {'m':>3} {'|CZ|':>5} {'suburb':>6} "
        f"{'cover':>5} {'expand':>6} {'diam':>5} {'density':>8} {'turns':>6}"
    )
    print(header)
    print("-" * len(header))
    for s in report.settings:
        density = (
            f"{s.density_violations}" if s.density_checked else "-"
        )
        print(
            f"{s.name:<18} {s.m:>3} {s.cz_size:>5} {s.suburb_size:>6} "
            f"{'ok' if s.coverage_ok else 'FAIL':>5} "
            f"{s.expansion_violations:>6} {s.suburb_violations:>5} "
            f"{density:>8} {s.turn_violations:>6}"
        )
    print(
        f"\ndeterministic violations: {report.deterministic_violations}, "
        f"density violations: {report.density_violations}, "
        f"turn-bound fraction: {report.turn_fraction:.4f}"
    )
    print(f"wrote {args.output}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
