"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload flood-32k --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` beside this directory; nothing there
is edited.  The run is one process, single-threaded, a closed loop with one
caller: repetitions run back to back, each on a world derived from
``(--seed, repetition)``, until the next one would end past ``--seconds``
(at least two are run).  Every repetition's output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each world
twice, untraced and then traced, and reports the per-layer metrics of the
traced runs plus the tracing overhead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_REPS = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "flooding.any_within.self_s": "s",
    "flooding.any_within.calls": "count",
    "flooding.any_within.targets": "count",
    "flooding.any_within.hits": "count",
    "flooding.any_within.hit_frac": "ratio",
    "flooding.any_within.block_pairs": "count",
    "flooding.NeighborIndex.self_s": "s",
    "flooding.flood_step.self_s": "s",
    "flooding.flood_step.calls": "count",
    "flooding.informed_cells.self_s": "s",
    "flooding.run_flood.self_s": "s",
    "flooding.run_flood.calls": "count",
    "mobility.step.self_s": "s",
    "mobility.step.calls": "count",
    "mobility.step.waypoint_agents": "count",
    "mobility.step.waypoint_frac": "ratio",
    "mobility.init_population.self_s": "s",
    "mobility.Population.self_s": "s",
    "core.derive_substream.self_s": "s",
    "core.derive_substream.calls": "count",
    "stationary.sample_stationary_positions.self_s": "s",
    "stationary.sample_destinations.self_s": "s",
    "zones.build_zone_map.self_s": "s",
    "zones.build_zone_map.calls": "count",
    "zones.build_zone_map.m": "count",
    "zones.build_zone_map.suburb_cells": "count",
    "experiments.stationarity_report.self_s": "s",
    "experiments.lower_bound_experiment.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_frac": "ratio",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import mrwpflood; print(time.perf_counter() - t)"
)


@dataclass
class Rep:
    seed: int
    setup_s: float = 0.0
    body_s: float = 0.0
    steps: list = field(default_factory=list)  # (end, ms) per protocol step
    step_ms: list = field(default_factory=list)  # at reference speed
    checks: dict = field(default_factory=dict)  # name -> passed
    info: dict = field(default_factory=dict)
    error: str | None = None
    layers: dict | None = None  # per-layer values of a traced run
    top: list = field(default_factory=list)  # largest self-time shares, traced
    scale: float = 1.0  # measured to reference-speed seconds (probe.py)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.body_s


def import_seconds() -> float:
    """Time of ``import mrwpflood`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        cwd=ROOT,
    )
    return float(out.stdout)


def run_rep(workload, seed: int, traced: bool = False, probed: bool = False) -> Rep:
    """One repetition: set-up, timed body, then the output checks.

    A probed repetition runs under the host-speed probe, and its times are
    scaled to the reference speed: set-up and body by the probe's median
    over the repetition, each step by the samples around it.  A traced one
    runs under the tracer.  The two never mix: the probe's handler would
    land inside spans.
    """
    from probe import SpeedProbe
    from tracer import Tracer, traced_entry_points

    rep = Rep(seed)
    tracer = Tracer() if traced else None
    span = tracer.span if traced else (lambda name: nullcontext())
    probe = SpeedProbe() if probed else None
    clock = probe.now if probed else time.perf_counter
    try:
        with (
            traced_entry_points(tracer) if traced else nullcontext(),
            probe if probed else nullcontext(),
        ):
            t0 = clock()
            with span("bench.setup"):
                world = workload.setup(seed)
            t1 = clock()
            with span("bench.body"):
                outcome = workload.body(world, rep.steps, clock)
            t2 = clock()
    except Exception:
        rep.error = traceback.format_exc()
        print(rep.error, file=sys.stderr)
        return rep
    rep.setup_s, rep.body_s = t1 - t0, t2 - t1
    if probe is not None:
        rep.scale = probe.scale()
        if rep.steps:
            ends, ms = zip(*rep.steps)
            rep.step_ms = [m * f for m, f in zip(ms, probe.local_scales(ends))]
    try:
        rep.checks = workload.checks(world, outcome, seed)
        rep.info = workload.describe(outcome)
    except Exception:
        rep.checks = {"checks_ran": False}
        print(traceback.format_exc(), file=sys.stderr)
    if tracer is not None:
        self_s = tracer.self_times()
        rep.layers = layer_values(self_s, tracer.counts, rep.wall_s)
        rep.top = sorted(((k, v / rep.wall_s) for k, v in self_s.items()), key=lambda kv: -kv[1])[:6]
    return rep


def layer_values(self_s: dict, counts: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition.  The two that compare
    with the untraced twin are filled in by the caller."""
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = float(counts.get(name, 0))
    targets = counts.get("flooding.any_within.targets", 0)
    agents = counts.get("mobility.step.agents", 0)
    values["flooding.any_within.hit_frac"] = (
        counts.get("flooding.any_within.hits", 0) / targets if targets else 0.0
    )
    values["mobility.step.waypoint_frac"] = (
        counts.get("mobility.step.waypoint_agents", 0) / agents if agents else 0.0
    )
    layer_s = sum(v for k, v in self_s.items() if not k.startswith("bench."))
    values["trace.wall_s"] = wall_s
    values["trace.layer_frac"] = layer_s / wall_s
    return values


def percentile(values: list, q: int) -> float:
    """numpy's default (linear) percentile, for a whole-number ``q``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Numerical libraries stay single-threaded, here and in the import
    # probes; numpy is first imported below.
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if not (SRC / "mrwpflood" / "__init__.py").is_file():
        print(f"error: no mrwpflood sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import mrwpflood
    from probe import SpeedProbe

    # Host-speed samples taken in this process between the imports.
    probe = SpeedProbe()
    import_s = []
    for _ in range(IMPORT_SAMPLES):
        probe.sample(10)
        import_s.append(import_seconds())
    probe.sample(10)
    import_s = [t * probe.scale() for t in import_s]
    from workloads import WORKLOADS, world_seed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    reps: list[Rep] = []  # untraced
    traced: list[Rep] = []
    start = time.perf_counter()
    k = 0
    while True:
        seed = world_seed(args.seed, k)
        reps.append(run_rep(workload, seed, probed=not args.trace))
        if args.trace:
            traced.append(run_rep(workload, seed, traced=True))
        k += 1
        elapsed = time.perf_counter() - start
        if k >= (1 if args.trace else MIN_REPS) and elapsed * (k + 1) / k > args.seconds:
            break

    attempted = failed = 0
    for rep in reps + traced:
        attempted += 1 + len(rep.checks)
        failed += (not rep.ok) + sum(not passed for passed in rep.checks.values())
    if args.trace:
        for plain, rep in zip(reps, traced):
            attempted += 1
            neutral = plain.ok and rep.ok and plain.info.get("digest") == rep.info.get("digest")
            failed += not neutral

    good = [r for r in reps if r.ok]
    good_traced = [(p, r) for p, r in zip(reps, traced) if p.ok and r.ok]
    if not good or (args.trace and not good_traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "rng_algorithm": mrwpflood.RNG_ALGORITHM_ID,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": {
            p.stem: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "mrwpflood").glob("*.py"))
        },
        "import_s": import_s,
        "failed_frac": failed / attempted,
        "reps": [
            {
                "seed": r.seed,
                "setup_s": r.setup_s,
                "body_s": r.body_s,
                "scale": r.scale,
                "steps": len(r.steps),
                "checks": r.checks,
                "error": r.error is not None,
                **r.info,
            }
            for r in reps
        ],
    }

    if args.trace:
        rows = [r.layers for _, r in good_traced]
        metrics = {
            name: statistics.median(row[name] for row in rows) for name in PER_LAYER
        }
        metrics["trace.untraced_wall_s"] = statistics.median(p.wall_s for p, _ in good_traced)
        metrics["trace.overhead_s"] = statistics.median(
            r.wall_s - p.wall_s for p, r in good_traced
        )
        meta["top_self_share"] = good_traced[-1][1].top
        units = PER_LAYER
    else:
        steps = [ms for r in good for ms in r.step_ms]
        q = workload.tail_percentile
        tail = percentile(steps, q)
        beyond = sum(1 for ms in steps if ms > tail)
        meta.update(
            step_samples=len(steps),
            tail_percentile=q,
            tail_samples_beyond=beyond,
        )
        if beyond < 10:
            print(f"warning: only {beyond} step samples beyond p{q:g}", file=sys.stderr)
        metrics = {
            "wall_s": statistics.median(r.body_s * r.scale for r in good),
            "setup_s": statistics.median(import_s)
            + statistics.median(r.setup_s * r.scale for r in good),
            "step_ms_p50": percentile(steps, 50),
            "step_ms_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
