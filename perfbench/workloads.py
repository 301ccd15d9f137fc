"""The benchmark's workloads: world construction from a seed, the timed body
run through mrwpflood's public API, and the checks on its output.

Every body calls the library through module attributes looked up at call
time (``flooding.run_flood``, ``zones.build_zone_map``, ...), so a traced
run sees the same calls as an untraced one.  Each body also appends
``(end, duration in ms)`` of every protocol step, by the clock it is given,
to the list it is given.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mrwpflood
from mrwpflood import experiments, flooding, mobility, stationary, zones
from tracer import call_clock

# flood-32k: one flood at n = 32 000, as the ``flood`` command runs it, but
# from the agent nearest the arena centre.  A random source moves T between
# 19 and 26 across seeds (flood time 5.8-8.2 s), which would swamp any
# regression bound; from the centre T is 16 on every seed tried.
FLOOD_N = 32_000
# T is about 16; a flood still running at this step counts as timed out.
FLOOD_STEP_LIMIT = 200
# Brute-force exchange check: per step, this many newly informed agents and
# this many still uninformed agents are checked against every informed one.
CHECK_TARGETS = 32

# warmup-2k: the criterion-03 stationarity path with 20 instead of 200
# snapshots.  The TV ceilings sit about twice above the values observed at
# this size (tv_model 0.036-0.040, tv_init 0.051-0.059).
WARMUP_N = 2000
BINS = 20
SNAPSHOTS = 20
TV_MODEL_CEILING = 0.08
TV_INIT_CEILING = 0.12

# corner-2k: the criterion-09 path with 1000 trials.  About 14 corner events
# occur per 1000 trials (a Poisson count); capping the conditional floods at
# 5 keeps the work of a repetition fixed.
CORNER_N = 2000
CORNER_TRIALS = 1000
CORNER_FLOODS = 5


class StepLimitExceeded(RuntimeError):
    """A flood ran past ``FLOOD_STEP_LIMIT`` steps."""


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]  # seed -> world
    body: Callable[[object, list, Callable], object]  # (world, steps, clock) -> outcome
    checks: Callable[[object, object, int], dict]  # -> {check name: passed}
    describe: Callable[[object], dict]  # outcome -> T, floods, digest
    tail_percentile: int  # fixed, so step_ms_tail stays comparable


def world_seed(seed: int, repetition: int) -> int:
    """Seed of the world a repetition runs on."""
    return int(np.random.SeedSequence([seed, repetition]).generate_state(1, np.uint64)[0])


def digest(payload: dict, *arrays: np.ndarray) -> str:
    h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# flood-32k
# ---------------------------------------------------------------------------

def centre_agent(population) -> int:
    half = population.params.L / 2.0
    return int(np.argmin(((population.pos - half) ** 2).sum(axis=1)))


def flood_setup(seed: int):
    params = mrwpflood.make_params(FLOOD_N, seed=seed)
    zone_map = zones.build_zone_map(params)
    population = mobility.init_population(params)
    return params, zone_map, population, centre_agent(population)


def flood_body(world, steps: list, clock=time.perf_counter):
    """Run the flood; keep a copy of positions and informed flags after
    every step for the exchange check.  Step k is timed from hook call k-1
    (from the run_flood call for k = 1) and excludes the copying."""
    params, zone_map, population, source = world
    snapshots = []
    last = clock()

    def on_step(pop, state):
        nonlocal last
        end = clock()
        steps.append((end, (end - last) * 1e3))
        if state.step >= FLOOD_STEP_LIMIT:
            raise StepLimitExceeded(f"flood still running at step {state.step}")
        snapshots.append((pop.pos.copy(), state.informed.copy()))
        last = clock()

    record = flooding.run_flood(
        params,
        source_rule=f"agent:{source}",
        zone_map=zone_map,
        population=population,
        collect_progress=True,
        on_step=on_step,
    )
    return record, snapshots


def exchange_mismatches(snapshots, source: int, R: float, rng, per_kind: int) -> int:
    """Sampled agents whose informed flag disagrees with brute-force
    distance arithmetic.

    After step k, an agent uninformed after step k-1 must be informed
    exactly when some agent informed after step k-1 lies within ``R`` of it
    on the post-move positions; informed agents stay informed.  Per step,
    ``per_kind`` newly informed and ``per_kind`` still uninformed agents are
    checked against all previously informed ones, without NeighborIndex.
    """
    before = np.zeros(len(snapshots[0][1]), dtype=bool)
    before[source] = True
    bad = 0
    for pos, informed in snapshots:
        bad += int((before & ~informed).sum())
        picked = [
            rng.choice(pool, size=min(per_kind, pool.size), replace=False)
            for pool in (np.flatnonzero(informed & ~before), np.flatnonzero(~informed))
        ]
        senders = pos[before]
        for chunk in np.array_split(np.concatenate(picked), 8):
            d = pos[chunk, None, :] - senders[None, :, :]
            reached = ((d[..., 0] ** 2 + d[..., 1] ** 2) <= R * R).any(axis=1)
            bad += int((reached != informed[chunk]).sum())
        before = informed
    return bad


def flood_checks(world, outcome, seed: int) -> dict:
    params, _, _, source = world
    record, snapshots = outcome
    rng = np.random.default_rng(seed)
    return {
        "flood_completed": not record.timed_out
        and record.flooding_time == len(snapshots)
        and bool(snapshots[-1][1].all()),
        "exchange_matches_brute_force": exchange_mismatches(
            snapshots, source, params.R, rng, CHECK_TARGETS
        )
        == 0,
    }


def flood_describe(outcome) -> dict:
    record, _ = outcome
    return {
        "T": record.flooding_time,
        "floods": 1,
        "digest": digest(record.to_json_dict()),
    }


# ---------------------------------------------------------------------------
# warmup-2k
# ---------------------------------------------------------------------------

def warmup_setup(seed: int):
    return mrwpflood.make_params(WARMUP_N, seed=seed)


def warmup_body(params, steps: list, clock=time.perf_counter):
    with call_clock(mobility.Population, "step", steps, clock):
        return experiments.stationarity_report(params, bins=BINS, snapshots=SNAPSHOTS)


def quadrature_masses(L: float, bins: int) -> np.ndarray:
    side = L / bins
    return np.array(
        [
            [
                stationary.cell_probability_quadrature(i * side, j * side, side, L)
                for j in range(bins)
            ]
            for i in range(bins)
        ]
    )


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def warmup_checks(params, report, seed: int) -> dict:
    warm, approx = report.histogram_warmup, report.histogram_approx
    oracle = quadrature_masses(params.L, BINS)
    return {
        "histograms_normalised": approx is not None
        and all(h.shape == (BINS, BINS) and abs(h.sum() - 1.0) <= 1e-9 for h in (warm, approx)),
        "tv_model_matches_quadrature": abs(tv(warm, oracle) - report.tv_model) <= 1e-9
        and report.tv_model <= TV_MODEL_CEILING,
        "tv_init_within_ceiling": report.tv_init is not None
        and approx is not None
        and abs(tv(approx, warm) - report.tv_init) <= 1e-12
        and report.tv_init <= TV_INIT_CEILING,
    }


def warmup_describe(report) -> dict:
    arrays = [report.histogram_warmup]
    if report.histogram_approx is not None:
        arrays.append(report.histogram_approx)
    return {
        "T": None,
        "floods": 0,
        "tv_model": report.tv_model,
        "tv_init": report.tv_init,
        "digest": digest(report.to_json_dict(), *arrays),
    }


# ---------------------------------------------------------------------------
# corner-2k
# ---------------------------------------------------------------------------

def corner_setup(seed: int):
    return mrwpflood.lower_bound_params(CORNER_N, seed=seed)


def corner_body(world, steps: list, clock=time.perf_counter):
    params, d = world
    with call_clock(flooding, "flood_step", steps, clock, (mrwpflood, flooding)):
        return experiments.lower_bound_experiment(
            params, d, trials=CORNER_TRIALS, flood_cap=CORNER_FLOODS
        )


def corner_checks(world, report, seed: int) -> dict:
    # Floods that reach the step cap are censored by design, not failed.
    return {"floor_satisfied": report.all_satisfied, "floods_ran": report.floods > 0}


def corner_describe(report) -> dict:
    return {
        "T": report.conditional_times,
        "floods": report.floods,
        "hits": report.hits,
        "digest": digest(report.to_json_dict()),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flood-32k", flood_setup, flood_body, flood_checks, flood_describe, 75),
        Workload("warmup-2k", warmup_setup, warmup_body, warmup_checks, warmup_describe, 90),
        Workload("corner-2k", corner_setup, corner_body, corner_checks, corner_describe, 90),
    )
}
