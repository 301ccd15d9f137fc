"""In-memory span tracing of mrwpflood entry points, from outside the package.

A traced run rebinds each public entry point by name in every module that
looks it up (``mrwpflood.flooding.build_zone_map``,
``mrwpflood.mobility.derive_substream``, ...) and methods on their class,
records one span per call with the id of the span that was open when it
started, and restores the originals on exit.  Nothing under ``src/`` is
edited.  A span's self time is its duration minus the durations of its
direct children.

Counts are read from public state at the same boundaries.  Counting runs in
spans named ``bench.count`` that sit beside the layer's span, so its cost is
charged to the benchmark and not to any layer.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

COUNT_SPAN = "bench.count"


class Tracer:
    """Spans of one traced repetition plus the counters read beside them."""

    def __init__(self) -> None:
        # [name, parent id (-1 for a root), start, end]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open = [-1]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, self._open[-1], time.perf_counter(), 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def wrap(
        self,
        name: str,
        func: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``func`` inside a span named ``name``.

        ``before(counts, *args, **kwargs)`` runs ahead of the call and its
        return value reaches ``after(counts, memo, result, *args, **kwargs)``.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            memo = None
            if before is not None:
                with self.span(COUNT_SPAN):
                    memo = before(self.counts, *args, **kwargs)
            with self.span(name):
                result = func(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if after is not None:
                with self.span(COUNT_SPAN):
                    after(self.counts, memo, result, *args, **kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, _, start, end) in enumerate(self.spans):
            out[name] += (end - start) - covered[sid]
        return dict(out)


@contextmanager
def rebound(modules, targets) -> Iterator[None]:
    """Replace entry points for the duration of the block.

    ``targets`` holds ``(owner, attr, replacement)``.  A class owner is
    patched in place; a module owner names a function, which is rebound in
    every module of ``modules`` that binds that same function object.
    """
    saved = []
    try:
        for owner, attr, replacement in targets:
            if isinstance(owner, type):
                holders = [owner]
            else:
                original = getattr(owner, attr)
                holders = [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                saved.append((holder, attr, holder.__dict__[attr]))
                setattr(holder, attr, replacement)
        yield
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


@contextmanager
def call_clock(
    owner, attr: str, sink: list[float], clock: Callable[[], float], modules=()
) -> Iterator[None]:
    """Append ``(end, duration in ms)`` of every call of ``owner.attr`` to
    ``sink``.

    The untraced runs use this for per-step latency; it adds two clock reads
    per call and records no spans.
    """
    func = getattr(owner, attr)

    @functools.wraps(func)
    def clocked(*args, **kwargs):
        start = clock()
        try:
            return func(*args, **kwargs)
        finally:
            end = clock()
            sink.append((end, (end - start) * 1e3))

    with rebound(modules, [(owner, attr, clocked)]):
        yield


# ---------------------------------------------------------------------------
# counters read from public state
# ---------------------------------------------------------------------------

def count_waypoints(counts, population, *args, **kwargs) -> None:
    """Agents that reach a way-point within the coming step: those whose
    remaining distance along their heading is at most ``v``."""
    v = population.params.v
    horizontal = (population.heading == 0) | (population.heading == 2)
    remaining = np.where(
        horizontal,
        population.turn[:, 0] - population.pos[:, 0],
        population.turn[:, 1] - population.pos[:, 1],
    )
    if v > 0.0:
        counts["mobility.step.waypoint_agents"] += int((np.abs(remaining) <= v).sum())
    counts["mobility.step.agents"] += population.params.n


def count_hits(counts, memo, hit, index, pts, *args, **kwargs) -> None:
    counts["flooding.any_within.targets"] += len(pts)
    counts["flooding.any_within.hits"] += int(np.count_nonzero(hit))


def uninformed_before(counts, population, state, *args, **kwargs):
    return ~state.informed


def count_block_pairs(counts, targets, result, population, state, *args, **kwargs):
    """Pairs the exchange materialises today: every uninformed agent paired
    with every agent of the 3x3 block of R-buckets around it, on the
    post-move positions.  Computed here from the population, not read from
    the program."""
    if not targets.any():
        return
    p = population.params
    nb = max(1, math.ceil(p.L / p.R))
    cell = np.minimum((population.pos / p.R).astype(np.int64), nb - 1)
    occupancy = np.pad(
        np.bincount(cell[:, 0] * nb + cell[:, 1], minlength=nb * nb).reshape(nb, nb), 1
    )
    block = sum(
        occupancy[1 + dx : nb + 1 + dx, 1 + dy : nb + 1 + dy]
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
    )
    cell = cell[targets]
    counts["flooding.any_within.block_pairs"] += int(block[cell[:, 0], cell[:, 1]].sum())


def record_zone_map(counts, memo, zone_map, *args, **kwargs) -> None:
    counts["zones.build_zone_map.m"] = zone_map.m
    counts["zones.build_zone_map.suburb_cells"] = zone_map.m**2 - zone_map.cz_size


def traced_entry_points(tracer: Tracer):
    """Context manager that routes every layer boundary the benchmark
    reports through ``tracer``."""
    import mrwpflood
    from mrwpflood import core, experiments, flooding, mobility, stationary, zones

    modules = (mrwpflood, core, stationary, mobility, zones, flooding, experiments)
    index, population = flooding.NeighborIndex, mobility.Population
    layers = [
        # (owner, attribute, span name, before, after)
        (flooding, "run_flood", "flooding.run_flood", None, None),
        (flooding, "flood_step", "flooding.flood_step", uninformed_before, count_block_pairs),
        (index, "__init__", "flooding.NeighborIndex", None, None),
        (index, "any_within", "flooding.any_within", None, count_hits),
        (flooding, "informed_cells", "flooding.informed_cells", None, None),
        (population, "step", "mobility.step", count_waypoints, None),
        (population, "__init__", "mobility.Population", None, None),
        (mobility, "init_population", "mobility.init_population", None, None),
        (core, "derive_substream", "core.derive_substream", None, None),
        (
            stationary,
            "sample_stationary_positions",
            "stationary.sample_stationary_positions",
            None,
            None,
        ),
        (stationary, "sample_destinations", "stationary.sample_destinations", None, None),
        (zones, "build_zone_map", "zones.build_zone_map", None, record_zone_map),
        (experiments, "stationarity_report", "experiments.stationarity_report", None, None),
        (
            experiments,
            "lower_bound_experiment",
            "experiments.lower_bound_experiment",
            None,
            None,
        ),
    ]
    return rebound(
        modules,
        [
            (owner, attr, tracer.wrap(name, getattr(owner, attr), before, after))
            for owner, attr, name, before, after in layers
        ],
    )
