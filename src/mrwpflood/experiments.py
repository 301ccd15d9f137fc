"""Scenario runners turning the model's guarantees into measurements.

Provides the standard arena scaling (``L = sqrt(n)`` with the radius set
relative to its admissibility threshold), replica-seeded scaling
experiments against the flooding-time budget (``flood_time_budget``), the
corner-event lower-bound construction, batch lemma sweeps (zone structure,
core density, turn counts), and stationarity validation by pooled
histograms.

All replica and trial seeds derive deterministically from the experiment
seed, so every report is a pure function of its configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    INIT_STREAM_INDEX,
    MONITOR_STREAM_INDEX,
    SPEED_ENVELOPE_DEFAULT,
    WorldParams,
    derive_substream,
    entropy_words,
    json_dict,
    seedseq_words,
    substream_states,
)
from .flooding import (
    DEFAULT_BOUND_CONSTANTS,
    SOURCE_IN_CZ,
    SOURCE_IN_SUBURB,
    SOURCE_RANDOM,
    RunRecord,
    SourcePlacementError,
    density_monitor,
    flood_time_budget,
    run_flood,
)
from .mobility import (
    APPROX_STATIONARY,
    WARMUP,
    Heading,
    TrajectoryRecorder,
    TripEvent,
    init_population,
    position_histogram,
)
from .stationary import grid_cell_masses, sample_stationary_positions
from .zones import (
    build_zone_map,
    check_expansion,
    check_suburb_diameter,
    cz_row_column_counts,
)


#: The radius-envelope constant of ``make_params``, ``scaling_experiment``
#: and the CLI config (``WorldParams`` defaults to a stricter 200).
SCENARIO_C1 = 2.5


def derived_seed(*entropy: int) -> int:
    """Deterministic 64-bit seed from an integer tuple."""
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def make_params(
    n: int,
    c1: float = SCENARIO_C1,
    radius_multiplier: float = 1.0,
    R: float | None = None,
    v: float | None = None,
    eta: float = 0.0,
    seed: int = 0,
    L: float | None = None,
    c2: float = SPEED_ENVELOPE_DEFAULT,
) -> WorldParams:
    """The world of every scenario and CLI subcommand.

    The side defaults to ``sqrt(n)``, the radius to ``radius_multiplier``
    times the admissibility threshold ``c1 L sqrt(ln(n)/n)`` (``L`` at
    ``n = 1``), and the speed to its cap ``R / c2``.
    """
    L = math.sqrt(n) if L is None else L
    if R is None:
        R = radius_multiplier * c1 * L * math.sqrt(math.log(n) / n) if n > 1 else L
    if v is None:
        v = R / c2
    return WorldParams(n=n, L=L, R=R, v=v, seed=seed, c1=c1, c2=c2, eta=eta)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# default sweep
# ---------------------------------------------------------------------------

def default_sweep(seed: int = 0) -> list[WorldParams]:
    """The standard 20-point sweep: twelve settings at 1x/2x the radius
    threshold spanning arena sizes (suburb-rich at 1x, suburb-free at 2x),
    plus eight dense settings whose cells hold enough agents for the core
    density condition to bite (``eta = 0.02``)."""
    sparse = [
        (1000, 2.5, 1.0),
        (2000, 2.5, 1.0),
        (3000, 2.5, 1.0),
        (4000, 2.5, 1.0),
        (5000, 2.2, 1.0),
        (8000, 2.3, 1.0),
        (10000, 2.5, 1.0),
        (10000, 2.0, 1.0),
        (1000, 2.5, 2.0),
        (2000, 2.5, 2.0),
        (4000, 2.5, 2.0),
        (10000, 2.5, 2.0),
    ]
    dense = [
        (1000, 36.0, 13.0),
        (2000, 35.0, 12.0),
        (4000, 48.0, 16.0),
        (5000, 53.0, 18.0),
        (8000, 50.0, 16.0),
        (10000, 56.0, 18.0),
        (2000, 52.0, 18.0),
        (10000, 75.0, 24.0),
    ]
    settings = [
        make_params(n, c1=c1, radius_multiplier=mult, eta=0.0, seed=seed)
        for n, c1, mult in sparse
    ]
    settings.extend(
        make_params(n, c1=c1, R=R, eta=0.02, seed=seed) for n, R, c1 in dense
    )
    return settings


# ---------------------------------------------------------------------------
# turn-count statistics
# ---------------------------------------------------------------------------

@dataclass
class TurnReport:
    """Empirical turn counts over random agent windows vs the logarithmic
    bound ``4 ln(n) / ln(L / (v tau))``."""

    params: WorldParams
    windows: int
    violations: int
    tau_min: int
    tau_max: int
    horizon: int
    max_turns: int
    max_ratio: float  # worst turns / bound

    @property
    def fraction(self) -> float:
        return self.violations / self.windows if self.windows else 0.0

    JSON_EXTRA = ("fraction",)
    to_json_dict = json_dict


def turn_bound(params: WorldParams, tau: int) -> float:
    """``4 ln(n) / ln(L / (v tau))``, valid while ``v tau < L``."""
    ratio = params.L / (params.v * tau)
    if ratio <= 1.0:
        raise ValueError("window so long the bound's logarithm degenerates")
    return 4.0 * math.log(params.n) / math.log(ratio)


def admissible_tau_range(params: WorldParams) -> tuple[int, int]:
    """Integer window lengths in ``[L/(n v), L/(4 v)]``."""
    if params.v == 0.0:
        raise ValueError("turn windows need moving agents")
    tau_min = max(1, math.ceil(params.L / (params.n * params.v)))
    tau_max = math.floor(params.L / (4.0 * params.v))
    if tau_max < tau_min:
        raise ValueError("speed too high for any admissible window length")
    return tau_min, tau_max


def _turn_counter(
    start_heading: Heading, events: Sequence[TripEvent]
) -> Callable[[int, int], int]:
    """The direction changes of one agent's event log in a window
    ``(t, t + tau]``, as a function of ``(t, tau)``.

    An event is a change when its ``heading_after`` differs from the
    heading before it (``start_heading`` for the first): every elbow, and
    each arrival whose fresh trip departs in a different direction.  The
    count of a window is the running count at its end less that at its
    start, each found by a binary search of the event times.
    """
    times = np.array([e.time for e in events])
    headings = np.array([start_heading, *(e.heading_after for e in events)])
    changes = np.concatenate(([0], np.cumsum(headings[1:] != headings[:-1])))

    def count(t: int, tau: int) -> int:
        i0, i1 = np.searchsorted(times, (t, t + tau), side="right")
        return int(changes[i1] - changes[i0])

    return count


def turn_statistics(
    params: WorldParams,
    windows: int = 10_000,
    agents: int = 50,
    seed: int | None = None,
) -> TurnReport:
    """Record trajectories of a stationary population and measure the turn
    count of ``windows`` random (agent, start, length) windows against the
    logarithmic bound."""
    if seed is None:
        seed = params.seed
    tau_min, tau_max = admissible_tau_range(params)
    horizon = 4 * tau_max
    watched = min(agents, params.n)
    population = init_population(params, APPROX_STATIONARY)
    recorder = TrajectoryRecorder(population, range(watched))
    population.advance(horizon, recorder=recorder)
    counters = [
        _turn_counter(recorder.start[a][2], recorder.events[a]) for a in range(watched)
    ]
    rng = derive_substream(seed, MONITOR_STREAM_INDEX)
    violations = 0
    max_turns = 0
    max_ratio = 0.0
    for _ in range(windows):
        a = int(rng.integers(watched))
        tau = int(rng.integers(tau_min, tau_max + 1))
        t = int(rng.integers(0, horizon - tau + 1))
        turns = counters[a](t, tau)
        bound = turn_bound(params, tau)
        ratio = turns / bound
        max_turns = max(max_turns, turns)
        max_ratio = max(max_ratio, ratio)
        if turns > bound:
            violations += 1
    return TurnReport(
        params=params,
        windows=windows,
        violations=violations,
        tau_min=tau_min,
        tau_max=tau_max,
        horizon=horizon,
        max_turns=max_turns,
        max_ratio=max_ratio,
    )


# ---------------------------------------------------------------------------
# lemma sweep
# ---------------------------------------------------------------------------

@dataclass
class SettingReport:
    """All checker outcomes for one sweep setting."""

    name: str
    params: WorldParams
    m: int
    cz_size: int
    suburb_size: int
    coverage_ok: bool
    coverage_rows: int
    coverage_columns: int
    expansion_checked: int
    expansion_violations: int
    suburb_violations: int
    suburb_worst: float
    suburb_allowance: float
    density_checked: bool
    density_violations: int
    turn_windows: int
    turn_violations: int

    @property
    def deterministic_violations(self) -> int:
        return (
            (0 if self.coverage_ok else 1)
            + self.expansion_violations
            + self.suburb_violations
        )


@dataclass
class LemmaSweepReport:
    """Aggregated checker outcomes across all sweep settings."""

    settings: list[SettingReport]
    eta_override: float | None
    suburb_scale: float
    seed: int

    @property
    def deterministic_violations(self) -> int:
        return sum(s.deterministic_violations for s in self.settings)

    @property
    def density_violations(self) -> int:
        return sum(s.density_violations for s in self.settings)

    @property
    def turn_windows(self) -> int:
        return sum(s.turn_windows for s in self.settings)

    @property
    def turn_violations(self) -> int:
        return sum(s.turn_violations for s in self.settings)

    @property
    def turn_fraction(self) -> float:
        w = self.turn_windows
        return self.turn_violations / w if w else 0.0

    @property
    def ok(self) -> bool:
        return (
            self.deterministic_violations == 0
            and self.density_violations == 0
            and self.turn_fraction <= 0.01
        )

    JSON_EXTRA = (
        "deterministic_violations",
        "density_violations",
        "turn_windows",
        "turn_violations",
        "turn_fraction",
        "ok",
    )
    to_json_dict = json_dict


def lemma_sweep(
    settings: Sequence[WorldParams] | None = None,
    eta_override: float | None = None,
    suburb_scale: float = 1.0,
    expansion_samples: int = 2000,
    density_horizon: int = 300,
    turn_windows: int = 200,
    include_expansion: bool = True,
    include_density: bool = True,
    include_turns: bool = True,
    seed: int = 0,
) -> LemmaSweepReport:
    """Run every structural checker across a parameter sweep.

    Deterministic zone checks (row/column coverage, boundary expansion,
    suburb diameter) always run per setting; the core-density monitor runs
    over ``density_horizon`` steps for settings whose effective ``eta`` is
    positive, and turn-count windows are sampled per setting.
    ``eta_override`` and ``suburb_scale`` exist for negative controls
    (``eta_override=10`` or ``suburb_scale=1/20`` must produce violations).
    """
    if settings is None:
        settings = default_sweep(seed=seed)
    reports: list[SettingReport] = []
    for k, params in enumerate(settings):
        zone_map = build_zone_map(params)
        coverage = cz_row_column_counts(zone_map)
        if include_expansion:
            expansion = check_expansion(
                zone_map,
                mode="auto",
                samples=expansion_samples,
                rng=derive_substream(seed, MONITOR_STREAM_INDEX + 16 + k),
            )
            expansion_checked = expansion.subsets_checked
            expansion_violations = expansion.violations
        else:
            expansion_checked = expansion_violations = 0
        suburb = check_suburb_diameter(zone_map, scale=suburb_scale)
        eta_eff = params.eta if eta_override is None else eta_override
        density_checked = include_density and eta_eff > 0.0
        density_violations = 0
        if density_checked:
            population = init_population(params, APPROX_STATIONARY)
            density_violations = density_monitor(
                population, zone_map, eta_eff, density_horizon
            )
        turn_count = turn_violation_count = 0
        if include_turns and params.v > 0.0 and turn_windows > 0:
            turns = turn_statistics(
                params, windows=turn_windows, seed=derived_seed(seed, 1, k)
            )
            turn_count = turns.windows
            turn_violation_count = turns.violations
        reports.append(
            SettingReport(
                name=f"n={params.n} R={params.R:.4g} c1={params.c1:.4g}",
                params=params,
                m=zone_map.m,
                cz_size=zone_map.cz_size,
                suburb_size=zone_map.suburb_size,
                coverage_ok=coverage.ok,
                coverage_rows=coverage.rows_with_central,
                coverage_columns=coverage.columns_with_central,
                expansion_checked=expansion_checked,
                expansion_violations=expansion_violations,
                suburb_violations=suburb.violations,
                suburb_worst=suburb.worst_distance,
                suburb_allowance=suburb.allowance,
                density_checked=density_checked,
                density_violations=density_violations,
                turn_windows=turn_count,
                turn_violations=turn_violation_count,
            )
        )
    return LemmaSweepReport(
        settings=reports,
        eta_override=eta_override,
        suburb_scale=suburb_scale,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# scaling experiment
# ---------------------------------------------------------------------------

@dataclass
class ScalingReport:
    """Flooding times across arena scales against the time budget."""

    scales: tuple[int, ...]
    replicas: int
    c1: float
    constants: tuple[float, float]
    source_rules: tuple[str, ...]
    init_mode: str
    seed: int
    runs: list[RunRecord]
    rows: list[dict]
    max_ratio: float  # C: worst median-time / budget over (scale, rule)
    slopes: dict[str, float]  # per rule: d log(ratio) / d log(n)
    spread_constant: float  # worst cz_spread_time / (L/R) over in_cz runs

    JSON_SKIP = ("runs",)
    to_json_dict = json_dict


# Source rules of every scaling scale, in run order.
SCALING_SOURCE_RULES = (SOURCE_IN_CZ, SOURCE_IN_SUBURB)


def scaling_experiment(
    scales: Sequence[int] = (1000, 2000, 4000),
    replicas: int = 20,
    c1: float = SCENARIO_C1,
    constants: tuple[float, float] = DEFAULT_BOUND_CONSTANTS,
    init_mode: str = APPROX_STATIONARY,
    seed: int = 0,
    c2: float = SPEED_ENVELOPE_DEFAULT,
    eta: float = 0.0,
) -> ScalingReport:
    """Seeded flooding runs across arena scales.

    Each scale uses ``make_params(n, c1=c1, c2=c2, eta=eta)`` and runs each
    rule of ``SCALING_SOURCE_RULES``.  Every (scale, replica, rule) gets its
    own derived seed; a zone-placement failure (no agent in the requested
    zone) retries with a fresh derived seed.
    """
    runs: list[RunRecord] = []
    rows: list[dict] = []
    max_ratio = 0.0
    spread_constant = 0.0
    ratio_by_rule: dict[str, list[tuple[int, float]]] = {
        rule: [] for rule in SCALING_SOURCE_RULES
    }
    for si, n in enumerate(scales):
        base = make_params(n, c1=c1, c2=c2, eta=eta)
        zone_map = build_zone_map(base)
        budget = flood_time_budget(base, zone_map, constants)
        for ri, rule in enumerate(SCALING_SOURCE_RULES):
            times: list[int] = []
            spreads: list[int] = []
            for r in range(replicas):
                for attempt in range(100):
                    params = replace(
                        base, seed=derived_seed(seed, si, r, ri, attempt)
                    )
                    try:
                        record = run_flood(
                            params,
                            source_rule=rule,
                            init_mode=init_mode,
                            zone_map=zone_map,
                            bound_constants=constants,
                        )
                        break
                    except SourcePlacementError:
                        continue
                else:
                    raise RuntimeError(
                        f"could not place a source with rule {rule!r} at n={n}"
                    )
                runs.append(record)
                if record.timed_out:
                    raise RuntimeError(
                        f"flood timed out at n={n}, rule={rule}, replica={r} "
                        f"(max_steps={record.max_steps})"
                    )
                times.append(record.flooding_time)
                if record.cz_spread_time is not None:
                    spreads.append(record.cz_spread_time)
                    if rule == SOURCE_IN_CZ:
                        spread_constant = max(
                            spread_constant,
                            record.cz_spread_time / (base.L / base.R),
                        )
            median_time = float(np.median(times))
            ratio = median_time / budget
            max_ratio = max(max_ratio, ratio)
            ratio_by_rule[rule].append((n, ratio))
            rows.append(
                {
                    "n": n,
                    "L": base.L,
                    "R": base.R,
                    "v": base.v,
                    "rule": rule,
                    "replicas": replicas,
                    "median_time": median_time,
                    "min_time": int(min(times)),
                    "max_time": int(max(times)),
                    "median_spread": float(np.median(spreads)) if spreads else None,
                    "bound": budget,
                    "ratio": ratio,
                }
            )
    slopes: dict[str, float] = {}
    for rule, points in ratio_by_rule.items():
        if len(points) >= 2:
            xs = np.log([p[0] for p in points])
            ys = np.log([p[1] for p in points])
            slopes[rule] = float(np.polyfit(xs, ys, 1)[0])
        else:
            slopes[rule] = 0.0
    return ScalingReport(
        scales=tuple(scales),
        replicas=replicas,
        c1=c1,
        constants=tuple(constants),
        source_rules=SCALING_SOURCE_RULES,
        init_mode=init_mode,
        seed=seed,
        runs=runs,
        rows=rows,
        max_ratio=max_ratio,
        slopes=slopes,
        spread_constant=spread_constant,
    )


# ---------------------------------------------------------------------------
# lower-bound construction
# ---------------------------------------------------------------------------

@dataclass
class LowerBoundReport:
    """Corner-event statistics and conditional flooding times.

    The event of interest puts at least one agent in the corner square
    ``F = [0, d]^2`` while the surrounding annulus ``E - F`` (with
    ``E = [0, 3d]^2``) is empty, so the corner agent starts isolated and
    information must physically travel to it.
    """

    params: WorldParams
    d: float
    trials: int
    hits: int  # trials where the corner event held
    f_occupied: int  # trials with >= 1 agent in F
    annulus_empty: int  # trials with no agent in E - F
    floods: int  # conditional floods run (event held, source outside F)
    threshold: float  # (2d - R) / (2v)
    conditional_times: list[int]  # censored at max_steps
    conditional_satisfied: int  # floods with T >= threshold
    max_steps: int

    @property
    def probability(self) -> float:
        return self.hits / self.trials if self.trials else 0.0

    @property
    def all_satisfied(self) -> bool:
        return self.conditional_satisfied == self.floods

    JSON_EXTRA = ("probability", "all_satisfied")
    to_json_dict = json_dict


def lower_bound_params(
    n: int = 2000, d_factor: float = 0.23, seed: int = 0,
    L: float | None = None, R: float | None = None, **world,
) -> tuple[WorldParams, float]:
    """Standard lower-bound scenario: the corner side ``d = d_factor * L /
    n^(1/3)`` scales with the side ``L`` (default ``sqrt(n)``), ``R``
    defaults to just inside it (``0.9 d``), and ``make_params`` takes the rest.

    ``d_factor`` trades the corner square's size against the emptiness of
    its surrounding annulus so the corner event keeps a workable
    probability at finite ``n``.
    """
    d = d_factor * (math.sqrt(n) if L is None else L) / n ** (1.0 / 3.0)
    R = 0.9 * d if R is None else R
    return make_params(n, L=L, R=R, seed=seed, **world), d


# A conditional flood's step cap, in multiples of the travel-time floor.
MAX_FLOOD_FACTOR = 4.0


def lower_bound_experiment(
    params: WorldParams,
    d: float,
    trials: int = 10_000,
    seed: int | None = None,
    flood_cap: int | None = None,
) -> LowerBoundReport:
    """Estimate the corner-event probability and verify the travel-time
    floor on conditional floods.

    Each trial draws a fresh stationary population (via the same seeded
    stream the flood initialiser uses, so the tested positions are exactly
    the flood's starting positions).  When the event holds and the randomly
    chosen source is outside ``F``, the flood runs with a step cap of
    ``MAX_FLOOD_FACTOR`` times the floor ``(2d - R)/(2v)``; hitting the cap
    counts as satisfying the floor (the time is censored, not unknown).
    The zone map depends only on ``(n, L, R)``, so it is built once per
    experiment and shared by every flood.
    """
    if params.R > d:
        raise ValueError("the corner construction needs R <= d")
    if 3.0 * d > params.L:
        raise ValueError("the corner squares must fit inside the arena")
    if params.v <= 0.0:
        raise ValueError("the travel-time floor needs moving agents")
    if seed is None:
        seed = params.seed
    threshold = (2.0 * d - params.R) / (2.0 * params.v)
    max_steps = math.ceil(MAX_FLOOD_FACTOR * threshold) + 1
    zone_map = build_zone_map(params)
    hits = f_occupied = annulus_empty = floods = satisfied = 0
    conditional_times: list[int] = []
    # derived_seed(seed, 2, k) and its init stream's PCG64 state, for all k
    ks = np.arange(trials, dtype=np.uint32)
    trial_seeds = seedseq_words([*entropy_words(seed), 2, ks], 2).view("<u8")[:, 0]
    states = substream_states(trial_seeds, INIT_STREAM_INDEX)
    init_rng = np.random.Generator(np.random.PCG64(0))
    state = init_rng.bit_generator.state  # with no buffered uint32
    for k in range(trials):
        (s_hi, s_lo), (inc_hi, inc_lo) = states[k].tolist()
        state["state"] = {"state": s_hi << 64 | s_lo, "inc": inc_hi << 64 | inc_lo}
        init_rng.bit_generator.state = state
        pos = sample_stationary_positions(init_rng, params.n, params.L)
        corner = np.maximum(pos[:, 0], pos[:, 1])  # F is corner <= d, E <= 3d
        in_f = corner[corner <= 3.0 * d] <= d  # of the agents in E
        some_f = bool(in_f.any())
        empty_annulus = bool(in_f.all())  # nothing in E outside F
        f_occupied += some_f
        annulus_empty += empty_annulus
        hit = some_f and empty_annulus
        if not hit:
            continue
        hits += 1
        if flood_cap is not None and floods >= flood_cap:
            continue
        record = run_flood(
            replace(params, seed=int(trial_seeds[k])),
            source_rule=SOURCE_RANDOM,
            init_mode=APPROX_STATIONARY,
            zone_map=zone_map,
            max_steps=max_steps,
        )
        source_pos = pos[record.source_agent]
        if source_pos[0] <= d and source_pos[1] <= d:
            continue  # source inside F: the floor argument does not apply
        floods += 1
        t = record.flooding_time if not record.timed_out else max_steps
        conditional_times.append(t)
        if t >= threshold:
            satisfied += 1
    return LowerBoundReport(
        params=params,
        d=d,
        trials=trials,
        hits=hits,
        f_occupied=f_occupied,
        annulus_empty=annulus_empty,
        floods=floods,
        threshold=threshold,
        conditional_times=conditional_times,
        conditional_satisfied=satisfied,
        max_steps=max_steps,
    )


# ---------------------------------------------------------------------------
# stationarity validation
# ---------------------------------------------------------------------------

@dataclass
class StationarityReport:
    """Total-variation distances of pooled position histograms.

    ``tv_model`` compares the warmed-up population's pooled histogram to the
    exact per-bin masses; ``tv_init`` compares the ``approx-stationary``
    initialiser's pooled histogram to the warmed-up one.
    """

    params: WorldParams
    bins: int
    snapshots: int
    spacing: int
    warmup_steps: int
    tv_model: float
    tv_init: float | None
    histogram_warmup: np.ndarray = field(repr=False)
    histogram_approx: np.ndarray | None = field(repr=False)

    JSON_SKIP = ("histogram_warmup", "histogram_approx")
    to_json_dict = json_dict


def stationarity_report(
    params: WorldParams,
    bins: int = 20,
    snapshots: int = 200,
    spacing: int | None = None,
    warmup_steps: int | None = None,
    compare_approx: bool = True,
) -> StationarityReport:
    """Pool position histograms of a warmed-up population (and optionally of
    the ``approx-stationary`` initialiser) and measure total-variation
    distances."""
    if params.v <= 0.0:
        raise ValueError("stationarity validation needs moving agents")
    if warmup_steps is None:
        warmup_steps = math.ceil(10.0 * params.L / params.v)
    if spacing is None:
        spacing = math.ceil(params.L / params.v)
    reference = grid_cell_masses(params.L, bins)
    # each population is released before the next is built
    warm = init_population(params, WARMUP, warmup_steps)
    hist_warm = position_histogram(warm, bins, snapshots, spacing)
    del warm
    tv_model = total_variation(hist_warm, reference)
    hist_approx = None
    tv_init = None
    if compare_approx:
        approx = init_population(params, APPROX_STATIONARY)
        hist_approx = position_histogram(approx, bins, snapshots, spacing)
        tv_init = total_variation(hist_approx, hist_warm)
    return StationarityReport(
        params=params,
        bins=bins,
        snapshots=snapshots,
        spacing=spacing,
        warmup_steps=warmup_steps,
        tv_model=tv_model,
        tv_init=tv_init,
        histogram_warmup=hist_warm,
        histogram_approx=hist_approx,
    )
