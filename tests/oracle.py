"""Scalar reference implementations the tests compare the array code against.

The per-agent trip stepper (:func:`step_agent` on one :class:`AgentState`)
is the oracle of ``Population.step`` and ``init_population``: each agent
stepped alone on its own ``(seed, agent id)`` substream must end every step
in the state, and with the way-point events, that the population engine
gives it.  :func:`sample_stationary_positions` (a boolean row mask per
batch) and :func:`lower_bound_experiment` (two seed sequences and a fresh
generator per trial) are the direct forms of the package's sampler and
corner-trial loop, which must draw and report exactly what they do, and
:func:`informed_cells` (marking the cells of the uninformed agents) that of
the flood's progress row.  :class:`AgentTrajectory` replays one agent's
recorded way-point events (:func:`trajectory` builds it from a population
and its recorder), and :func:`count_turns`, which walks a window's events
one by one, is the oracle of the count by binary search in
``turn_statistics``.  The other helpers are single-point or all-pairs forms
of array code in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from mrwpflood.core import INIT_STREAM_INDEX, Point, WorldParams, derive_substream
from mrwpflood.experiments import MAX_FLOOD_FACTOR, LowerBoundReport, derived_seed
from mrwpflood.flooding import SOURCE_RANDOM, run_flood
from mrwpflood.mobility import (
    APPROX_STATIONARY,
    ARRIVAL,
    HEADING_VECTORS,
    ROLLOVER_CAP,
    TURN,
    Heading,
    Leg,
    Population,
    TrajectoryRecorder,
    TripEvent,
)
from mrwpflood.stationary import (
    REJECTION_CAP,
    _category_masses,
    _density_raw,
    destination_law,
    peak_spatial_density,
    sample_destinations,
    spatial_density,
)
from mrwpflood.zones import Cell, ZoneMap, boundary, build_zone_map


# ---------------------------------------------------------------------------
# the scalar trip stepper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentState:
    """Kinematic state of one agent.

    ``turn_point`` is the way-point the agent currently moves toward: the
    elbow of the path on the first leg, the destination itself on the
    second.
    """

    position: Point
    destination: Point
    leg: Leg
    heading: Heading
    turn_point: Point


def _axis_heading(delta: float, vertical: bool) -> Heading:
    if vertical:
        return Heading.NORTH if delta > 0 else Heading.SOUTH
    return Heading.EAST if delta > 0 else Heading.WEST


def build_trip(
    position: Point | tuple[float, float],
    destination: Point | tuple[float, float],
    vertical_first: bool,
) -> AgentState:
    """Assemble the agent state for a trip from ``position`` to
    ``destination`` along the chosen two-leg path.

    Destinations sharing a coordinate with the position give a single-leg
    trip that starts on the second leg; a destination equal to the position
    gives a zero-length trip that completes on the next step.
    """
    pos = Point(*position)
    dest = Point(*destination)
    dx = dest.x - pos.x
    dy = dest.y - pos.y
    if dx == 0.0 and dy == 0.0:
        return AgentState(pos, dest, Leg.SECOND, Heading.EAST, dest)
    if dx == 0.0:
        return AgentState(pos, dest, Leg.SECOND, _axis_heading(dy, True), dest)
    if dy == 0.0:
        return AgentState(pos, dest, Leg.SECOND, _axis_heading(dx, False), dest)
    if vertical_first:
        turn = Point(pos.x, dest.y)
        return AgentState(pos, dest, Leg.FIRST, _axis_heading(dy, True), turn)
    turn = Point(dest.x, pos.y)
    return AgentState(pos, dest, Leg.FIRST, _axis_heading(dx, False), turn)


def new_trip(
    position: Point | tuple[float, float], rng: np.random.Generator, L: float
) -> AgentState:
    """Draw a fresh trip: uniform destination, fair coin between the two
    Manhattan paths.  Fixed draw order: x, y, coin."""
    x = rng.random() * L
    y = rng.random() * L
    vertical_first = rng.random() < 0.5
    return build_trip(position, (x, y), vertical_first)


def _distance_to_waypoint(state: AgentState) -> float:
    if state.heading in (Heading.EAST, Heading.WEST):
        return abs(state.turn_point.x - state.position.x)
    return abs(state.turn_point.y - state.position.y)


def step_agent(
    state: AgentState,
    rng: np.random.Generator,
    v: float,
    L: float,
    step_index: int = 0,
) -> tuple[AgentState, list[TripEvent]]:
    """Advance one agent by one step of path budget ``v``.

    Returns the new state and the way-point events crossed, in order.  Event
    times are ``step_index + consumed/v``.  A way-point reached exactly at
    the end of the budget still fires its event and switches the state, so
    the next step departs in the new direction.
    """
    if v == 0.0:
        return state, []
    events: list[TripEvent] = []
    budget = v
    for _ in range(ROLLOVER_CAP):
        dist = _distance_to_waypoint(state)
        if dist > budget:
            vec = HEADING_VECTORS[state.heading]
            nx = min(max(state.position.x + vec[0] * budget, 0.0), L)
            ny = min(max(state.position.y + vec[1] * budget, 0.0), L)
            return replace(state, position=Point(nx, ny)), events
        budget -= dist
        t = step_index + (v - budget) / v
        if state.leg == Leg.FIRST:
            turn = state.turn_point
            heading = _axis_heading(
                state.destination.x - turn.x
                if state.heading in (Heading.NORTH, Heading.SOUTH)
                else state.destination.y - turn.y,
                vertical=state.heading in (Heading.EAST, Heading.WEST),
            )
            state = AgentState(
                turn, state.destination, Leg.SECOND, heading, state.destination
            )
            events.append(TripEvent(TURN, t, turn.x, turn.y, heading))
        else:
            pos = state.destination
            state = new_trip(pos, rng, L)
            events.append(TripEvent(ARRIVAL, t, pos.x, pos.y, state.heading))
        if budget == 0.0:
            return state, events
    raise RuntimeError("way-point rollover cap exceeded within one step")


def from_states(params: WorldParams, states: Sequence[AgentState]) -> Population:
    """A population holding ``states``, one per agent."""
    if len(states) != params.n:
        raise ValueError("need exactly n agent states")
    pos = np.array([s.position for s in states], dtype=float)
    dest = np.array([s.destination for s in states], dtype=float)
    turn = np.array([s.turn_point for s in states], dtype=float)
    leg = np.array([s.leg for s in states], dtype=np.int8)
    heading = np.array([s.heading for s in states], dtype=np.int8)
    return Population(params, pos, dest, turn, leg, heading)


def state_of(population: Population, i: int) -> AgentState:
    """Agent ``i`` of ``population`` as an :class:`AgentState`."""
    return AgentState(
        position=Point(*population.pos[i]),
        destination=Point(*population.dest[i]),
        leg=Leg(int(population.leg[i])),
        heading=Heading(int(population.heading[i])),
        turn_point=Point(*population.turn[i]),
    )


# ---------------------------------------------------------------------------
# the trajectory replay
# ---------------------------------------------------------------------------

@dataclass
class AgentTrajectory:
    """Event log of one agent, sufficient to reconstruct its polyline.

    Between consecutive events the agent moves in a straight axis-aligned
    line at speed ``v``, so positions at arbitrary (fractional) times follow
    from the last event at or before that time.
    """

    v: float
    L: float
    start: tuple[float, float]
    start_heading: Heading
    events: list[TripEvent]
    horizon: float  # latest time covered by the log

    def _anchor(self, t: float) -> tuple[float, float, float, Heading]:
        """(time, x, y, heading) of the last event at or before t."""
        lo, hi = 0, len(self.events)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.events[mid].time <= t:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return 0.0, self.start[0], self.start[1], self.start_heading
        ev = self.events[lo - 1]
        return ev.time, ev.x, ev.y, ev.heading_after

    def position_at(self, t: float) -> Point:
        if t < 0 or t > self.horizon:
            raise ValueError(f"time {t} outside the logged horizon {self.horizon}")
        t0, x, y, heading = self._anchor(t)
        vec = HEADING_VECTORS[heading]
        d = self.v * (t - t0)
        return Point(x + vec[0] * d, y + vec[1] * d)

    def pieces_in(self, t0: float, t1: float) -> list[tuple[Heading, float]]:
        """Constant-heading travel pieces covering (t0, t1], merged when the
        heading does not change across an event."""
        if t1 <= t0:
            return []
        if t0 < 0 or t1 > self.horizon:
            raise ValueError("window outside the logged horizon")
        _, _, _, heading = self._anchor(t0)
        times = [t0]
        headings = [heading]
        for ev in self.events:
            if t0 < ev.time < t1:
                times.append(ev.time)
                headings.append(ev.heading_after)
        times.append(t1)
        pieces: list[tuple[Heading, float]] = []
        for k in range(len(headings)):
            length = self.v * (times[k + 1] - times[k])
            if pieces and pieces[-1][0] == headings[k]:
                pieces[-1] = (headings[k], pieces[-1][1] + length)
            elif length > 0:
                pieces.append((headings[k], length))
        return pieces

    def turns_in(self, t0: float, t1: float) -> int:
        """Direction changes in (t0, t1]: every elbow way-point, plus each
        arrival whose fresh trip departs in a different direction."""
        if t0 < 0 or t1 > self.horizon:
            raise ValueError("window outside the logged horizon")
        count = 0
        _, _, _, prev = self._anchor(t0)
        for ev in self.events:
            if t0 < ev.time <= t1:
                if ev.heading_after != prev:
                    count += 1
                prev = ev.heading_after
            elif ev.time > t1:
                break
        return count


@dataclass(frozen=True)
class TurnWindowStats:
    """Turn count and longest centre-ward segment in one agent window."""

    agent: int
    t: int
    tau: int
    turns: int
    longest_good_segment: float


def count_turns(
    traj: AgentTrajectory, t: int, tau: int, agent: int = 0
) -> TurnWindowStats:
    """Turn statistics of one agent over the window (t, t+tau].

    A travel piece counts as centre-ward ("good") when it moves toward the
    centre half of the arena as judged from the window-start position:
    increasing x (resp. y) for an agent starting in the west (resp. south)
    half, decreasing for the other halves.  The longest good piece is the
    maximal merged single-direction run.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    t0, t1 = float(t), float(t + tau)
    start = traj.position_at(t0)
    east_good = start.x <= traj.L / 2
    north_good = start.y <= traj.L / 2
    good_headings = {
        Heading.EAST if east_good else Heading.WEST,
        Heading.NORTH if north_good else Heading.SOUTH,
    }
    longest = 0.0
    for heading, length in traj.pieces_in(t0, t1):
        if heading in good_headings:
            longest = max(longest, length)
    return TurnWindowStats(
        agent=agent,
        t=t,
        tau=tau,
        turns=traj.turns_in(t0, t1),
        longest_good_segment=longest,
    )



def trajectory(
    population: Population, recorder: TrajectoryRecorder, agent: int
) -> AgentTrajectory:
    """The replayable log of one agent of ``population`` watched by
    ``recorder``, up to the population's ``step_count``."""
    x, y, heading = recorder.start[agent]
    return AgentTrajectory(
        v=population.params.v,
        L=population.params.L,
        start=(x, y),
        start_heading=heading,
        events=recorder.events[agent],
        horizon=float(population.step_count),
    )


# ---------------------------------------------------------------------------
# single-point and all-pairs forms of array code
# ---------------------------------------------------------------------------

def sample_stationary_position(rng: np.random.Generator, L: float) -> Point:
    """Draw one position from the stationary density (rejection sampling)."""
    fmax = peak_spatial_density(L)
    for _ in range(REJECTION_CAP):
        x = rng.random() * L
        y = rng.random() * L
        if rng.random() * fmax <= spatial_density(x, y, L):
            return Point(x, y)
    raise RuntimeError("rejection sampler exceeded its iteration cap")


def sample_destination(
    origin: Point | tuple[float, float], rng: np.random.Generator, L: float
) -> Point:
    """Draw a single destination from the law at ``origin``."""
    destination_law(origin, L)  # validates the origin, incl. the corner rule
    origins = np.asarray([origin], dtype=float)
    dest, _ = sample_destinations(origins, rng, L)
    return Point(float(dest[0, 0]), float(dest[0, 1]))


def destination_categories(
    origins: np.ndarray, u: np.ndarray, L: float
) -> np.ndarray:
    """The categories ``sample_destinations`` draws with uniforms ``u``: the
    eight masses stacked as a ``(k, 8)`` array, its row ``cumsum`` divided by
    the row total, and the count of running sums below ``u``."""
    masses = np.stack(_category_masses(origins[:, 0], origins[:, 1], L), axis=-1)
    cum = np.cumsum(masses, axis=-1)
    cum /= cum[:, -1:]
    return (u[:, None] > cum).sum(axis=1)


def quadrant_masses(law) -> tuple[float, float, float, float]:
    """(south-west, north-west, north-east, south-east) masses of a
    ``DestinationLaw``."""
    x0, y0 = law.origin
    L = law.L
    return (
        law.density_sw * x0 * y0,
        law.density_nw * x0 * (L - y0),
        law.density_ne * (L - x0) * (L - y0),
        law.density_se * (L - x0) * y0,
    )


def total_mass(law) -> float:
    """Total probability of a ``DestinationLaw``: its four quadrant masses
    and its cross segments."""
    return sum(quadrant_masses(law)) + law.cross.total


def brute_force_pairs(positions: np.ndarray, radius: float) -> np.ndarray:
    """Reference all-pairs query: unordered pairs (i < j) with distance at
    most ``radius``, in the same lexicographic order as ``pairs_within``."""
    diff = positions[:, None, :] - positions[None, :, :]
    close = (diff**2).sum(axis=2) <= radius * radius
    i, j = np.nonzero(np.triu(close, k=1))
    return np.stack([i, j], axis=1)


def band_pairs(index, pts: np.ndarray, mask: np.ndarray, radius: float):
    """Yield (query index, candidate agent index) arrays, one per chunk of
    ``NeighborIndex._pairs``: each of its slots expanded into one pair per
    candidate, the slot's point repeated."""
    for cand, point, starts in index._pairs(pts, mask, radius):
        yield np.repeat(point, np.diff(starts, append=len(cand))), cand


def within(positions: np.ndarray, pts: np.ndarray, query, cand, radius: float):
    """Whether agent ``cand[k]`` lies within ``radius`` of point
    ``pts[query[k]]`` (closed ball), for each pair k, coordinate by
    coordinate."""
    dx = positions[cand, 0] - pts[query, 0]
    dy = positions[cand, 1] - pts[query, 1]
    return dx * dx + dy * dy <= radius * radius


def ball_query(index, point: Sequence[float], radius: float) -> np.ndarray:
    """Sorted indices of all agents of a ``NeighborIndex`` within
    ``radius`` (closed ball) of one point, found by the index's own band
    search: the single-point form of ``NeighborIndex.any_within``."""
    index._check_radius(radius)
    pts = np.asarray(point, dtype=float).reshape(1, 2)
    everyone = np.ones(len(index.positions), dtype=bool)
    found = [np.empty(0, dtype=np.int64)]
    for query, cand in band_pairs(index, pts, everyone, radius):
        found.append(cand[within(index.positions, pts, query, cand, radius)])
    return np.sort(np.concatenate(found))


def pairs_within(index, radius: float) -> np.ndarray:
    """All unordered pairs (i < j) of a ``NeighborIndex``'s agents at
    distance at most ``radius``, found by the index's own band search, in
    lexicographic order: the all-pairs form of ``NeighborIndex.any_within``."""
    index._check_radius(radius)
    pos = index.positions
    everyone = np.ones(len(pos), dtype=bool)
    found = [np.empty((0, 2), dtype=np.int64)]
    for query, cand in band_pairs(index, pos, everyone, radius):
        keep = cand > query
        query, cand = query[keep], cand[keep]
        hit = within(pos, pos, query, cand, radius)
        found.append(np.stack([query[hit], cand[hit]], axis=1))
    pairs = np.concatenate(found)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def informed_cells(population: Population, state, zone_map: ZoneMap) -> tuple[np.ndarray, int]:
    """The progress row's cell mask and suburb count, by marking the cells
    of the uninformed agents: the direct form of ``flooding.informed_cells``."""
    m = zone_map.m
    i, j = zone_map.cell_index(population.pos)
    codes = i * m + j
    blocked = np.zeros(m * m, dtype=bool)
    blocked[codes[~state.informed]] = True
    central_flat = zone_map.central.reshape(-1)
    cells = (central_flat & ~blocked).reshape(m, m)
    suburb_informed = int((~central_flat[codes] & state.informed).sum())
    return cells, suburb_informed


def expansion_margin(cells: np.ndarray, zone_map: ZoneMap) -> float:
    """``|boundary(B)| - sqrt(min(|B|, |CZ| - |B|))`` for one subset mask:
    the single-subset form of ``zones.check_expansion``'s margins."""
    size = int(cells.sum())
    return int(boundary(cells, zone_map).sum()) - math.sqrt(
        min(size, zone_map.cz_size - size)
    )


def cell_center(zone_map: ZoneMap, cell: Cell) -> tuple[float, float]:
    """Centre point of a grid cell."""
    return ((cell[0] + 0.5) * zone_map.ell, (cell[1] + 0.5) * zone_map.ell)


# ---------------------------------------------------------------------------
# the direct sampler and corner-trial loop
# ---------------------------------------------------------------------------

def sample_stationary_positions(
    rng: np.random.Generator, count: int, L: float
) -> np.ndarray:
    """``stationary.sample_stationary_positions`` with the same batches and
    draws, keeping each batch's accepted rows by a 2-D boolean row mask."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out = np.empty((count, 2), dtype=float)
    filled = 0
    attempts = 0
    cap = max(REJECTION_CAP, 10 * count)
    fmax = peak_spatial_density(L)
    while filled < count:
        batch = max(64, 2 * (count - filled))
        attempts += batch
        if attempts > cap:
            raise RuntimeError("rejection sampler exceeded its iteration cap")
        cand = rng.random((batch, 2)) * L
        u = rng.random(batch)
        keep = cand[u * fmax <= _density_raw(cand[:, 0], cand[:, 1], L)]
        take = min(len(keep), count - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def lower_bound_experiment(
    params: WorldParams,
    d: float,
    trials: int = 10_000,
    seed: int | None = None,
    flood_cap: int | None = None,
) -> LowerBoundReport:
    """``experiments.lower_bound_experiment`` trial by trial: each trial's
    seed from ``derived_seed``, its stream from ``derive_substream`` and
    the corner test on every position."""
    if seed is None:
        seed = params.seed
    threshold = (2.0 * d - params.R) / (2.0 * params.v)
    max_steps = math.ceil(MAX_FLOOD_FACTOR * threshold) + 1
    zone_map = build_zone_map(params)
    hits = f_occupied = annulus_empty = floods = satisfied = 0
    conditional_times: list[int] = []
    for k in range(trials):
        trial_seed = derived_seed(seed, 2, k)
        init_rng = derive_substream(trial_seed, INIT_STREAM_INDEX)
        pos = sample_stationary_positions(init_rng, params.n, params.L)
        in_f = (pos[:, 0] <= d) & (pos[:, 1] <= d)
        in_e = (pos[:, 0] <= 3.0 * d) & (pos[:, 1] <= 3.0 * d)
        some_f = bool(in_f.any())
        empty_annulus = not bool((in_e & ~in_f).any())
        f_occupied += some_f
        annulus_empty += empty_annulus
        hit = some_f and empty_annulus
        if not hit:
            continue
        hits += 1
        if flood_cap is not None and floods >= flood_cap:
            continue
        record = run_flood(
            replace(params, seed=trial_seed),
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
