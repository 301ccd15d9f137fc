"""Discrete-time Manhattan random way-point mobility engine.

Each agent owns a current trip: a destination drawn uniformly in the square
and one of the two axis-aligned two-leg paths to it (vertical first or
horizontal first, fair coin).  Every step the agent advances exactly ``v``
length units along the remaining path; when a way-point falls inside a step
the leftover budget is spent in the new direction within the same step, and
on arrival a fresh trip starts immediately.

The :class:`Population` engine steps all agents at once: a vectorised
fast path handles the common no-way-point case and defers way-point
handling to the scalar stepper (:func:`step_agent`), which also serves as
the test oracle.  Each agent draws trip randomness from its own
``(seed, agent id)`` substream, so stepping agents together or one at a
time, in any order, yields bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .core import INIT_STREAM_INDEX, Point, WorldParams, derive_substream
from .stationary import sample_destinations, sample_stationary_positions

#: Hard cap on way-point events processed for one agent within one step.
ROLLOVER_CAP = 10_000

WARMUP = "warmup"
APPROX_STATIONARY = "approx-stationary"


class Leg(IntEnum):
    FIRST = 0
    SECOND = 1


class Heading(IntEnum):
    EAST = 0
    NORTH = 1
    WEST = 2
    SOUTH = 3


#: Unit direction vector per heading, indexed by Heading value.
HEADING_VECTORS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

TURN = "TURN"
ARRIVAL = "ARRIVAL"


@dataclass(frozen=True)
class TripEvent:
    """A direction-relevant way-point crossed during stepping.

    ``time`` is fractional: step index plus the fraction of the step budget
    consumed when the way-point was reached.  ``heading_after`` is the
    heading the agent leaves the way-point with.
    """

    kind: str
    time: float
    x: float
    y: float
    heading_after: Heading


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


# ---------------------------------------------------------------------------
# trajectory recording and turn-count statistics
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


class TrajectoryRecorder:
    """Collects way-point events for a chosen subset of agents."""

    def __init__(self, agents: Iterable[int]):
        self.watched = sorted(set(agents))
        self._events: dict[int, list[TripEvent]] = {a: [] for a in self.watched}
        self._start: dict[int, tuple[float, float, Heading]] = {}
        self.horizon = 0.0

    def mark_start(self, population: "Population") -> None:
        for a in self.watched:
            self._start[a] = (
                float(population.pos[a, 0]),
                float(population.pos[a, 1]),
                Heading(int(population.heading[a])),
            )

    def record(self, agent: int, events: list[TripEvent]) -> None:
        if agent in self._events:
            self._events[agent].extend(events)

    def trajectory(self, agent: int, v: float, L: float) -> AgentTrajectory:
        x, y, heading = self._start[agent]
        return AgentTrajectory(
            v=v,
            L=L,
            start=(x, y),
            start_heading=heading,
            events=self._events[agent],
            horizon=self.horizon,
        )


# ---------------------------------------------------------------------------
# population engine
# ---------------------------------------------------------------------------

class Population:
    """Structure-of-arrays state of all agents plus their substreams."""

    def __init__(
        self,
        params: WorldParams,
        pos: np.ndarray,
        dest: np.ndarray,
        turn: np.ndarray,
        leg: np.ndarray,
        heading: np.ndarray,
    ):
        n = params.n
        for arr, width in ((pos, 2), (dest, 2), (turn, 2)):
            if arr.shape != (n, width):
                raise ValueError("population arrays must have shape (n, 2)")
        self.params = params
        self.pos = np.ascontiguousarray(pos, dtype=float)
        self.dest = np.ascontiguousarray(dest, dtype=float)
        self.turn = np.ascontiguousarray(turn, dtype=float)
        self.leg = np.ascontiguousarray(leg, dtype=np.int8)
        self.heading = np.ascontiguousarray(heading, dtype=np.int8)
        self.rngs = [derive_substream(params.seed, i) for i in range(n)]
        self.step_count = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_states(cls, params: WorldParams, states: Sequence[AgentState]) -> "Population":
        if len(states) != params.n:
            raise ValueError("need exactly n agent states")
        pos = np.array([s.position for s in states], dtype=float)
        dest = np.array([s.destination for s in states], dtype=float)
        turn = np.array([s.turn_point for s in states], dtype=float)
        leg = np.array([s.leg for s in states], dtype=np.int8)
        heading = np.array([s.heading for s in states], dtype=np.int8)
        return cls(params, pos, dest, turn, leg, heading)

    def state_of(self, i: int) -> AgentState:
        return AgentState(
            position=Point(*self.pos[i]),
            destination=Point(*self.dest[i]),
            leg=Leg(int(self.leg[i])),
            heading=Heading(int(self.heading[i])),
            turn_point=Point(*self.turn[i]),
        )

    def _set_state(self, i: int, s: AgentState) -> None:
        self.pos[i] = s.position
        self.dest[i] = s.destination
        self.turn[i] = s.turn_point
        self.leg[i] = s.leg
        self.heading[i] = s.heading

    # -- stepping -----------------------------------------------------------

    def step(self, recorder: TrajectoryRecorder | None = None) -> None:
        """Advance every agent by one step.

        Agents that stay on their current leg move in one vectorised pass;
        the rest go through the scalar :func:`step_agent` with their own
        substream, so the result equals stepping each agent alone.
        """
        v, L = self.params.v, self.params.L
        if v > 0.0:
            pos = self.pos
            horizontal = (self.heading == Heading.EAST) | (self.heading == Heading.WEST)
            drive = np.where(
                horizontal, self.turn[:, 0] - pos[:, 0], self.turn[:, 1] - pos[:, 1]
            )
            fast = np.abs(drive) > v
            move = np.where(fast, np.sign(drive) * v, 0.0)
            np.add(pos[:, 0], np.where(horizontal, move, 0.0), out=pos[:, 0])
            np.add(pos[:, 1], np.where(horizontal, 0.0, move), out=pos[:, 1])
            np.clip(pos, 0.0, L, out=pos)
            for a in np.flatnonzero(~fast).tolist():
                state, events = step_agent(
                    self.state_of(a), self.rngs[a], v, L, self.step_count
                )
                self._set_state(a, state)
                if recorder is not None:
                    recorder.record(a, events)
        self.step_count += 1
        if recorder is not None:
            recorder.horizon = float(self.step_count)


def init_population(
    params: WorldParams,
    mode: str = APPROX_STATIONARY,
    warmup_steps: int | None = None,
) -> Population:
    """Build a population in (approximate) stationarity.

    ``warmup`` places agents uniformly with fresh trips and runs
    ``warmup_steps`` steps (default ceil(10 L / v)) before time zero; it is
    the reference initialiser.  ``approx-stationary`` draws the stationary
    state directly: positions from the exact stationary density,
    destinations from the exact destination law (cross destinations put the
    agent on its second leg), and the path to a quadrant destination from
    its exact conditional law, vertical first with probability
    ``wv / (wv + wh)``, where ``wv`` (``wh``) is the distance from the
    position back to the arena edge behind it along the vertical
    (horizontal) first leg.  The joint law of position, leg, heading and
    destination is exact; the mode keeps its historical name.
    """
    n, L = params.n, params.L
    init_rng = derive_substream(params.seed, INIT_STREAM_INDEX)
    if mode == WARMUP:
        if warmup_steps is None:
            if params.v == 0.0:
                raise ValueError("warmup requires v > 0")
            warmup_steps = math.ceil(10.0 * L / params.v)
        if warmup_steps < 1:
            raise ValueError("warmup needs at least one step")
        pos = init_rng.random((n, 2)) * L
        states = [new_trip(Point(*pos[i]), init_rng, L) for i in range(n)]
        population = Population.from_states(params, states)
        for _ in range(warmup_steps):
            population.step()
        population.step_count = 0
        return population
    if mode == APPROX_STATIONARY:
        if warmup_steps is not None:
            raise ValueError("warmup_steps only applies to warmup mode")
        pos = sample_stationary_positions(init_rng, n, L)
        dest, _ = sample_destinations(pos, init_rng, L)
        # A trip through pos on its first leg started behind pos along that
        # leg; uniform starts weight each path by the length behind pos
        # (Palm calculus).  Cross destinations share a coordinate with pos,
        # so build_trip ignores their coin.
        x0, y0 = pos[:, 0], pos[:, 1]
        wv = np.where(dest[:, 1] > y0, y0, L - y0)
        wh = np.where(dest[:, 0] > x0, x0, L - x0)
        vertical = init_rng.random(n) * (wv + wh) < wv
        states = [
            build_trip(Point(*pos[i]), Point(*dest[i]), bool(vertical[i]))
            for i in range(n)
        ]
        return Population.from_states(params, states)
    raise ValueError(f"unknown init mode: {mode!r}")


def position_histogram(
    population: Population,
    bins: int,
    snapshots: int,
    spacing: int,
    recorder: TrajectoryRecorder | None = None,
) -> np.ndarray:
    """Pooled normalised ``bins x bins`` histogram over periodic snapshots.

    Takes the current positions, then advances ``spacing`` steps between
    each of the remaining ``snapshots - 1`` snapshots.
    """
    L = population.params.L
    counts = np.zeros((bins, bins), dtype=np.int64)
    edges = np.linspace(0.0, L, bins + 1)
    for snap in range(snapshots):
        if snap > 0:
            for _ in range(spacing):
                population.step(recorder=recorder)
        h, _, _ = np.histogram2d(
            population.pos[:, 0], population.pos[:, 1], bins=[edges, edges]
        )
        counts += h.astype(np.int64)
    return counts / counts.sum()
