"""Trip construction, stepping kinematics, turn statistics, population engine."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrwpflood import mobility
from mrwpflood.core import INIT_STREAM_INDEX, Point, WorldParams, derive_substream
from mrwpflood.experiments import _turn_counter, make_params, total_variation
from mrwpflood.mobility import (
    APPROX_STATIONARY,
    ARRIVAL,
    TURN,
    WARMUP,
    Heading,
    Leg,
    Population,
    TrajectoryRecorder,
    TripEvent,
    _trips,
    init_population,
    position_histogram,
)
from mrwpflood.stationary import (
    grid_cell_masses,
    sample_destinations,
    sample_stationary_positions,
)
from oracle import (
    AgentState,
    AgentTrajectory,
    build_trip,
    count_turns,
    from_states,
    new_trip,
    state_of,
    step_agent,
    trajectory,
)


def params(n=10, L=10.0, R=2.0, v=0.25, seed=0, **kw):
    return WorldParams(n=n, L=L, R=R, v=v, seed=seed, **kw)


class TestBuildTrip:
    def test_vertical_first(self):
        s = build_trip((1.0, 2.0), (4.0, 7.0), vertical_first=True)
        assert s.leg == Leg.FIRST
        assert s.heading == Heading.NORTH
        assert s.turn_point == Point(1.0, 7.0)
        assert s.destination == Point(4.0, 7.0)

    def test_horizontal_first(self):
        s = build_trip((1.0, 2.0), (4.0, 7.0), vertical_first=False)
        assert s.leg == Leg.FIRST
        assert s.heading == Heading.EAST
        assert s.turn_point == Point(4.0, 2.0)

    def test_westward_southward(self):
        s = build_trip((4.0, 7.0), (1.0, 2.0), vertical_first=False)
        assert s.heading == Heading.WEST
        s2 = build_trip((4.0, 7.0), (1.0, 2.0), vertical_first=True)
        assert s2.heading == Heading.SOUTH

    def test_shared_x_is_single_leg(self):
        s = build_trip((1.0, 2.0), (1.0, 9.0), vertical_first=False)
        assert s.leg == Leg.SECOND
        assert s.heading == Heading.NORTH
        assert s.turn_point == s.destination

    def test_shared_y_is_single_leg(self):
        s = build_trip((1.0, 2.0), (8.0, 2.0), vertical_first=True)
        assert s.leg == Leg.SECOND
        assert s.heading == Heading.EAST

    def test_zero_length_trip(self):
        s = build_trip((1.0, 2.0), (1.0, 2.0), vertical_first=True)
        assert s.leg == Leg.SECOND
        assert s.turn_point == s.destination == Point(1.0, 2.0)

    def test_array_rule_matches_scalar(self):
        # integer lattice: many shared coordinates and zero-length trips
        rng = np.random.default_rng(0)
        pos = rng.integers(0, 4, (400, 2)).astype(float)
        dest = rng.integers(0, 4, (400, 2)).astype(float)
        vertical = rng.random(400) < 0.5
        turn, leg, heading = _trips(pos, dest, vertical)
        for i in range(400):
            s = build_trip(pos[i], dest[i], bool(vertical[i]))
            assert Point(*turn[i]) == s.turn_point
            assert (leg[i], heading[i]) == (s.leg, s.heading)


class TestStepAgent:
    def test_zero_speed_freezes(self):
        s = build_trip((1.0, 2.0), (4.0, 7.0), True)
        out, events = step_agent(s, derive_substream(0, 0), 0.0, 10.0)
        assert out == s and events == []

    def test_plain_advance(self):
        s = build_trip((0.0, 0.0), (0.5, 0.25), vertical_first=False)
        out, events = step_agent(s, derive_substream(0, 0), 0.25, 10.0)
        assert out.position == Point(0.25, 0.0)
        assert events == []
        assert out.leg == Leg.FIRST

    def test_waypoint_reached_exactly_at_budget_end_switches(self):
        # zero leftover: the elbow fires its event and the state departs
        # in the new direction on the next step
        s = build_trip((0.0, 0.0), (0.5, 0.25), vertical_first=False)
        s, _ = step_agent(s, derive_substream(0, 0), 0.25, 10.0)
        s, events = step_agent(s, derive_substream(0, 0), 0.25, 10.0, step_index=1)
        assert s.position == Point(0.5, 0.0)
        assert s.leg == Leg.SECOND
        assert s.heading == Heading.NORTH
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == TURN
        assert ev.time == 2.0  # step 1, full budget consumed
        assert (ev.x, ev.y) == (0.5, 0.0)
        assert ev.heading_after == Heading.NORTH

    def test_arrival_draws_fresh_trip(self):
        s = build_trip((0.0, 0.0), (0.5, 0.25), vertical_first=False)
        rng = derive_substream(0, 0)
        for k in range(2):
            s, _ = step_agent(s, rng, 0.25, 10.0, step_index=k)
        s, events = step_agent(s, rng, 0.25, 10.0, step_index=2)
        assert events[0].kind == ARRIVAL
        assert events[0].time == 3.0
        assert (events[0].x, events[0].y) == (0.5, 0.25)
        # fresh trip: destination drawn uniformly, not the old one
        assert s.destination != Point(0.5, 0.25) or s.leg == Leg.SECOND

    def test_turn_mid_step(self):
        # elbow v/2 into the budget: remaining v/2 continues north
        s = build_trip((0.0, 0.0), (0.125, 1.0), vertical_first=False)
        out, events = step_agent(s, derive_substream(0, 0), 0.25, 10.0)
        assert len(events) == 1
        assert events[0].kind == TURN
        assert events[0].time == 0.5
        assert out.position == Point(0.125, 0.125)
        assert out.heading == Heading.NORTH

    def test_multiple_waypoints_in_one_step(self):
        # v far exceeds the whole trip: arrival rolls straight into the next
        # trip within the same step
        s = build_trip((5.0, 5.0), (5.2, 5.1), vertical_first=False)
        out, events = step_agent(s, derive_substream(0, 1), 2.0, 10.0)
        kinds = [e.kind for e in events]
        assert TURN in kinds and ARRIVAL in kinds
        assert kinds.index(TURN) < kinds.index(ARRIVAL)
        assert len(events) >= 2

    def test_event_times_increase_within_step(self):
        s = build_trip((5.0, 5.0), (5.2, 5.1), vertical_first=True)
        _, events = step_agent(s, derive_substream(0, 2), 3.0, 10.0)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0.0 < t <= 1.0 for t in times)

    @given(
        st.floats(0.01, 9.99),
        st.floats(0.01, 9.99),
        st.floats(0.01, 9.99),
        st.floats(0.01, 9.99),
        st.booleans(),
        st.floats(0.01, 3.0),
        st.integers(0, 2**31),
    )
    @settings(max_examples=200)
    def test_path_length_is_exactly_the_budget(self, x0, y0, xd, yd, coin, v, key):
        # Manhattan distance walked in one step always equals v (the arena
        # is large enough here that clamping never engages mid-trip)
        s = build_trip((x0, y0), (xd, yd), coin)
        rng = derive_substream(key, 0)
        L = 10.0
        walked = 0.0
        prev = s.position
        out, events = step_agent(s, rng, v, L)
        for ev in events:
            walked += abs(ev.x - prev.x) + abs(ev.y - prev.y)
            prev = Point(ev.x, ev.y)
        walked += abs(out.position.x - prev.x) + abs(out.position.y - prev.y)
        assert walked == pytest.approx(v, rel=1e-9)


class TestTrajectory:
    def straight(self, v=1.0, L=10.0):
        return AgentTrajectory(
            v=v, L=L, start=(1.0, 1.0), start_heading=Heading.EAST,
            events=[], horizon=8.0,
        )

    def test_position_interpolation(self):
        traj = self.straight()
        assert traj.position_at(0.0) == Point(1.0, 1.0)
        assert traj.position_at(2.5) == Point(3.5, 1.0)

    def test_position_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            self.straight().position_at(9.0)
        with pytest.raises(ValueError):
            self.straight().position_at(-0.5)

    def test_straight_window_has_no_turns(self):
        traj = self.straight()
        stats = count_turns(traj, t=0, tau=4)
        assert stats.turns == 0
        # heading east from the west half moves centre-ward the whole window
        assert stats.longest_good_segment == pytest.approx(4.0)

    def test_outward_straight_window_has_no_good_segment(self):
        traj = AgentTrajectory(
            v=1.0, L=10.0, start=(2.0, 2.0), start_heading=Heading.WEST,
            events=[], horizon=8.0,
        )
        stats = count_turns(traj, t=0, tau=4)
        assert stats.turns == 0
        assert stats.longest_good_segment == 0.0

    def zigzag(self):
        # unit speed; turns at t = 1, 2, 3 with alternating headings
        events = [
            TripEvent(TURN, 1.0, 2.0, 1.0, Heading.NORTH),
            TripEvent(TURN, 2.0, 2.0, 2.0, Heading.EAST),
            TripEvent(TURN, 3.0, 3.0, 2.0, Heading.NORTH),
        ]
        return AgentTrajectory(
            v=1.0, L=10.0, start=(1.0, 1.0), start_heading=Heading.EAST,
            events=events, horizon=5.0,
        )

    def test_zigzag_counts_three_turns(self):
        traj = self.zigzag()
        assert traj.turns_in(0.0, 5.0) == 3
        stats = count_turns(traj, t=0, tau=5)
        assert stats.turns == 3

    def test_window_boundaries_are_half_open(self):
        traj = self.zigzag()
        # (1, 3]: the events at t = 2, 3 count, the one exactly at t = 1 not
        assert traj.turns_in(1.0, 3.0) == 2

    def test_arrival_without_direction_change_is_not_a_turn(self):
        events = [TripEvent(ARRIVAL, 1.0, 2.0, 1.0, Heading.EAST)]
        traj = AgentTrajectory(
            v=1.0, L=10.0, start=(1.0, 1.0), start_heading=Heading.EAST,
            events=events, horizon=3.0,
        )
        assert traj.turns_in(0.0, 3.0) == 0

    def test_pieces_merge_across_same_heading_events(self):
        events = [TripEvent(ARRIVAL, 1.0, 2.0, 1.0, Heading.EAST)]
        traj = AgentTrajectory(
            v=1.0, L=10.0, start=(1.0, 1.0), start_heading=Heading.EAST,
            events=events, horizon=3.0,
        )
        pieces = traj.pieces_in(0.0, 3.0)
        assert pieces == [(Heading.EAST, pytest.approx(3.0))]

    def test_zigzag_longest_good_segment(self):
        traj = self.zigzag()
        # agent starts in the south-west quarter: east and north are good;
        # every piece has length 1 except the final north run (t in (3, 5])
        stats = count_turns(traj, t=0, tau=5)
        assert stats.longest_good_segment == pytest.approx(2.0)

    def test_good_segment_never_exceeds_window_budget(self):
        traj = self.zigzag()
        for t in range(0, 3):
            for tau in range(1, 5 - t):
                stats = count_turns(traj, t=t, tau=tau)
                assert stats.longest_good_segment <= traj.v * tau + 1e-12

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            count_turns(self.straight(), t=0, tau=0)

    def test_binary_search_count_matches_replay(self):
        # no events; events exactly on window ends (the zigzag's integer
        # times); an arrival that keeps its heading
        arrival = AgentTrajectory(
            v=1.0, L=10.0, start=(1.0, 1.0), start_heading=Heading.EAST,
            events=[TripEvent(ARRIVAL, 1.0, 2.0, 1.0, Heading.EAST)], horizon=3.0,
        )
        for traj in (self.straight(), self.zigzag(), arrival):
            count = _turn_counter(traj.start_heading, traj.events)
            horizon = int(traj.horizon)
            for t in range(horizon):
                for tau in range(1, horizon - t + 1):
                    assert count(t, tau) == count_turns(traj, t, tau).turns, (t, tau)


def oracle_init(p, mode, warmup_steps=None):
    """The per-agent oracle of ``init_population``: the same ``init_rng``
    draws, one :func:`build_trip` or :func:`new_trip` per agent, and in
    warmup mode ``warmup_steps`` scalar steps of each agent on its own
    substream.  Returns the agent states and the substreams."""
    init_rng = derive_substream(p.seed, INIT_STREAM_INDEX)
    rngs = [derive_substream(p.seed, i) for i in range(p.n)]
    if mode == WARMUP:
        pos = init_rng.random((p.n, 2)) * p.L
        states = [new_trip(Point(*pos[i]), init_rng, p.L) for i in range(p.n)]
        for k in range(warmup_steps):
            for i in range(p.n):
                states[i], _ = step_agent(states[i], rngs[i], p.v, p.L, k)
        return states, rngs
    pos = sample_stationary_positions(init_rng, p.n, p.L)
    dest, _ = sample_destinations(pos, init_rng, p.L)
    x0, y0 = pos[:, 0], pos[:, 1]
    wv = np.where(dest[:, 1] > y0, y0, p.L - y0)
    wh = np.where(dest[:, 0] > x0, x0, p.L - x0)
    vertical = init_rng.random(p.n) * (wv + wh) < wv
    states = [
        build_trip(Point(*pos[i]), Point(*dest[i]), bool(vertical[i]))
        for i in range(p.n)
    ]
    return states, rngs


ORACLE_CASES = [  # n, L, v, most way-points of one agent in one step, init
    (101, 20.0, 0.5, 1, APPROX_STATIONARY),
    (200, 10.0, 3.7, 2, APPROX_STATIONARY),
    (2000, 44.7, 0.2, 1, APPROX_STATIONARY),
    (300, 5.0, 11.0, 6, APPROX_STATIONARY),  # several arrivals per step
    (400, 20.0, 0.9, 1, WARMUP),
]


def oracle_case_id(case):
    """Approx-stationary cases are named by their numbers alone."""
    *numbers, mode = case
    name = "-".join(map(str, numbers))
    return name if mode == APPROX_STATIONARY else f"{mode}-{name}"


def assert_velocity_cached(pop):
    """``pop.vel`` must equal ``HEADING_VECTORS[heading] * v`` bit for bit."""
    want = mobility.HEADING_VECTORS[pop.heading] * pop.params.v
    assert np.array_equal(pop.vel.view(np.uint64), want.view(np.uint64))


def step_beside_oracle(pop, states, rngs, steps):
    """Step ``pop`` and, beside it, each agent's oracle state on its own
    substream.  Every state and the cached velocity must match after every
    step, and every third agent's recorded way-point events must equal the
    oracle's, in order.  Returns the most events one agent crossed in one
    step."""
    p = pop.params
    rec = TrajectoryRecorder(pop, range(0, p.n, 3))
    logs = {a: [] for a in rec.events}
    most = 0
    for k in range(steps):
        pop.step(recorder=rec)
        for i in range(p.n):
            states[i], events = step_agent(states[i], rngs[i], p.v, p.L, k)
            most = max(most, len(events))
            if i in logs:
                logs[i].extend(events)
        assert [state_of(pop, i) for i in range(p.n)] == states, k
        assert_velocity_cached(pop)
    for a, events in logs.items():
        assert rec.events[a] == events, a
    assert sum(map(len, logs.values())) > 0
    return most


def edge_states(L, v):
    """Agents on the arena edges (and at -0.0), heading along them and into
    the arena, with their next way-point exactly ``v`` away or one ulp
    further, on a trip that ends there or turns there into the arena."""
    edges = [
        (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, L), (L, 0.0), (L, L),
        (-0.0, 5.0), (0.0, 3.7), (L, 5.0), (5.0, -0.0), (6.1, 0.0), (5.0, L),
        (L - v, L), (0.0, v),
    ]

    def inside(point):
        return all(0.0 <= c <= L for c in point)

    states = []
    for x, y in edges:
        for heading in Heading:
            step = mobility.HEADING_VECTORS[heading]
            for d in (v, np.nextafter(v, np.inf)):
                way = (x + step[0] * d, y + step[1] * d)
                if not inside(way):
                    continue
                states.append(build_trip((x, y), way, False))
                elbow = (way[0] + step[1] * 1.5, way[1] + step[0] * 1.5)
                if not inside(elbow):
                    elbow = (way[0] - step[1] * 1.5, way[1] - step[0] * 1.5)
                states.append(build_trip((x, y), elbow, heading & 1 == 1))
    return states


def rounding_states(L, v):
    """Agents fl(k v) and one ulp either side of it from their way-point,
    on coordinates of several magnitudes, heading along either axis toward
    the middle of an arena of side ``L``."""
    states = []
    for k in (1, 2, 3, 7, 50, 400):
        for x in (0.7, 3.3, 77.7, 512.25, 999.1):
            sign = 1.0 if x < L / 2 else -1.0
            t0 = x + sign * (k * v)
            for t in (np.nextafter(t0, -np.inf), t0, np.nextafter(t0, np.inf)):
                if not 0.0 <= t <= L:
                    continue
                y = L - x
                states.append(build_trip((x, y), (t, y), False))  # east-west
                states.append(build_trip((y, x), (y, t), True))  # north-south
                # an elbow, turning into the arena
                elbow_y = y + 1.5 if y < L / 2 else y - 1.5
                states.append(build_trip((x, y), (t, elbow_y), False))
    return states


def lattice_states(p):
    """First trips between points of the integer lattice on [0, 10]^2, one
    in 50 of zero length."""
    rng = np.random.default_rng(p.seed)
    ends = rng.integers(0, 11, (p.n, 4)).astype(float)
    ends[::50, 2:] = ends[::50, :2]
    return [
        build_trip(ends[i, :2], ends[i, 2:], bool(rng.random() < 0.5))
        for i in range(p.n)
    ]


OFF_ARENA_STATES = [
    build_trip((-3.0, 4.0), (6.0, 4.0), False),
    build_trip((13.0, 4.0), (2.0, 4.0), False),
    build_trip((5.0, -2.0), (5.0, 7.0), True),
    build_trip((-5.0, 3.0), (2.0, 8.0), True),  # elbow off the arena
    build_trip((4.0, 3.0), (-5.0, 6.0), False),  # an elbow and a goal off it
    build_trip((4.0, 3.0), (7.0, 12.0), True),
    build_trip((4.0, math.nan), (7.0, 8.0), True),
]


class TestPopulation:
    def test_round_trip_states(self):
        p = params(n=3)
        states = [
            build_trip((1.0, 1.0), (2.0, 3.0), True),
            build_trip((5.0, 5.0), (5.0, 9.0), False),
            build_trip((4.0, 4.0), (4.0, 4.0), True),
        ]
        pop = from_states(p, states)
        for i, s in enumerate(states):
            assert state_of(pop, i) == s

    def test_from_states_requires_n(self):
        with pytest.raises(ValueError):
            from_states(params(n=2), [build_trip((0, 0), (1, 1), True)])

    def test_step_advances_everyone_by_v(self):
        p = params(n=50, v=0.125, seed=3)
        pop = init_population(p, APPROX_STATIONARY)
        before = pop.pos.copy()
        pop.step()
        moved = np.abs(pop.pos - before).sum(axis=1)
        # every agent walks exactly v of Manhattan path (no clamping at this v)
        assert moved == pytest.approx(np.full(50, 0.125), rel=1e-9)
        assert pop.step_count == 1

    def test_positions_stay_in_arena(self):
        p = params(n=200, v=1.5, seed=4)
        pop = init_population(p, APPROX_STATIONARY)
        for _ in range(200):
            pop.step()
        assert pop.pos.min() >= 0.0 and pop.pos.max() <= p.L

    @pytest.mark.parametrize(
        "n, L, v, most_events, mode",
        ORACLE_CASES,
        ids=[oracle_case_id(case) for case in ORACLE_CASES],
    )
    def test_vectorised_step_matches_scalar_oracle(self, n, L, v, most_events, mode):
        # each agent stepped alone by step_agent on its own substream must
        # end every step in exactly the state the population engine gives
        # it, and every watched agent's recorded events must be its own
        p = params(n=n, L=L, v=v, seed=5)
        warmup = {"warmup_steps": 20} if mode == WARMUP else {}
        pop = init_population(p, mode, **warmup)
        states, rngs = oracle_init(p, mode, **warmup)
        assert [state_of(pop, i) for i in range(n)] == states
        assert step_beside_oracle(pop, states, rngs, 60) >= most_events

    def test_budget_ending_on_waypoints_matches_scalar_oracle(self):
        # first trips on the integer lattice with v = 1/4: elbows and
        # arrivals fall exactly at the end of a step's budget, many legs
        # share a coordinate, and some trips have zero length
        p = params(n=300, L=10.0, v=0.25, seed=6)
        states = lattice_states(p)
        pop = from_states(p, states)
        rngs = [derive_substream(p.seed, i) for i in range(p.n)]
        step_beside_oracle(pop, states, rngs, 40)

    @pytest.mark.parametrize("v", [0.25, 0.3])
    def test_first_pass_on_the_arena_edges_matches_scalar_oracle(self, v):
        # agents on the edges x = 0, L and y = 0, L (and at -0.0) heading
        # along, into and away from them, with their next way-point, an
        # elbow or the destination, exactly v away or one ulp further; the
        # positions must equal the oracle's bit for bit after every step,
        # so a changed sign of zero or a last-ulp change shows
        L = 10.0
        states = edge_states(L, v)
        assert {s.heading for s in states} == set(Heading)
        p = params(n=len(states), L=L, v=v, seed=9)
        pop = from_states(p, states)
        rngs = [derive_substream(p.seed, i) for i in range(p.n)]
        for k in range(8):
            pop.step()
            for i in range(p.n):
                states[i], _ = step_agent(states[i], rngs[i], v, L, k)
            want = np.array([s.position for s in states])
            assert np.array_equal(pop.pos.view(np.uint64), want.view(np.uint64)), k
            assert [state_of(pop, i) for i in range(p.n)] == states, k
            assert_velocity_cached(pop)

    @pytest.mark.parametrize("mode", [APPROX_STATIONARY, WARMUP])
    def test_init_matches_scalar_oracle(self, mode):
        p = params(n=3000, L=30.0, v=0.6, seed=8)
        warmup = {"warmup_steps": 4} if mode == WARMUP else {}
        pop = init_population(p, mode, **warmup)
        ref = from_states(p, oracle_init(p, mode, **warmup)[0])
        for field in ("pos", "dest", "turn", "leg", "heading"):
            assert np.array_equal(getattr(pop, field), getattr(ref, field)), field
        assert np.any(pop.leg == Leg.FIRST) and np.any(pop.leg == Leg.SECOND)

    def test_rollover_cap_stops_a_runaway_step(self, monkeypatch):
        # v = 50 on L = 1 crosses dozens of way-points per agent and step
        pop = init_population(params(n=20, L=1.0, v=50.0, seed=6), APPROX_STATIONARY)
        monkeypatch.setattr(mobility, "ROLLOVER_CAP", 8)
        with pytest.raises(RuntimeError, match="rollover cap"):
            pop.step()

    def test_zero_speed_step_counts_time(self):
        p = params(n=5, v=0.0)
        pop = init_population(p, APPROX_STATIONARY)
        before = pop.pos.copy()
        pop.step()
        assert np.array_equal(pop.pos, before)
        assert pop.step_count == 1

    def test_copies_step_like_the_original(self):
        # Deep copies and pickle round trips rebuild the complex and PCG
        # item views on their own arrays: a copy whose views kept memory of
        # their own would step ``_pos`` while ``pos`` stood still.
        p = make_params(500, seed=3)
        pop = init_population(p, APPROX_STATIONARY)
        pop.step()
        copies = {
            "deepcopy": copy.deepcopy(pop),
            "pickle": pickle.loads(pickle.dumps(pop)),
        }
        kept = {name: getattr(pop, name).copy() for name in ENGINE_STATE}
        for how, c in copies.items():
            for name in ("pos", "dest", "turn", "vel", "pcg"):
                assert np.shares_memory(getattr(c, name), getattr(c, "_" + name)), how
                assert not np.shares_memory(getattr(c, name), getattr(pop, name)), how
            for _ in range(50):
                c.step()
        for name in ENGINE_STATE:
            assert getattr(pop, name).tobytes() == kept[name].tobytes(), name
        turned = 0
        for _ in range(50):
            heading = pop.heading.copy()
            pop.step()
            turned += int(np.count_nonzero(pop.heading != heading))
        assert turned > 0
        for how, c in copies.items():
            for name in ENGINE_STATE:
                assert getattr(c, name).tobytes() == getattr(pop, name).tobytes(), (how, name)
            assert c.step_count == pop.step_count == 51


def step_positions_beside_oracle(pop, states, rngs, steps):
    """Step ``pop`` beside the oracle for ``steps`` steps; positions must
    match bit for bit after every step and whole states at the end."""
    p = pop.params
    for k in range(steps):
        pop.step()
        for i in range(p.n):
            states[i], _ = step_agent(states[i], rngs[i], p.v, p.L, k)
        want = np.array([s.position for s in states])
        assert np.array_equal(pop.pos.view(np.uint64), want.view(np.uint64)), k
    assert [state_of(pop, i) for i in range(p.n)] == states


def heading_gaps(pop):
    """Each agent's distance to its way-point along its heading."""
    gap = np.abs(pop.turn - pop.pos)
    return np.where(pop.heading & 1, gap[:, 1], gap[:, 0])


class TestWaypointCountdown:
    """An agent gets the exact way-point test only once its countdown of
    steps certainly far from the way-point has run out."""

    @pytest.mark.parametrize("v", [0.1, 0.3])
    def test_rounding_allowance_at_k_steps_from_a_waypoint(self, v):
        # agents fl(k v) and one ulp either side of it from their way-point,
        # on coordinates of several magnitudes, heading along either axis
        # toward the middle of a wide arena.  k v is inexact at these v, and
        # the k sums of pos + vel round by up to half an ulp of the
        # coordinate each, so a countdown of exactly ceil(gap / v) - 1 steps
        # skips the step on which some of them are within v
        L = 1000.0
        states = rounding_states(L, v)
        assert {s.heading for s in states} == set(Heading)
        p = params(n=len(states), L=L, v=v, seed=2)
        pop = from_states(p, states)
        rngs = [derive_substream(p.seed, i) for i in range(p.n)]
        step_positions_beside_oracle(pop, states, rngs, 404)

    def test_agents_off_the_arena_match_scalar_oracle(self):
        # the scalar oracle clips positions and way-points outside [0, L];
        # the engine has no clips, so it must refuse such agents outright
        # rather than step them apart from the oracle
        fine = build_trip((1.0, 1.0), (2.0, 3.0), True)
        for state in OFF_ARENA_STATES:
            with pytest.raises(ValueError, match=r"lie in \[0, L\]\^2"):
                from_states(params(n=2), [fine, state])

    def test_warmup_clock_reset_matches_scalar_oracle(self):
        # init_population(WARMUP) sets step_count back to 0 after warmup; at
        # v = L/4000 the countdowns set during warmup run for thousands of
        # steps and many expire in the steps that follow
        p = params(n=120, L=40.0, v=0.01, seed=4)
        pop = init_population(p, WARMUP, warmup_steps=300)
        states, rngs = oracle_init(p, WARMUP, warmup_steps=300)
        assert pop.step_count == 0
        assert heading_gaps(pop).max() > 1000 * p.v
        step_beside_oracle(pop, states, rngs, 400)

    def test_step_count_reset_mid_run_matches_scalar_oracle(self):
        p = params(n=150, L=40.0, v=0.01, seed=5)
        pop = init_population(p, APPROX_STATIONARY)
        states, rngs = oracle_init(p, APPROX_STATIONARY)
        assert heading_gaps(pop).max() > 1000 * p.v
        step_beside_oracle(pop, states, rngs, 200)
        pop.step_count = 0
        step_beside_oracle(pop, states, rngs, 300)


def advance_worlds():
    """(name, factory) of every world the block engine is checked on; each
    factory builds the same population on every call."""
    worlds = []
    for case in ORACLE_CASES:
        n, L, v, _, mode = case
        warmup = {"warmup_steps": 20} if mode == WARMUP else {}
        p = params(n=n, L=L, v=v, seed=5)
        worlds.append(
            (oracle_case_id(case), lambda p=p, m=mode, w=warmup: init_population(p, m, **w))
        )
    for v in (0.25, 0.3):
        p = params(n=len(edge_states(10.0, v)), v=v, seed=9)
        worlds.append((f"edges-{v}", lambda p=p: from_states(p, edge_states(p.L, p.v))))
    for v in (0.1, 0.3):
        p = params(n=len(rounding_states(1000.0, v)), L=1000.0, v=v, seed=2)
        worlds.append((f"rounding-{v}", lambda p=p: from_states(p, rounding_states(p.L, p.v))))
    p = params(n=300, seed=6)
    worlds.append(("lattice", lambda p=p: from_states(p, lattice_states(p))))
    # v = L/4000: countdowns of thousands of steps, many expiring in a block
    p = params(n=120, L=40.0, v=0.01, seed=4)
    worlds.append(("slow-warmup", lambda p=p: init_population(p, WARMUP, warmup_steps=300)))
    p = params(n=150, L=40.0, v=0.01, seed=5)
    worlds.append(("slow", lambda p=p: init_population(p, APPROX_STATIONARY)))
    return worlds


ADVANCE_WORLDS = advance_worlds()


def off_arena_world():
    return from_states(params(n=len(OFF_ARENA_STATES), seed=3), OFF_ARENA_STATES)

ENGINE_STATE = ("pos", "dest", "turn", "leg", "heading", "vel", "pcg", "_left")


def assert_reachable(pop):
    """``pop`` holds states that trips make: its own constructor accepts
    them."""
    Population(pop.params, pop.pos, pop.dest, pop.turn, pop.leg, pop.heading)


def assert_same_engine_state(a, b, rec_a, rec_b, label):
    for name in ENGINE_STATE:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (label, name)
    assert a.step_count == b.step_count, label
    assert rec_a.events == rec_b.events, label


class TestAdvance:
    """``advance(k)`` must leave exactly the state of ``k`` calls of
    ``step()``, byte for byte, recorder events included."""

    @pytest.mark.parametrize(
        "build",
        [w[1] for w in ADVANCE_WORLDS] + [off_arena_world],
        ids=[w[0] for w in ADVANCE_WORLDS] + ["off-arena"],
    )
    def test_block_matches_single_steps(self, build):
        if build is off_arena_world:
            # no block starts off the arena: such a world cannot be built
            with pytest.raises(ValueError, match=r"lie in \[0, L\]\^2"):
                build()
            return
        # blocks run back to back, so later ones start mid-run with
        # countdowns of every length
        a, b = build(), build()
        watched = range(0, a.params.n, max(3, a.params.n // 10))
        rec_a, rec_b = TrajectoryRecorder(a, watched), TrajectoryRecorder(b, watched)
        for k in (0, 1, 2, 13, 63, 630):
            a.advance(k, recorder=rec_a)
            for _ in range(k):
                b.step(recorder=rec_b)
            assert_same_engine_state(a, b, rec_a, rec_b, k)
            assert_reachable(a)
        assert sum(map(len, rec_a.events.values())) > 0

    def test_sparse_slow_world_keeps_states_a_trip_makes(self):
        # the engine never makes a state its own constructor refuses: in a
        # sparse world at v/64, countdowns run for thousands of steps
        v = make_params(2000, c1=0.5).v / 64
        pop = init_population(make_params(2000, c1=0.5, v=v, seed=7), APPROX_STATIONARY)
        dest = pop.dest.copy()
        for k in (1, 2, 13, 63, 630, 4000):
            pop.advance(k)
            assert_reachable(pop)
        assert (pop.dest != dest).any(axis=1).sum() > 100

    def test_block_after_a_clock_reset(self):
        # recorder times count from step_count, whatever callers set it to
        build = dict(ADVANCE_WORLDS)["slow"]
        a, b = build(), build()
        a.advance(500)
        b.advance(500)
        a.step_count = b.step_count = 7
        rec_a, rec_b = TrajectoryRecorder(a, range(150)), TrajectoryRecorder(b, range(150))
        a.advance(900, recorder=rec_a)
        for _ in range(900):
            b.step(recorder=rec_b)
        assert_same_engine_state(a, b, rec_a, rec_b, "reset")
        assert sum(map(len, rec_a.events.values())) > 0

    def test_block_longer_than_the_longest_countdown(self):
        # at v = L/10**5 countdowns reach the int16 cap, and a block of
        # more steps than the cap holds still counts every one down
        p = params(n=4, L=40.0, v=0.0004, seed=1)
        a, b = init_population(p, APPROX_STATIONARY), init_population(p, APPROX_STATIONARY)
        assert a._left.max() == np.iinfo(np.int16).max
        rec_a, rec_b = TrajectoryRecorder(a, range(4)), TrajectoryRecorder(b, range(4))
        a.advance(40_000, recorder=rec_a)
        for _ in range(40_000):
            b.step(recorder=rec_b)
        assert_same_engine_state(a, b, rec_a, rec_b, "cap")
        assert sum(map(len, rec_a.events.values())) > 0

    def test_zero_speed_only_counts_time(self):
        pop = init_population(params(n=5, v=0.0), APPROX_STATIONARY)
        before = {name: getattr(pop, name).copy() for name in ENGINE_STATE}
        rec = TrajectoryRecorder(pop, range(5))
        pop.advance(40, recorder=rec)
        for name, value in before.items():
            assert np.array_equal(getattr(pop, name), value), name
        assert pop.step_count == 40
        assert all(events == [] for events in rec.events.values())

    def test_negative_steps_rejected(self):
        pop = init_population(params(n=5), APPROX_STATIONARY)
        pos = pop.pos.copy()
        with pytest.raises(ValueError, match="steps"):
            pop.advance(-1)
        assert np.array_equal(pop.pos, pos) and pop.step_count == 0

    def test_rollover_cap_raises_within_a_block(self, monkeypatch):
        # the ARRIVAL_THEN_ELBOW agent of TestWaypointChains, moved back
        # along its leg by v: nobody is near a way-point at block step 0;
        # on block step 1, in a later round, the agents kept arrive with
        # budget left for the elbow of their fresh trip and for its
        # destination, and that arrival needs a second pass
        p = params(n=64, v=4.0, seed=21)
        start = build_trip((2.0, 0.0), (2.0, 4.5), True)
        states = quiet_unless(p, [start] * p.n, {(ARRIVAL, TURN, ARRIVAL)}, step=1)
        assert any(s != QUIET for s in states)
        pop = from_states(p, states)
        monkeypatch.setattr(mobility, "ROLLOVER_CAP", 1)
        with pytest.raises(RuntimeError, match="rollover cap"):
            pop.advance(2)


#: An agent far from its way-point: it only moves on the first step at any
#: speed below 10 on the arena of side 10.
QUIET = build_trip((0.0, 0.0), (0.0, 10.0), True)


def oracle_step(p, states, rngs=None, k=0):
    """Step ``k`` of each agent's oracle state on its substream (a fresh
    one unless ``rngs`` are given): ``(state, events)`` per agent."""
    if rngs is None:
        rngs = [derive_substream(p.seed, i) for i in range(p.n)]
    return [step_agent(s, rng, p.v, p.L, k) for s, rng in zip(states, rngs)]


def kinds(events):
    return tuple(e.kind for e in events)


def quiet_unless(p, states, keep, step=0):
    """``states`` with every agent whose oracle events on step ``step`` are
    not in ``keep`` replaced by :data:`QUIET`."""
    rngs = [derive_substream(p.seed, i) for i in range(p.n)]
    now = states
    for k in range(step + 1):
        now, events = zip(*oracle_step(p, now, rngs, k))
    return [s if kinds(e) in keep else QUIET for s, e in zip(states, events)]


def assert_step_matches_oracle(pop, want):
    """One ``pop.step()`` must give every agent the oracle's state, events
    and event times, ``want`` holding ``(state, events)`` per agent."""
    rec = TrajectoryRecorder(pop, range(pop.params.n))
    pop.step(recorder=rec)
    for i, (state, events) in enumerate(want):
        assert state_of(pop, i) == state, i
        assert rec.events[i] == events, i
    assert_velocity_cached(pop)


class TestWaypointChains:
    """One way-point pass takes an elbow and the arrival after it, and an
    arrival and the elbow of the fresh trip after it; a further pass runs
    only for a third way-point.  Each case starts every agent in one hand-
    made state (each draws its own trips) and checks one step against the
    scalar oracle: states, events and event times."""

    # an elbow 0.5 into the step whose second leg of 0.25 ends inside it
    ELBOW_THEN_ARRIVAL = build_trip((1.0, 1.0), (1.5, 1.25), False), 1.0
    # an arrival 0.5 into the step, with 3.5 left for the fresh trip
    ARRIVAL_THEN_ELBOW = build_trip((2.0, 2.0), (2.0, 2.5), True), 4.0

    def chain_world(self, case):
        start, v = case
        p = params(n=64, v=v, seed=21)
        return p, [start] * p.n

    def test_elbow_then_arrival(self):
        p, states = self.chain_world(self.ELBOW_THEN_ARRIVAL)
        want = oracle_step(p, states)
        seen = {kinds(events) for _, events in want}
        assert {(TURN, ARRIVAL), (TURN, ARRIVAL, TURN)} <= seen
        assert_step_matches_oracle(from_states(p, states), want)

    def test_arrival_then_elbow_and_a_third_waypoint(self):
        p, states = self.chain_world(self.ARRIVAL_THEN_ELBOW)
        want = oracle_step(p, states)
        seen = {kinds(events) for _, events in want}
        assert {(ARRIVAL,), (ARRIVAL, TURN), (ARRIVAL, TURN, ARRIVAL)} <= seen
        assert_step_matches_oracle(from_states(p, states), want)

    def test_four_waypoints_from_an_elbow(self):
        # elbow, arrival, elbow of the fresh trip, and its destination
        start = build_trip((1.0, 1.0), (1.5, 1.25), False)
        p = params(n=64, v=6.0, seed=22)
        want = oracle_step(p, [start] * p.n)
        assert (TURN, ARRIVAL, TURN, ARRIVAL) in {kinds(e) for _, e in want}
        assert_step_matches_oracle(from_states(p, [start] * p.n), want)

    @pytest.mark.parametrize(
        "start, v, events",
        [
            # the budget runs out on the elbow: it stops there facing north
            (build_trip((1.0, 1.0), (2.0, 1.5), False), 1.0, (TURN,)),
            # on the destination after the elbow: it stops there with a
            # fresh trip
            (build_trip((1.0, 1.0), (2.0, 1.5), False), 1.5, (TURN, ARRIVAL)),
        ],
        ids=["elbow", "arrival"],
    )
    def test_budget_ending_on_the_first_chain_links(self, start, v, events):
        p = params(n=8, v=v, seed=23)
        want = oracle_step(p, [start] * p.n)
        assert {kinds(e) for _, e in want} == {events}
        assert all(e[-1].time == 1.0 for _, e in want)
        assert_step_matches_oracle(from_states(p, [start] * p.n), want)

    def fresh_trip(self, p, agent, at):
        """The first and second leg lengths of the first trip ``agent``
        draws, from the point ``at``."""
        x, y, coin = derive_substream(p.seed, agent).random(3)
        trip = build_trip(at, (x * p.L, y * p.L), coin < 0.5)
        first = abs(trip.turn_point.x - at[0]) + abs(trip.turn_point.y - at[1])
        second = abs(x * p.L - trip.turn_point.x) + abs(y * p.L - trip.turn_point.y)
        return trip.leg, first, second

    @pytest.mark.parametrize("link", ["elbow", "arrival"])
    def test_budget_ending_on_the_fresh_trip(self, link):
        # agent 0 stands on its destination; v is the first leg of the trip
        # it draws there, or both legs, so its budget runs out exactly on
        # the elbow of that trip or on its destination
        at = (3.0, 4.0)
        p = params(n=8, v=1.0, seed=24)
        leg, first, second = self.fresh_trip(p, 0, at)
        assert leg == Leg.FIRST
        v = first if link == "elbow" else first + second
        assert link == "elbow" or v - first == second
        p = params(n=8, v=v, seed=24)
        states = [build_trip(at, at, False)] * p.n
        want = oracle_step(p, states)
        chain = (ARRIVAL, TURN) if link == "elbow" else (ARRIVAL, TURN, ARRIVAL)
        assert kinds(want[0][1]) == chain
        assert want[0][1][-1].time == 1.0
        assert_step_matches_oracle(from_states(p, states), want)

    def test_turn_off_its_destinations_row_and_column(self):
        # no trip turns at such an elbow, and the engine and the oracle
        # would leave it differently, so the population refuses it
        off_row = AgentState(
            Point(1.0, 1.0), Point(2.5, 1.75), Leg.FIRST, Heading.EAST, Point(1.5, 1.0)
        )
        with pytest.raises(ValueError, match="turn must"):
            from_states(params(n=4, v=2.0, seed=25), [off_row] * 4)

    @pytest.mark.parametrize(
        "case, keep",
        [
            (ELBOW_THEN_ARRIVAL, {(TURN, ARRIVAL), (TURN, ARRIVAL, TURN)}),
            (ARRIVAL_THEN_ELBOW, {(ARRIVAL,), (ARRIVAL, TURN)}),
        ],
        ids=["elbow-then-arrival", "arrival-then-elbow"],
    )
    def test_one_pass_takes_each_chain(self, monkeypatch, case, keep):
        p, states = self.chain_world(case)
        states = quiet_unless(p, states, keep)
        want = oracle_step(p, states)
        assert {kinds(e) for _, e in want} - {()} == keep
        monkeypatch.setattr(mobility, "ROLLOVER_CAP", 1)
        assert_step_matches_oracle(from_states(p, states), want)

    def test_a_third_waypoint_needs_a_second_pass(self, monkeypatch):
        p, states = self.chain_world(self.ARRIVAL_THEN_ELBOW)
        states = quiet_unless(p, states, {(ARRIVAL, TURN, ARRIVAL)})
        assert any(s != QUIET for s in states)
        pop = from_states(p, states)
        monkeypatch.setattr(mobility, "ROLLOVER_CAP", 1)
        with pytest.raises(RuntimeError, match="rollover cap"):
            pop.step()


class TestPopulationInput:
    """``Population`` accepts only the states that trips and stepping make;
    each case puts one agent in another state beside one that is fine."""

    E, N, W = Heading.EAST, Heading.NORTH, Heading.WEST
    FIRST, SECOND = Leg

    @pytest.mark.parametrize(
        "pos, dest, leg, heading, turn, match",
        [
            ((1.0, 1.0), (1.0, 5.0), 2, N, (1.0, 5.0), "leg must"),
            ((1.0, 1.0), (1.0, 5.0), SECOND, 4, (1.0, 5.0), "heading 0 to 3"),
            ((1.0, 1.0), (1.0, 5.0), SECOND, N, (1.0, 3.0), "turn must"),
            ((1.0, 1.0), (4.0, 1.0), FIRST, E, (4.0, 1.0), "turn must"),
            ((1.0, 1.0), (1.75, 2.5), FIRST, N, (1.0, 1.5), "turn must"),
            ((1.0, 2.0), (4.0, 5.0), FIRST, E, (4.0, 1.0), "pos must"),
            # past its elbow: walking west, it would leave the arena
            ((5.0, 5.0), (7.0, 8.0), FIRST, W, (7.0, 5.0), "pos must"),
        ],
        ids=[
            "leg-2", "heading-4", "second-leg-short-of-dest", "elbow-on-dest",
            "elbow-off-the-row-and-column", "off-its-leg", "past-its-waypoint",
        ],
    )
    def test_state_no_trip_makes_rejected(self, pos, dest, leg, heading, turn, match):
        fine = build_trip((1.0, 1.0), (2.0, 3.0), True)
        state = AgentState(Point(*pos), Point(*dest), leg, heading, Point(*turn))
        with pytest.raises(ValueError, match=match):
            from_states(params(n=2), [fine, state])

    def test_codes_that_wrap_in_the_cast_rejected(self):
        # as int8, 257 and 256 read as leg SECOND, heading EAST: a state a
        # trip makes
        p = params(n=1, R=1.0, v=0.5)
        with pytest.raises(ValueError, match="leg must"):
            Population(p, [[1.0, 1.0]], [[4.0, 1.0]], [[4.0, 1.0]], np.array([257]), np.array([256]))

    @pytest.mark.parametrize(
        "leg, heading",
        [(0.5, 0), (-256, 0), (0, 0.9)],
        ids=["leg-0.5", "leg-minus-256", "heading-0.9"],
    )
    def test_codes_that_are_not_small_integers_rejected(self, leg, heading):
        # each casts to leg FIRST, heading EAST, which this state has
        p = params(n=1, R=1.0, v=0.5)
        pos, dest, turn = [[1.0, 1.0]], [[4.0, 3.0]], [[4.0, 1.0]]
        Population(p, pos, dest, turn, np.array([0]), np.array([0]))
        with pytest.raises(ValueError, match="leg must"):
            Population(p, pos, dest, turn, np.array([leg]), np.array([heading]))

    @pytest.mark.parametrize(
        "name, shape",
        [
            ("pos", (7, 2)),
            ("dest", (6, 3)),
            ("turn", (6,)),
            ("leg", (7,)),
            ("leg", (5,)),
            ("leg", (6, 1)),
            ("heading", (7,)),
            ("heading", (5,)),
        ],
    )
    def test_wrong_shape_rejected_by_name(self, name, shape):
        p = params(n=6)
        arrays = {
            "pos": np.ones((6, 2)),
            "dest": np.ones((6, 2)),
            "turn": np.ones((6, 2)),
            "leg": np.ones(6, dtype=np.int8),  # a zero-length trip
            "heading": np.zeros(6, dtype=np.int8),
        }
        Population(p, **arrays)
        arrays[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"^{name} has shape"):
            Population(p, **arrays)


class TestArraySubstreams:
    def test_no_generator_is_built_for_an_agent(self, monkeypatch):
        built = []
        generator = np.random.Generator

        def counting_generator(bit_generator):
            built.append(bit_generator)
            return generator(bit_generator)

        monkeypatch.setattr(np.random, "Generator", counting_generator)
        pop = init_population(make_params(200_000))
        assert len(built) == 1  # the initialiser's own stream, no agent's
        rec = TrajectoryRecorder(pop, range(pop.params.n))
        for _ in range(3):
            pop.step(recorder=rec)
        arrived = {
            a for a, events in rec.events.items() if any(e.kind == ARRIVAL for e in events)
        }
        assert len(arrived) > 100  # agents drew fresh trips ...
        assert len(built) == 1  # ... from their array-held states


class TestInitPopulation:
    def test_warmup_requires_steps(self):
        with pytest.raises(ValueError):
            init_population(params(), WARMUP, warmup_steps=0)

    def test_warmup_zero_speed_needs_explicit_steps(self):
        with pytest.raises(ValueError):
            init_population(params(v=0.0), WARMUP)
        pop = init_population(params(v=0.0), WARMUP, warmup_steps=3)
        assert pop.step_count == 0

    def test_approx_rejects_warmup_steps(self):
        with pytest.raises(ValueError):
            init_population(params(), APPROX_STATIONARY, warmup_steps=10)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            init_population(params(), "uniform")

    def test_warmup_resets_clock(self):
        pop = init_population(params(n=20, v=0.5), WARMUP, warmup_steps=5)
        assert pop.step_count == 0
        assert pop.pos.min() >= 0.0 and pop.pos.max() <= 10.0

    def test_deterministic_per_seed(self):
        a = init_population(params(n=30, seed=9), APPROX_STATIONARY)
        b = init_population(params(n=30, seed=9), APPROX_STATIONARY)
        c = init_population(params(n=30, seed=10), APPROX_STATIONARY)
        assert np.array_equal(a.pos, b.pos)
        assert not np.array_equal(a.pos, c.pos)

    def test_approx_marginal_matches_stationary_density(self):
        # one big snapshot: TV between the empirical histogram and the exact
        # bin masses shrinks with n; at n = 20000 it sits well under 0.05
        p = params(n=20_000, L=20.0, R=2.0, v=0.1, seed=11)
        pop = init_population(p, APPROX_STATIONARY)
        hist = position_histogram(pop, bins=8, snapshots=1, spacing=1)
        tv = total_variation(hist, grid_cell_masses(p.L, 8))
        assert tv < 0.05


def palm_first_legs(rng, count, L):
    """Perfect simulation of the stationary state (Palm calculus): a
    uniform (start, destination) pair kept with probability proportional to
    its Manhattan length, a fair coin for the path, a uniform point along
    it.  Returns the positions and vertical-first flags of at least
    ``count`` agents on a first leg."""
    pos, vertical, got = [], [], 0
    while got < count:
        k = 200_000
        s = rng.random((k, 2)) * L
        d = rng.random((k, 2)) * L
        dx, dy = d[:, 0] - s[:, 0], d[:, 1] - s[:, 1]
        length = np.abs(dx) + np.abs(dy)
        keep = rng.random(k) * 2.0 * L < length
        v = rng.random(k) < 0.5
        u = rng.random(k) * length
        keep &= u < np.where(v, np.abs(dy), np.abs(dx))  # still on the first leg
        x = np.where(v, s[:, 0], s[:, 0] + np.sign(dx) * u)
        y = np.where(v, s[:, 1] + np.sign(dy) * u, s[:, 1])
        pos.append(np.stack([x, y], axis=1)[keep])
        vertical.append(v[keep])
        got += int(keep.sum())
    return np.concatenate(pos), np.concatenate(vertical)


class TestStationaryJointLaw:
    def test_first_leg_heading_matches_palm_sampler(self):
        # near the west edge most destinations lie east; an eastbound first
        # leg has almost no room behind it, a vertical one about half the
        # arena, so P(vertical | first leg) is about 0.79 there, not 1/2
        L = 10.0
        pop = init_population(params(n=20_000, L=L, v=0.1, seed=3), APPROX_STATIONARY)
        first = pop.leg == Leg.FIRST
        vertical = (pop.heading == Heading.NORTH) | (pop.heading == Heading.SOUTH)
        ref_pos, ref_vertical = palm_first_legs(np.random.default_rng(1), 600_000, L)
        regions = [  # (x0, x1, y0, y1) as fractions of L
            (0.0, 0.15, 0.4, 0.6),
            (0.4, 0.6, 0.0, 0.15),
            (0.4, 0.6, 0.4, 0.6),
            (0.0, 0.2, 0.2, 0.4),
            (0.85, 1.0, 0.6, 0.8),
        ]
        skewed = 0
        for x0, x1, y0, y1 in regions:
            def inside(pts):
                return (
                    (pts[:, 0] >= x0 * L) & (pts[:, 0] < x1 * L)
                    & (pts[:, 1] >= y0 * L) & (pts[:, 1] < y1 * L)
                )
            got = vertical[inside(pop.pos) & first]
            want = ref_vertical[inside(ref_pos)]
            assert got.size >= 100 and want.size >= 5000
            p = want.mean()
            se = math.sqrt(p * (1.0 - p) * (1.0 / got.size + 1.0 / want.size))
            assert abs(got.mean() - p) <= 4.0 * se, (x0, y0, got.mean(), p)
            skewed += abs(p - 0.5) > 8.0 * se
        assert skewed >= 3  # a fair coin fails these regions by > 4 se


class TestInitialWaypointRate:
    def test_waypoint_rate_is_stationary_from_the_start(self):
        # in stationarity an agent crosses 3v/L way-points per step (two per
        # trip, of mean length 2L/3).  Counting events, not agents, makes
        # that exact for any v.  The count is a sum of independent per-agent
        # counts with variance at most their mean, so sqrt(expected) bounds
        # its standard error: 1.2% here.  Over these first 8 steps the exact
        # path law reads within 0.6 se of the rate, a fair path coin about
        # 6% (7 se) low.
        n, L, v, steps = 30_000, 10.0, 0.2, 8
        pop = init_population(params(n=n, L=L, v=v, seed=1), APPROX_STATIONARY)
        rec = TrajectoryRecorder(pop, range(n))
        for _ in range(steps):
            pop.step(recorder=rec)
        count = sum(len(rec.events[a]) for a in range(n))
        expected = 3.0 * v / L * n * steps
        assert abs(count - expected) <= 4.0 * math.sqrt(expected), count / expected

    def test_share_within_a_step_at_time_zero(self):
        # Right after init, the share of agents whose next way-point lies
        # within v is the way-point rate 3v/L, less the agents with two
        # way-points within v (of relative order v/L, under 1% here).  Over
        # these 32 worlds about 14 200 such agents are expected, so the
        # count's standard error is 0.84%.  The exact path law reads 1.3%
        # low; a fair path coin reads 10% low.
        n = 32_000
        near = expected = 0.0
        for seed in range(32):
            p = make_params(n, seed=seed)
            pop = init_population(p, APPROX_STATIONARY)
            near += np.count_nonzero(np.abs(pop.turn - pop.pos).sum(axis=1) <= p.v)
            expected += 3.0 * p.v / p.L * n
        assert abs(near / expected - 1.0) <= 0.04, near / expected


class TestRecorder:
    def test_only_watched_agents_recorded(self):
        p = params(n=10, v=2.0, seed=12)
        pop = init_population(p, APPROX_STATIONARY)
        rec = TrajectoryRecorder(pop, [2, 5])
        for _ in range(30):
            pop.step(recorder=rec)
        assert pop.step_count == 30
        traj = trajectory(pop, rec, 2)
        assert traj.horizon == 30.0
        with pytest.raises(KeyError):
            trajectory(pop, rec, 3)

    @pytest.mark.parametrize("agent", [-1, 10])
    def test_agent_ids_outside_the_population_rejected(self, agent):
        pop = init_population(params(n=10, seed=12), APPROX_STATIONARY)
        with pytest.raises(ValueError, match=f"agent id {agent} outside"):
            TrajectoryRecorder(pop, [2, agent])

    def test_trajectory_replays_positions(self):
        # the recorded event log must reproduce the stepped positions
        p = params(n=4, v=0.7, seed=13)
        pop = init_population(p, APPROX_STATIONARY)
        rec = TrajectoryRecorder(pop, range(4))
        snapshots = [pop.pos.copy()]
        for _ in range(40):
            pop.step(recorder=rec)
            snapshots.append(pop.pos.copy())
        for agent in range(4):
            traj = trajectory(pop, rec, agent)
            for t, snap in enumerate(snapshots):
                pt = traj.position_at(float(t))
                assert pt.x == pytest.approx(snap[agent, 0], abs=1e-9)
                assert pt.y == pytest.approx(snap[agent, 1], abs=1e-9)


class TestHistogram:
    def test_histogram_normalised(self):
        p = params(n=500, v=0.5, seed=14)
        pop = init_population(p, APPROX_STATIONARY)
        h = position_histogram(pop, bins=5, snapshots=3, spacing=2)
        assert h.shape == (5, 5)
        assert h.sum() == pytest.approx(1.0)
        assert pop.step_count == 4  # (snapshots - 1) * spacing steps taken

    def test_no_snapshot_rejected(self):
        pop = init_population(params(n=50, seed=14), APPROX_STATIONARY)
        with pytest.raises(ValueError, match="snapshots"):
            position_histogram(pop, bins=5, snapshots=0, spacing=2)

    def test_negative_spacing_rejected(self):
        pop = init_population(params(n=50, seed=14), APPROX_STATIONARY)
        with pytest.raises(ValueError, match="spacing"):
            position_histogram(pop, bins=5, snapshots=3, spacing=-1)
