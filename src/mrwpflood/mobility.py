"""Discrete-time Manhattan random way-point mobility engine.

Each agent owns a current trip: a destination drawn uniformly in the square
and one of the two axis-aligned two-leg paths to it (vertical first or
horizontal first, fair coin).  Every step the agent advances exactly ``v``
length units along the remaining path; when a way-point falls inside a step
the leftover budget is spent in the new direction within the same step, and
on arrival a fresh trip starts immediately.

The :class:`Population` engine keeps all agents in arrays and steps them
in array passes: agents whose next way-point lies beyond their remaining
budget move and are done, the rest jump to the way-point and start their
next leg by one trip rule (:func:`_trips`).  A way-point pass also takes
the way-point after: the destination of an elbow's second leg, and the
elbow of a fresh trip, when the budget reaches them, so a further pass
runs only for an agent that meets more way-points in one step.  The
first pass, in which every agent has the whole budget ``v``, moves every
agent by its cached velocity, but tests ``abs(turn - pos) <= v`` only for
the agents whose countdown has run out: each tested agent counts the
coming steps on which it certainly stays more than ``v`` from its
way-point, with an allowance for the rounding of repeated ``pos += vel``
(:meth:`Population._countdown`).  So beyond ``pos += vel`` and one int16
decrement an agent, a step costs in proportion to the agents that reach a
way-point, about ``3 v / L`` of them.  A block of many steps
(:meth:`Population.advance`) goes further and runs the way-point passes
once per round, not once per step: each round tests every agent due in
the block at its own step, and plain ``pos += vel`` carries it to its next
test, bit for bit as single steps would.  The way-point passes gather and
scatter state rows as items of 1-D complex views
(:func:`~mrwpflood.core.complex_rows`), built once with the population.
Each agent draws trip randomness from its own ``(seed, agent id)``
substream, so the result equals stepping each agent alone, in any order,
bit for bit.
The PCG64 states of all agents are held in one array and advanced in array
passes; they draw exactly what ``derive_substream(seed, agent id)`` draws,
with no ``Generator`` built for any agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

import numpy as np

from .core import (
    INIT_STREAM_INDEX,
    WorldParams,
    complex_rows,
    derive_substream,
    pcg64_items,
    pcg64_random3,
    pcg64_states,
    substream_seeds,
)
from .stationary import sample_destinations, sample_stationary_positions

#: Hard cap on the way-point passes of one step (each pass takes up to
#: three way-points of an agent), not on its events.
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


# plain ints for the array code: np.where converts an IntEnum member about
# three times slower than an int
_EAST, _NORTH, _WEST, _SOUTH = map(int, Heading)
_SECOND = int(Leg.SECOND)

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


def _heading(leg: np.ndarray) -> np.ndarray:
    """Heading of each complex leg along one axis (east for zero length)."""
    north_south = np.where(leg.imag > 0.0, _NORTH, _SOUTH)
    return np.where(leg.imag != 0.0, north_south, np.where(leg.real >= 0.0, _EAST, _WEST))


def _trips(
    pos: np.ndarray, dest: np.ndarray, vertical: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(turn, leg, heading)`` of trips from each row of ``pos`` to the
    same row of ``dest``, vertical leg first where ``vertical`` is true.

    A destination sharing a coordinate with its position gives a single-leg
    trip that starts on the second leg (``turn`` is the destination); a
    destination equal to the position gives a zero-length trip, heading
    east, that completes on the next step.
    """
    single = (dest[:, 0] == pos[:, 0]) | (dest[:, 1] == pos[:, 1])
    # a single-leg trip turns at its destination, never at a -0.0 of pos
    turn = dest.copy()
    np.copyto(turn[:, 0], pos[:, 0], where=vertical & ~single)
    np.copyto(turn[:, 1], pos[:, 1], where=~(vertical | single))
    leg = single.astype(np.int8)  # Leg.SECOND is 1, Leg.FIRST 0
    return turn, leg, _heading(complex_rows(turn - pos))  # of the first leg


def _pairs(c: np.ndarray) -> np.ndarray:
    """The ``(m, 2)`` float view of a 1-D complex array."""
    return c.view(np.float64).reshape(-1, 2)


# a complex product with a real factor is that factor times each column,
# bit for bit, signed zeros included
_UNIT = complex_rows(HEADING_VECTORS)


#: Relative allowance of the way-point countdown for rounding
#: (:meth:`Population._countdown`), thousands of times the 2**-53 that each
#: sum and difference it covers can round by.
_SLACK = 2.0**-40

#: Longest countdown held: counts are int16, and an agent whose count runs
#: out early only gets a fresh one.
_COUNT_CAP = np.iinfo(np.int16).max


# ---------------------------------------------------------------------------
# way-point event recording
# ---------------------------------------------------------------------------

class TrajectoryRecorder:
    """Way-point events of chosen agents of a population, from its state at
    construction on.

    ``start`` holds each watched agent's ``(x, y, heading)`` at
    construction, and ``events`` its :class:`TripEvent` list, in time order,
    which stepping with this recorder extends.
    """

    def __init__(self, population: Population, agents: Iterable[int]):
        n = population.params.n
        watched = sorted(set(agents))
        for a in watched:
            if not 0 <= a < n:
                raise ValueError(f"agent id {a} outside [0, {n})")
        pos, heading = population.pos, population.heading
        self.start = {
            a: (float(pos[a, 0]), float(pos[a, 1]), Heading(int(heading[a])))
            for a in watched
        }
        self.events: dict[int, list[TripEvent]] = {a: [] for a in watched}
        self.rows = np.zeros(n, dtype=bool)  # watched agents as a row mask
        self.rows[watched] = True


# ---------------------------------------------------------------------------
# population engine
# ---------------------------------------------------------------------------

class Population:
    """Structure-of-arrays state of all agents, random generators included.

    ``pcg`` holds the PCG64 state of every agent's ``(seed, agent id)``
    substream (:func:`~mrwpflood.core.pcg64_states`), seeded for all agents
    in one array pass; row ``i`` draws exactly what ``derive_substream(seed,
    i)`` draws.  ``vel`` caches ``HEADING_VECTORS[heading] * v`` and is
    written wherever a heading changes.

    Each agent has a way-point countdown, set in ``__init__`` and after
    every step in which it was tested: the number of coming steps that it
    certainly starts more than ``v`` from its way-point.  Each step counts
    it down; the count does not depend on ``step_count``, which callers
    reset.  The state arrays change only through :meth:`advance`.

    ``__init__`` accepts only states that trips (:func:`_trips`) and
    stepping make, and raises ``ValueError`` for any other
    (:meth:`_check_states`): each agent lies in the arena ``[0, L]^2``, on
    a leg of one of the two axis-aligned paths to its destination, not
    past that leg's way-point along its heading, and exactly 0 across it.
    So ``abs(turn - pos)``, as ``hypot(x, 0)`` is ``|x|``, is the exact
    distance to the way-point, and a second leg lies along one axis.
    Stepping keeps that so without a clip: ``pos += vel`` adds an exact 0
    across the heading, and so does a move ``at + _UNIT[h] * budget`` from
    a way-point.  A plain move is made only by an agent whose way-point
    the first pass finds, or its countdown certainly puts, more than ``v``
    away; rounding is monotone, so ``pos + vel`` rounds to a point between
    ``pos`` and ``turn``.  New destinations are draws in [0, 1) times ``L``.
    """

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
        for name, arr, shape in (
            ("pos", pos, (n, 2)),
            ("dest", dest, (n, 2)),
            ("turn", turn, (n, 2)),
            ("leg", leg, (n,)),
            ("heading", heading, (n,)),
        ):
            if np.shape(arr) != shape:
                raise ValueError(f"{name} has shape {np.shape(arr)}, expected {shape}")
        self.params = params
        self.pos = np.ascontiguousarray(pos, dtype=float)
        self.dest = np.ascontiguousarray(dest, dtype=float)
        self.turn = np.ascontiguousarray(turn, dtype=float)
        self.leg, self.heading = _codes(leg, _SECOND), _codes(heading, _SOUTH)
        self._check_states()
        self.vel = np.take(HEADING_VECTORS * params.v, self.heading, axis=0)
        self.pcg = pcg64_states(substream_seeds(params.seed, np.arange(n)))
        self.step_count = 0
        self._views()
        self._velocity = complex_rows(HEADING_VECTORS * params.v)  # vel per heading
        self._left = self._countdown(slice(None), self._pos)

    _VIEWS = ("_pos", "_dest", "_turn", "_vel", "_pcg")

    def _views(self) -> None:
        """Set ``_VIEWS``: one item per agent, sharing memory with ``pos``,
        ``dest``, ``turn``, ``vel`` and ``pcg``, so that stepping writes
        both."""
        self._pos, self._dest, self._turn, self._vel = map(
            complex_rows, (self.pos, self.dest, self.turn, self.vel)
        )
        self._pcg = pcg64_items(self.pcg)

    def __getstate__(self) -> dict:
        # a copy or pickle would give each view memory of its own
        return {k: v for k, v in self.__dict__.items() if k not in self._VIEWS}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._views()

    def _check_states(self) -> None:
        """Raise ``ValueError`` unless every agent is in a state that trips
        and stepping make (the class docstring), in O(n)."""
        L, leg, heading = self.params.L, self.leg, self.heading
        # a NaN fails both comparisons
        if not all(a.min() >= 0.0 and a.max() <= L for a in (self.pos, self.turn, self.dest)):
            raise ValueError("pos, turn and dest must lie in [0, L]^2")
        # differences turned so that the heading points along +1: the real
        # part is the signed distance along the heading, the imaginary part
        # the offset across it, both exact; and a difference of finite
        # floats is zero, or of a sign, exactly when the true one is
        back = _UNIT.conj()[heading]
        ahead = (complex_rows(self.turn) - complex_rows(self.pos)) * back
        goal = (complex_rows(self.dest) - complex_rows(self.turn)) * back
        if goal.real.any() or ((goal.imag == 0.0) != leg.view(bool)).any():
            raise ValueError(
                "turn must be dest on the second leg, and on the first an elbow "
                "that shares with dest only its coordinate along the heading"
            )
        if ahead.imag.any() or ahead.real.min() < 0.0:
            raise ValueError("pos must lie on its leg, not past turn along the heading")

    def _countdown(self, rows, here: np.ndarray) -> np.ndarray:
        """How many coming steps the agents ``rows``, at the complex
        positions ``here``, certainly begin more than ``v`` from their
        way-point, as int16 (zero for none, at most ``_COUNT_CAP``).

        ``j`` steps ahead an agent has added its velocity ``j`` times to a
        coordinate in [0, L]; each sum rounds by at most ``2**-53 L``, and
        the distance ``abs(turn - pos)`` then by a relative ``2**-53``.  So
        that distance exceeds ``v`` while ``gap - v - j (v + 2**-53 L)``
        does, up to relative errors of order ``2**-53``, which ``_SLACK``
        covers many times over, the rounding of this formula included.  The
        count is the number of such ``j = 0, 1, ...``.
        """
        v, L = self.params.v, self.params.L
        gap = abs(self._turn[rows] - here)
        count = np.ceil((gap * (1.0 - _SLACK) - v * (1.0 + _SLACK)) / (v + L * _SLACK))
        np.maximum(count, 0.0, out=count)
        return np.minimum(count, _COUNT_CAP, out=count).astype(np.int16)

    def step(self, recorder: TrajectoryRecorder | None = None) -> None:
        """Advance every agent by one step: ``advance(1, recorder)``."""
        self.advance(1, recorder)

    def advance(self, steps: int, recorder: TrajectoryRecorder | None = None) -> None:
        """Advance every agent by ``steps`` steps of path budget ``v`` each,
        bit for bit as ``steps`` single steps, recorder events included.

        A step runs passes.  The first moves every agent by its velocity
        and tests the agents whose countdown has run out for a way-point
        within ``v``; the way-point passes take the agents that reached one,
        and the way-points that follow it within the step
        (:meth:`_waypoints`).  Every agent tested gets a fresh countdown.
        Way-point events go to ``recorder`` for the agents it watches.

        A block of steps runs in rounds.  Round one runs its first step so,
        then ``pos += vel`` on the whole arrays once for each further step,
        saving each agent's position before the step on which its countdown
        runs out.  Each later round takes every agent left with a test in
        the block, each at its own step, tests them all at once, and moves
        each by ``pos += vel`` up to its next test or the end of the block
        (:meth:`_rounds`).
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        if steps == 0:
            return
        v = self.params.v
        if v > 0.0:
            # the first pass has every agent, each with budget v; only those
            # whose countdown has run out can be within v of a way-point
            if steps == 1:
                due = (self._left <= 0).nonzero()[0]
            else:
                # every agent tested in the block, first on block step _left
                early = (self._left < steps).nonzero()[0]
                first = self._left[early]
                due, later = early[first == 0], first > 0
            gap = abs(self._turn[due] - self._pos[due])
            near = gap <= v
            self._left -= min(steps, _COUNT_CAP)
            self.pos += self.vel
            self._waypoints(due[near], v - gap[near], self.step_count, recorder)
            fresh = self._countdown(due, self._pos[due])
            if steps == 1:
                self._left[due] = fresh
            else:
                self._rounds(steps, recorder, early[later], first[later], due, fresh)
        self.step_count += steps

    def _rounds(self, steps, recorder, rows, when, due, fresh) -> None:
        """Steps 1 to ``steps - 1`` of a block whose step 0 has run: the
        agents ``rows`` are first tested on block steps ``when``, and the
        agents ``due``, tested on step 0, have the countdowns ``fresh``."""
        v = self.params.v
        pos, turn, vel = self._pos, self._turn, self._vel
        nxt = fresh.astype(np.int64) + 1  # block step of the next test
        done = nxt >= steps
        self._left[due[done]] = nxt[done] - steps
        rows = np.concatenate([rows, due[~done]])
        when = np.concatenate([when, nxt[~done]])
        order = np.argsort(when)
        rows, when = rows[order], when[order]
        # round one: the whole arrays glide from one distinct test step to
        # the next, and the rows tested on it save where they stand there
        steps_at, lo = np.unique(when, return_index=True)
        hi = np.append(lo[1:], rows.size)
        here = np.empty(rows.size, dtype=complex)
        j = 1
        for at, a, b in zip(steps_at.tolist(), lo.tolist(), hi.tolist()):
            for _ in range(at - j):
                self.pos += self.vel
            here[a:b] = pos[rows[a:b]]
            j = at
        for _ in range(steps - j):
            self.pos += self.vel
        # event rounds: one test of each agent left, whatever its step
        while rows.size:
            gap = abs(turn[rows] - here)
            near = gap <= v
            here += vel[rows]
            pos[rows] = here
            clock = self.step_count + when[near]
            self._waypoints(rows[near], v - gap[near], clock, recorder)
            here = pos[rows]
            fresh = self._countdown(rows, here)
            nxt = when + 1 + fresh
            moves = np.minimum(nxt, steps) - when - 1
            order = np.argsort(-moves)
            rows, when, here, fresh, nxt, moves = (
                a[order] for a in (rows, when, here, fresh, nxt, moves)
            )
            # plain moves up to each agent's next test or the block's end,
            # over the prefix of the agents with moves left
            step_vel = vel[rows]
            for m in np.searchsorted(-moves, -np.arange(moves[0])).tolist():
                here[:m] += step_vel[:m]
            done = nxt >= steps
            pos[rows[done]] = here[done]
            self._left[rows[done]] = fresh[done] - moves[done]
            rows, when, here = rows[~done], nxt[~done], here[~done]

    def _waypoints(self, idx, budget, clock, recorder) -> None:
        """The passes after the first, for the agents ``idx`` that reach
        their way-point with ``budget`` of their step left, on step
        ``clock`` (one for all, or one per agent).

        Each pass puts its agents on their way-point, where they start their
        next leg: the second leg after an elbow, a fresh trip after an
        arrival (destination x, destination y and path coin, drawn in that
        order from the agent's own substream).  It also takes the next
        way-point of the two common chains: before the draw, an elbow whose
        second leg ends within its budget goes on to its destination and
        arrives in this pass; after it, an agent whose new first leg ends
        within its budget turns at that elbow onto its second leg
        (:func:`_heading`).  Those whose next way-point then lies beyond
        their budget move along their heading and are done; the rest jump
        to it, spend the distance, and go on to the next pass.  An agent
        whose budget runs out exactly at a way-point stops there, already
        facing its new direction.
        """
        v, L = self.params.v, self.params.L
        pos, dest, turn = self._pos, self._dest, self._turn
        for _ in range(ROLLOVER_CAP):
            if idx.size == 0:
                return
            at = turn[idx]  # on the second leg this is the destination
            arrive = self.leg[idx] == _SECOND
            goal = dest[idx]
            # an elbow (``> arrive``: not on its second leg) whose second
            # leg ends strictly within the budget arrives in this pass; one
            # ending exactly on it stops there in the next
            second = goal - at
            length = abs(second)  # exact: the leg lies along one axis
            chain = (length < budget) > arrive
            if np.count_nonzero(chain):
                if recorder is not None:
                    _record(recorder, idx[chain], at[chain], _heading(second[chain]),
                            _keep(clock, chain) + (v - budget[chain]) / v)
                at[chain] = goal[chain]
                budget[chain] -= length[chain]
                arrive |= chain
            vertical = np.zeros(idx.size, dtype=bool)
            if np.count_nonzero(arrive):
                draws = pcg64_random3(self._pcg, idx[arrive])
                goal[arrive] = complex_rows(np.multiply(draws[:, :2], L, order="C"))
                vertical[arrive] = draws[:, 2] < 0.5
            new_turn, leg, heading = _trips(_pairs(at), _pairs(goal), vertical)
            new_turn = complex_rows(new_turn)
            if recorder is not None:
                _record(recorder, idx, at, heading, clock + (v - budget) / v, arrive)
            gap = abs(new_turn - at)
            # an agent on a new first leg that ends within its budget turns
            # at its elbow in this pass, onto the second leg
            elbow = (gap <= budget) & (budget > 0.0) & (leg != _SECOND)
            if np.count_nonzero(elbow):
                budget[elbow] -= gap[elbow]
                at[elbow] = corner = new_turn[elbow]
                second = goal[elbow] - corner
                new_turn[elbow] = goal[elbow]
                leg[elbow] = _SECOND
                heading[elbow] = turned = _heading(second)
                gap[elbow] = abs(second)
                if recorder is not None:
                    _record(recorder, idx[elbow], corner, turned,
                            _keep(clock, elbow) + (v - budget[elbow]) / v)
            dest[idx] = goal
            turn[idx] = new_turn
            self.leg[idx] = leg
            self.heading[idx] = heading
            self._vel[idx] = self._velocity[heading]
            far = gap > budget
            left = budget > 0.0
            move = far & left
            if np.count_nonzero(move) == idx.size:
                # everyone has budget left and moves along its new leg
                pos[idx] = at + _UNIT[heading] * budget
                return
            pos[idx] = at
            pos[idx[move]] = at[move] + _UNIT[heading[move]] * budget[move]
            near = left > far  # budget left, and the next way-point within it
            idx, budget, clock = idx[near], budget[near] - gap[near], _keep(clock, near)
        if idx.size:
            raise RuntimeError("way-point rollover cap exceeded within one step")


def _codes(given, top: int) -> np.ndarray:
    """``given`` as int8, checked first, as the cast wraps 257 to 1 and
    truncates 0.5 to 0: ``ValueError`` unless integers in [0, top]."""
    given = np.asarray(given)  # a NaN fails both comparisons
    codes = given.astype(np.int8) if given.min() >= 0 and given.max() <= top else None
    if codes is None or not np.array_equal(codes, given):
        raise ValueError("leg must be 0 or 1 and heading 0 to 3")
    return codes


def _record(recorder, idx, at, heading, times, arrive=None) -> None:
    """Append a :class:`TripEvent` for each agent ``idx`` that ``recorder``
    watches: at the complex point ``at``, leaving with ``heading`` at time
    ``times``, an arrival where ``arrive`` is true and a turn elsewhere (all
    turns without it)."""
    for k in np.flatnonzero(recorder.rows[idx]).tolist():
        kind = ARRIVAL if arrive is not None and arrive[k] else TURN
        x, y = float(at[k].real), float(at[k].imag)
        event = TripEvent(kind, float(times[k]), x, y, Heading(int(heading[k])))
        recorder.events[int(idx[k])].append(event)


def _keep(clock, mask: np.ndarray):
    """The rows ``mask`` of a per-agent step index; one for all is kept."""
    return clock[mask] if isinstance(clock, np.ndarray) else clock


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
        draws = init_rng.random((n, 3))  # per agent: destination x, y, coin
        dest = draws[:, :2] * L
        population = Population(params, pos, dest, *_trips(pos, dest, draws[:, 2] < 0.5))
        population.advance(warmup_steps)
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
        # so the trip rule ignores their coin.
        x0, y0 = pos[:, 0], pos[:, 1]
        wv = np.where(dest[:, 1] > y0, y0, L - y0)
        wh = np.where(dest[:, 0] > x0, x0, L - x0)
        vertical = init_rng.random(n) * (wv + wh) < wv
        return Population(params, pos, dest, *_trips(pos, dest, vertical))
    raise ValueError(f"unknown init mode: {mode!r}")


def position_histogram(
    population: Population,
    bins: int,
    snapshots: int,
    spacing: int,
) -> np.ndarray:
    """Pooled normalised ``bins x bins`` histogram over periodic snapshots.

    Takes the current positions, then advances ``spacing`` steps between
    each of the remaining ``snapshots - 1`` snapshots, one :meth:`step`
    call each.
    """
    if snapshots < 1:
        raise ValueError(f"snapshots must be >= 1, got {snapshots}")
    if spacing < 0:
        raise ValueError(f"spacing must be >= 0, got {spacing}")
    L = population.params.L
    counts = np.zeros((bins, bins), dtype=np.int64)
    edges = np.linspace(0.0, L, bins + 1)
    for snap in range(snapshots):
        if snap > 0:
            for _ in range(spacing):
                population.step()
        h, _, _ = np.histogram2d(
            population.pos[:, 0], population.pos[:, 1], bins=[edges, edges]
        )
        counts += h.astype(np.int64)
    return counts / counts.sum()
