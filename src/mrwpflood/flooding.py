"""Synchronous flooding over the moving population.

At time zero only the source is informed and nothing is exchanged.  Each
subsequent step the population moves first, then every informed agent
simultaneously informs all agents within the communication radius (closed
ball, measured on the post-move snapshot).  Flooding time is the first step
at which everyone is informed.

Each step's neighbour index holds the senders only, the agents informed
before the step; the uninformed ones are its queries.  The exchange works on
one lattice, the index's own cells: bucket columns just wider than ``R``,
cut into square cells, whose size is fixed by the world (n, L, R) and not by
how many agents are informed.  Two stencils of cell offsets are fixed per
query radius: the *possible* one holds the offsets whose nearest points can
lie within the radius, the *certain* one those whose farthest points do.  An
agent outside the possible dilation of the senders' cells is a miss without
a search; one in the arena and inside the certain dilation of the senders in
the arena is a hit without a distance check.  Each other agent is paired
only with the senders in its search band (the sub-rows of three bucket
columns that can hold a point within ``R``), in pair chunks of a fixed size,
so transient memory is bounded.  Answers are exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    RNG_ALGORITHM_ID,
    SOURCE_STREAM_INDEX,
    AssumptionReport,
    WorldParams,
    check_assumptions,
    derive_substream,
    json_dict,
)
from .mobility import APPROX_STATIONARY, Population, init_population
from .zones import ZoneMap, build_zone_map, cz_neighborhood, grid_index

DEFAULT_BOUND_CONSTANTS = (18.0, 600.0)
FALLBACK_MAX_STEPS = 10_000_000
# Most (query, candidate) pairs a NeighborIndex query holds at once.
_PAIR_CHUNK = 1 << 21
# Most cells a side of the lattice of ``any_within`` (4 MB a mask); past it
# every query point is searched.
_CELL_SIDES = 1 << 11
# Most sub-rows per bucket of the NeighborIndex grid.
_SUB_ROWS = 8
# Most sub-columns per bucket column of the lattice.
_SUB_COLUMNS = 8
# Most cells a side of a lattice finer than the buckets, per sqrt(n).
_LATTICE_SPAN = 2.0
# Relative margin by which the NeighborIndex bucket side exceeds R and the
# search band exceeds the query disc, well above floating-point rounding.
_BAND_MARGIN = 1e-9
# Relative margin of the stencil radii, also well above rounding; below the
# bucket's, so that one cell per bucket gives the 3 x 3 block.
_STENCIL_MARGIN = 0.5 * _BAND_MARGIN

SOURCE_RANDOM = "random"
SOURCE_IN_CZ = "in_cz"
SOURCE_IN_SUBURB = "in_suburb"
SOURCE_FIXED_PREFIX = "agent:"


@functools.lru_cache(maxsize=256)
def _stencils(radius: float, cell: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row widths of the possible and the certain stencil of square cells
    of side ``cell`` for a query radius: rows ``d`` and ``-d`` hold the
    offsets ``(a, d)`` with ``|a| <= widths[d]``, later rows none.  Cells at
    offset ``(a, d)`` have nearest points ``cell * hypot(max(|a| - 1, 0),
    max(|d| - 1, 0))`` apart, within ``radius * (1 + _STENCIL_MARGIN)`` for
    the possible stencil, and farthest points ``cell * hypot(|a| + 1, |d| +
    1)`` apart, within ``radius * (1 - _STENCIL_MARGIN)`` for the certain."""
    reach = radius * (1.0 + _STENCIL_MARGIN) / cell
    possible = tuple(
        math.floor(math.sqrt(reach**2 - max(d - 1, 0) ** 2)) + 1
        for d in range(math.floor(reach) + 2)
    )
    reach = radius * (1.0 - _STENCIL_MARGIN) / cell
    certain = (
        math.floor(math.sqrt(reach**2 - (d + 1) ** 2)) - 1 for d in range(math.floor(reach))
    )
    return possible, tuple(w for w in certain if w >= 0)


def _dilate(cells: np.ndarray, pitch: int, widths: tuple[int, ...]) -> np.ndarray:
    """A flat lattice mask, cell ``(x, y)`` at ``x * pitch + y``, grown by a
    stencil of ``_stencils``: ``(x, y)`` is set when ``cells`` holds ``(x +
    a, y + d)`` with ``|a| <= widths[|d|]``.  From the last row in, the mask
    is grown along x to the row's width and ORed in shifted by ``d``; each
    run of ``pitch`` ends in more empty cells than the stencil has rows."""
    grown = np.zeros_like(cells)
    run, width = cells, 0
    for d in reversed(range(len(widths))):
        for width in range(width + 1, widths[d] + 1):
            wider = run.copy()
            wider[pitch:] |= run[:-pitch]
            wider[:-pitch] |= run[pitch:]
            run = wider
        grown[d:] |= run[: run.size - d]
        grown[: grown.size - d] |= run[d:]
    return grown


class NeighborIndex:
    """Bucket grid over agent positions for radius queries.

    The index holds the ``positions`` it is built on; ``flood_step`` builds
    it on the informed agents only.  The arena is cut into ``nb`` columns of
    width ``side``, just above the index radius ``R`` (by the factor ``1 +
    _BAND_MARGIN``), and into ``ny = k * nb`` sub-rows of height ``side /
    k``; a bucket is a ``side x side`` square of ``k`` sub-rows in one
    column.  Queries must use a radius in ``[0, R]``.  Because ``side``
    exceeds ``R`` by more than rounding can, two points within ``R`` lie in
    the same or adjacent columns and at most ``k`` sub-rows apart, so in the
    same bucket or in 8-neighbour ones.  Coordinates map to columns and
    sub-rows by ``zones.grid_index`` (truncation, clipped into the grid).
    Agents are sorted by the code ``column * ny + sub-row``, so each
    column's sub-rows have consecutive codes.  ``k`` (at most
    ``_SUB_ROWS``) is the largest that keeps every code below 2^16 where one
    can: numpy's stable sort of 16-bit keys is a radix sort, in the same
    order.

    A query searches, in each of the three columns around a point, only the
    sub-rows that can hold an agent within the radius (``_pairs``): about
    5.5 R^2 at ``k = 8``, against 9 R^2 for a 3 x 3 bucket block, in chunks
    of at most ``_PAIR_CHUNK`` pairs whatever the population size.

    ``any_within`` decides most points on a lattice of ``lattice`` square
    cells a side: each column cut into ``j`` sub-columns, the sub-rows
    grouped ``k / j`` at a time.  ``j`` is the largest divisor of ``k`` (at
    most ``_SUB_COLUMNS``) with ``j * nb <= _LATTICE_SPAN * sqrt(n)``, so
    the lattice has O(n) cells; there is none past ``_CELL_SIDES`` cells a
    side.  ``n`` is the population size the lattice is made for, by default
    the number of positions.  ``flood_step`` passes the world's ``n``, so
    its lattice is the same at every step, whatever the number of senders.
    Each agent's cell (``cells``) is found here, and the arena mask
    (``inside``) when an agent lies outside ``[0, L]^2``.  Answers are
    exact.
    """

    def __init__(
        self, positions: np.ndarray, L: float, R: float, n: int | None = None
    ):
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must have shape (n, 2)")
        self.positions = positions
        self.L = L
        self.R = R
        self.side = R * (1.0 + _BAND_MARGIN)
        self.nb = max(1, math.ceil(L / self.side))
        self.k = max(1, min(_SUB_ROWS, (1 << 16) // (self.nb * self.nb)))
        self.ny = self.k * self.nb
        self.height = self.side / self.k
        col, row = self._columns(positions[:, 0]), self._rows(positions[:, 1])
        self.codes = col * self.ny + row
        wide = self.nb * self.ny > 1 << 16
        key = self.codes if wide else self.codes.astype(np.uint16)
        self.order = np.argsort(key, kind="stable")
        self.sorted_codes = self.codes[self.order]
        n = len(positions) if n is None else n
        most = min(_LATTICE_SPAN * math.sqrt(n), _CELL_SIDES)
        divisors = [j for j in range(1, min(self.k, _SUB_COLUMNS) + 1) if self.k % j == 0]
        self.j = max(j for j in divisors if j == 1 or j * self.nb <= most)
        self.cell = self.side / self.j
        self.lattice = self.j * self.nb
        # a possible stencil has at most j + 1 rows (``_stencils``)
        self.pitch = self.lattice + self.j + 1
        self.cells = None
        if self.lattice <= _CELL_SIDES:
            sub = col if self.j == 1 else self._sub_columns(positions[:, 0])
            self.cells = sub * self.pitch + row // (self.k // self.j)
        self.inside = None
        if positions.size and not (positions.min() >= 0.0 and positions.max() <= L):
            self.inside = self._in_arena(positions)

    def _columns(self, x: np.ndarray) -> np.ndarray:
        return grid_index(x, self.side, self.nb)

    def _rows(self, y: np.ndarray) -> np.ndarray:
        return grid_index(y, self.height, self.ny)

    def _sub_columns(self, x: np.ndarray) -> np.ndarray:
        return grid_index(x, self.cell, self.lattice)

    def _pairs(self, pts: np.ndarray, mask: np.ndarray, radius: float):
        """Yield (query index, candidate agent index) arrays pairing each
        point with every agent that has ``mask`` true in its search band,
        at most ``_PAIR_CHUNK`` pairs at a time.  Every such agent within
        ``radius`` of the point is among its pairs.

        The band holds, for each of the point's own column and the two
        beside it, the sub-rows within ``sqrt(radius^2 - g^2)`` of the
        point's y, where ``g`` is the x-gap from the point to the column (0
        for its own); a column with ``g > radius`` is skipped.  A clipped
        edge column reaches past the grid, so the gap is measured to the
        column's near edge only.  ``g`` is shrunk and the radius grown by
        the relative ``_BAND_MARGIN``, which exceeds the rounding of the
        gaps, square roots and row bounds."""
        members, codes = self.order, self.sorted_codes
        if not mask.all():  # an index of the senders masks every agent
            keep = mask[self.order]
            members, codes = members[keep], codes[keep]
        # gap to the column on the left, to the own column, to the right
        x, y = pts[:, 0], pts[:, 1:]
        col = self._columns(x)
        into = x - col * self.side
        gap = np.maximum(into[:, None] * (1.0, 0.0, -1.0) + (0.0, 0.0, self.side), 0.0)
        gap *= 1.0 - _BAND_MARGIN
        reach = (radius * (1.0 + _BAND_MARGIN)) ** 2 - gap * gap
        half = np.sqrt(np.maximum(reach, 0.0))
        # Columns off the grid give code ranges below 0 or at least
        # nb * ny, which hold no code.
        first = (col[:, None] + np.arange(-1, 2)) * self.ny
        lo = np.searchsorted(codes, first + self._rows(y - half), side="left")
        hi = np.searchsorted(codes, first + self._rows(y + half), side="right")
        counts = np.where(reach >= 0.0, hi - lo, 0).ravel()
        live = np.flatnonzero(counts)
        query, counts = live // 3, counts[live]
        ends = np.cumsum(counts)
        firsts = ends - counts
        # pair p of a slot whose first pair is f and whose range starts at
        # lo takes members[lo - f + p]
        shift = lo.ravel()[live] - firsts
        total = int(ends[-1]) if ends.size else 0
        for a in range(0, total, _PAIR_CHUNK):
            b = min(a + _PAIR_CHUNK, total)
            s0 = int(np.searchsorted(ends, a, side="right"))
            s1 = int(np.searchsorted(ends, b - 1, side="right")) + 1
            take = np.minimum(ends[s0:s1], b) - np.maximum(firsts[s0:s1], a)
            slot = np.repeat(np.arange(s0, s1), take)
            yield query[slot], members[shift[slot] + np.arange(a, b)]

    def _close(
        self, pts: np.ndarray, query: np.ndarray, cand: np.ndarray, radius: float
    ) -> np.ndarray:
        """Whether agent ``cand[k]`` lies within ``radius`` of point
        ``pts[query[k]]`` (closed ball), for each pair k."""
        dx = self.positions[:, 0][cand] - pts[:, 0][query]
        dy = self.positions[:, 1][cand] - pts[:, 1][query]
        return dx * dx + dy * dy <= radius * radius

    def _check_radius(self, radius: float) -> None:
        """Reject a query radius outside ``[0, R]``, NaN included."""
        if not 0.0 <= radius <= self.R:
            raise ValueError(
                f"query radius {radius} is outside [0, {self.R}], the index radius"
            )

    def _in_arena(self, pts: np.ndarray) -> np.ndarray:
        """Whether each point lies in ``[0, L]^2``."""
        x, y = pts[:, 0], pts[:, 1]
        return (x >= 0.0) & (x <= self.L) & (y >= 0.0) & (y <= self.L)

    def _held(self, mask: np.ndarray) -> np.ndarray:
        """Flat lattice mask of the cells holding an agent with ``mask``."""
        held = np.zeros(self.lattice * self.pitch, dtype=bool)
        held[self.cells[mask]] = True
        return held

    def _marks(
        self, pts: np.ndarray, mask: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """(possible, certain): for each query point, whether an agent with
        ``mask`` true may lie within ``radius`` of it, and whether the
        lattice proves that one does.  The cells holding such agents are
        grown by the stencils of ``_stencils(radius, cell)``, whose margin
        exceeds the rounding of the cell bounds.  Clipping a point into the
        lattice never widens its gap to a cell, so the possible dilation
        misses no hit.  The certain one takes only agents and points in the
        arena, which ``grid_index`` puts into the cells they lie in.  Every
        certain mark is a possible one."""
        possible_rows, certain_rows = _stencils(radius, self.cell)
        held = self._held(mask)
        near = _dilate(held, self.pitch, possible_rows)
        if self.inside is not None:
            held = self._held(mask & self.inside)
        sure = _dilate(held, self.pitch, certain_rows)
        rows = self._rows(pts[:, 1]) // (self.k // self.j)
        cell = self._sub_columns(pts[:, 0]) * self.pitch + rows
        possible = near[cell]
        kept = np.flatnonzero(possible)
        marked = kept[sure[cell[kept]]]
        certain = np.zeros_like(possible)
        certain[marked[self._in_arena(np.take(pts, marked, axis=0))]] = True
        return possible, certain

    def any_within(
        self, pts: np.ndarray, mask: np.ndarray, radius: float
    ) -> np.ndarray:
        """For each query point, whether any agent with ``mask`` true lies
        within ``radius`` of it (closed ball).

        Points outside the possible dilation (``_marks``) are misses
        without a search, and points marked certain are hits without a
        distance check.  Only the rest, or every point when there is no
        lattice, are paired by their bands (``_pairs``) and checked."""
        self._check_radius(radius)
        out = np.zeros(pts.shape[0], dtype=bool)
        if pts.shape[0] == 0 or not mask.any():
            return out
        if self.cells is None:
            rest = np.arange(pts.shape[0])
        else:
            possible, out = self._marks(pts, mask, radius)
            rest = np.flatnonzero(possible & ~out)
        left = np.take(pts, rest, axis=0)
        for query, cand in self._pairs(left, mask, radius):
            out[rest[query[self._close(left, query, cand, radius)]]] = True
        return out


# ---------------------------------------------------------------------------
# flood state and stepping
# ---------------------------------------------------------------------------

@dataclass
class FloodState:
    """Mutable per-run flooding state."""

    informed: np.ndarray  # bool per agent
    step: int
    source: int

    @property
    def informed_count(self) -> int:
        return int(self.informed.sum())

    @property
    def all_informed(self) -> bool:
        return bool(self.informed.all())


def flood_step(population: Population, state: FloodState) -> None:
    """One protocol step: move everyone, then synchronously inform every
    uninformed agent within the radius of an informed one.  The neighbour
    index holds the informed agents only, on the world's lattice."""
    population.step()
    state.step += 1
    if state.all_informed:
        return
    p = population.params
    senders = np.take(population.pos, np.flatnonzero(state.informed), axis=0)
    index = NeighborIndex(senders, p.L, p.R, p.n)
    targets = np.flatnonzero(~state.informed)
    pts = np.take(population.pos, targets, axis=0)
    hit = index.any_within(pts, np.ones(len(senders), dtype=bool), p.R)
    state.informed[targets[hit]] = True


def informed_cells(
    population: Population, state: FloodState, zone_map: ZoneMap
) -> tuple[np.ndarray, int]:
    """(m x m mask of central cells whose occupants are all informed — empty
    cells count, number of suburb agents currently informed).

    Where its ``2 m^2`` bins are no more than the agents, one ``bincount``
    of ``2 * cell + informed`` counts each cell's uninformed and informed
    agents.  In sparser worlds the bins would cost more than the agents, and
    the cells of the uninformed agents are marked directly instead."""
    m = zone_map.m
    i, j = zone_map.cell_index(population.pos)
    codes = i * m + j  # flat indexing is about twice as fast as 2-D here
    central_flat = zone_map.central.reshape(-1)
    if 2 * m * m <= len(codes):
        counts = np.bincount(2 * codes + state.informed, minlength=2 * m * m)
        cells = central_flat & (counts[0::2] == 0)
        suburb_informed = int(counts[1::2][~central_flat].sum())
    else:
        blocked = np.zeros(m * m, dtype=bool)
        blocked[codes[~state.informed]] = True
        cells = central_flat & ~blocked
        suburb_informed = int(np.count_nonzero(~central_flat[codes] & state.informed))
    return cells.reshape(m, m), suburb_informed


# ---------------------------------------------------------------------------
# density monitor
# ---------------------------------------------------------------------------

@dataclass
class DensityMonitor:
    """Counts core-occupancy violations: (step, cell) pairs where a central
    cell's middle-ninth core holds fewer than ``eta * ln(n)`` agents."""

    zone_map: ZoneMap
    eta: float
    n: int
    violations: int = 0

    @property
    def floor(self) -> float:
        return self.eta * math.log(self.n)

    def observe(self, positions: np.ndarray) -> int:
        """Count agents in every central core; returns this step's number
        of violating cells and accumulates the totals."""
        z = self.zone_map
        i, j = z.cell_index(positions)
        fx = positions[:, 0] / z.ell - i
        fy = positions[:, 1] / z.ell - j
        in_core = (
            (fx >= 1.0 / 3.0) & (fx < 2.0 / 3.0) & (fy >= 1.0 / 3.0) & (fy < 2.0 / 3.0)
        )
        counts = np.bincount(i[in_core] * z.m + j[in_core], minlength=z.m * z.m)
        core_counts = counts[z.central.reshape(-1)]
        bad = int((core_counts < self.floor).sum())
        self.violations += bad
        return bad


def density_monitor(
    population: Population,
    zone_map: ZoneMap,
    eta: float,
    horizon: int,
) -> int:
    """Step an (already stationary) population ``horizon`` times and count
    the (step, cell) pairs where a central core held fewer than
    ``eta * ln(n)`` agents."""
    monitor = DensityMonitor(zone_map, eta, population.params.n)
    for _ in range(horizon):
        population.step()
        monitor.observe(population.pos)
    return monitor.violations


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """Everything observed in one flooding run, JSON-serialisable."""

    params: WorldParams
    init_mode: str
    warmup_steps: int | None
    source_rule: str
    source_agent: int
    flooding_time: int | None
    timed_out: bool
    cz_spread_time: int | None
    theoretical_bound: float
    bound_constants: tuple[float, float]
    assumptions: AssumptionReport
    max_steps: int
    violations: dict[str, int]
    progress: list[tuple[int, int, int, int]]  # (step, informed, cz cells, suburb)

    JSON_EXTRA = ("rng_algorithm",)
    rng_algorithm = RNG_ALGORITHM_ID
    to_json_dict = json_dict


def suburb_reach(zone_map: ZoneMap) -> float:
    """Travel-distance term of the time budget: the reference suburb
    diameter when suburb cells exist, zero when the central zone covers the
    whole grid."""
    return 0.0 if zone_map.suburb_empty else zone_map.suburb_diameter


def flood_time_budget(
    params: WorldParams,
    zone_map: ZoneMap,
    constants: tuple[float, float] = DEFAULT_BOUND_CONSTANTS,
) -> float:
    """``a L / R + b S / v`` with the suburb term dropped when the suburb is
    empty; infinite for immobile agents with a nonempty suburb."""
    a, b = constants
    reach = suburb_reach(zone_map)
    if reach == 0.0:
        return a * params.L / params.R
    if params.v == 0.0:
        return math.inf
    return a * params.L / params.R + b * reach / params.v


def default_max_steps(
    params: WorldParams,
    zone_map: ZoneMap,
    constants: tuple[float, float] = DEFAULT_BOUND_CONSTANTS,
) -> int:
    """Step cap: 100x the theoretical budget when the standing assumptions
    hold and the budget is finite, otherwise a fixed large fallback."""
    if check_assumptions(params).all_ok:
        budget = flood_time_budget(params, zone_map, constants)
        if math.isfinite(budget):
            return max(1, math.ceil(100.0 * budget))
    return FALLBACK_MAX_STEPS


class SourcePlacementError(RuntimeError):
    """Raised when the requested source zone currently holds no agent."""


def choose_source(
    rule: str,
    population: Population,
    zone_map: ZoneMap,
    rng: np.random.Generator,
) -> int:
    """Pick the source agent.

    ``random`` draws any agent; ``in_cz`` / ``in_suburb`` draw uniformly
    among agents currently inside central / suburb cells (raising when the
    requested zone holds no agent); ``agent:<id>`` is explicit.
    """
    n = population.params.n
    if rule == SOURCE_RANDOM:
        return int(rng.integers(n))
    if rule.startswith(SOURCE_FIXED_PREFIX):
        agent = int(rule[len(SOURCE_FIXED_PREFIX):])
        if not 0 <= agent < n:
            raise ValueError(f"source agent {agent} out of range")
        return agent
    in_central = zone_map.central[zone_map.cell_index(population.pos)]
    if rule == SOURCE_IN_CZ:
        pool = np.flatnonzero(in_central)
    elif rule == SOURCE_IN_SUBURB:
        pool = np.flatnonzero(~in_central)
    else:
        raise ValueError(f"unknown source rule: {rule!r}")
    if pool.size == 0:
        raise SourcePlacementError(f"no agent available for source rule {rule!r}")
    return int(pool[rng.integers(pool.size)])


def frontier_floor(params: WorldParams, gap: float) -> int:
    """Minimum steps for information to cross a straight-line gap: each
    step the frontier-to-target distance shrinks by at most R + 2v."""
    if gap <= 0:
        return 0
    return math.ceil(gap / (params.R + 2.0 * params.v))


def run_flood(
    params: WorldParams,
    source_rule: str = SOURCE_RANDOM,
    init_mode: str = APPROX_STATIONARY,
    warmup_steps: int | None = None,
    zone_map: ZoneMap | None = None,
    max_steps: int | None = None,
    bound_constants: tuple[float, float] = DEFAULT_BOUND_CONSTANTS,
    check_stability: bool = False,
    collect_progress: bool = False,
    population: Population | None = None,
    on_step: Callable[[Population, FloodState], None] | None = None,
) -> RunRecord:
    """Run one complete flood and return its record.

    The population starts in (approximate) stationarity, the source is
    chosen by ``source_rule`` from a dedicated substream, and the protocol
    runs until everyone is informed or ``max_steps`` is hit (``timed_out``).
    ``cz_spread_time`` is the first step at which every central cell is
    fully informed (vacuously for empty cells).

    ``check_stability`` attaches the core-density monitor and additionally
    counts stability violations: whenever the density condition held at a
    step, every fully-informed central cell and its central neighbours must
    be fully informed at the next step.
    """
    if zone_map is None:
        zone_map = build_zone_map(params)
    if population is None:
        population = init_population(params, init_mode, warmup_steps)
    source_rng = derive_substream(params.seed, SOURCE_STREAM_INDEX)
    source = choose_source(source_rule, population, zone_map, source_rng)
    if max_steps is None:
        max_steps = default_max_steps(params, zone_map, bound_constants)
    informed = np.zeros(params.n, dtype=bool)
    informed[source] = True
    state = FloodState(informed=informed, step=0, source=source)
    gaps = population.pos - population.pos[source]
    d_far = float(np.sqrt((gaps**2).sum(axis=1)).max())
    monitor = (
        DensityMonitor(zone_map, params.eta, params.n) if check_stability else None
    )
    stability_violations = 0
    progress: list[tuple[int, int, int, int]] = []
    cz_spread_time: int | None = None
    cells, suburb_inf = informed_cells(population, state, zone_map)
    cell_count = int(cells.sum())
    if cell_count == zone_map.cz_size:
        cz_spread_time = 0
    if collect_progress:
        progress.append((0, state.informed_count, cell_count, suburb_inf))
    prev_guard = False
    if monitor is not None:
        prev_guard = monitor.observe(population.pos) == 0
    prev_cells = cells
    flooding_time: int | None = 0 if state.all_informed else None
    while flooding_time is None and state.step < max_steps:
        flood_step(population, state)
        guard = False
        if monitor is not None:
            guard = monitor.observe(population.pos) == 0
        need_cells = (
            collect_progress or check_stability or cz_spread_time is None
        )
        if need_cells:
            cells, suburb_inf = informed_cells(population, state, zone_map)
            cell_count = int(cells.sum())
            if cz_spread_time is None and cell_count == zone_map.cz_size:
                cz_spread_time = state.step
            if check_stability and prev_guard:
                required = cz_neighborhood(prev_cells, zone_map)
                stability_violations += int((required & ~cells).sum())
            prev_cells = cells
        prev_guard = guard
        if collect_progress:
            progress.append((state.step, state.informed_count, cell_count, suburb_inf))
        if on_step is not None:
            on_step(population, state)
        if state.all_informed:
            flooding_time = state.step
    timed_out = flooding_time is None
    if flooding_time is not None:
        floor = frontier_floor(params, d_far - params.R)
        if flooding_time < floor:
            raise RuntimeError(
                f"flooding time {flooding_time} beats the physical frontier "
                f"floor {floor}; the exchange step is broken"
            )
    violations: dict[str, int] = {}
    if monitor is not None:
        violations["core_occupancy"] = monitor.violations
        violations["stability"] = stability_violations
    return RunRecord(
        params=params,
        init_mode=init_mode,
        warmup_steps=warmup_steps,
        source_rule=source_rule,
        source_agent=source,
        flooding_time=flooding_time,
        timed_out=timed_out,
        cz_spread_time=cz_spread_time,
        theoretical_bound=flood_time_budget(params, zone_map, bound_constants),
        bound_constants=bound_constants,
        assumptions=check_assumptions(params),
        max_steps=max_steps,
        violations=violations,
        progress=progress,
    )
