"""Synchronous flooding over the moving population.

At time zero only the source is informed and nothing is exchanged.  Each
subsequent step the population moves first, then every informed agent
simultaneously informs all agents within the communication radius (closed
ball, measured on the post-move snapshot).  Flooding time is the first step
at which everyone is informed.

Each step's neighbour index holds the senders only, the agents informed
before the step; its queries are the uninformed agents the message can have
reached.  An agent informed at step ``s`` started within ``s (R + 2v)`` of
the source, which ``flood_step`` checks from each agent's starting distance
(so ``run_flood``'s ``on_step`` must not move the agents).  An exchange of
at most ``_DIRECT_PAIRS`` (query, sender) pairs, as in most steps far below
the connectivity threshold, checks every pair by distance and grids no
agent.  A larger one works on one lattice, the index's own cells: bucket
columns just wider than ``R``, cut into square cells, whose size is fixed
by the world (n, L, R) and not by how many agents are informed.  Two
stencils of cell offsets are fixed per query radius: the *possible* one
holds the offsets whose nearest points can lie within the radius, the
*certain* one those whose farthest points do.  An agent outside the
possible dilation of the senders' cells is a miss without a search; one in
the arena and inside the certain dilation of the senders in the arena is a
hit without a distance check.  Each other agent is paired only with the
senders in its search band (the sub-rows of three bucket columns that can
hold a point within ``R``), in pair chunks of a fixed size, so transient
memory is bounded.  Both paths check a pair by one kernel, the difference
of two 16-byte rows, and the band search ORs the checks of each band.
Answers are exact on both paths.
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
    complex_rows,
    derive_substream,
    json_dict,
)
from .mobility import APPROX_STATIONARY, Population, init_population
from .zones import ZoneMap, build_zone_map, cz_neighborhood, grid_index

DEFAULT_BOUND_CONSTANTS = (18.0, 600.0)
FALLBACK_MAX_STEPS = 10_000_000
# Most (query point, sender) pairs ``NeighborIndex.any_within`` checks
# directly, without the lattice: below the break-even, about 40k pairs at
# n = 2000 and more at larger n (``NeighborIndex``).
_DIRECT_PAIRS = 1 << 15
# Most (query, candidate) pairs a NeighborIndex query holds at once.
_PAIR_CHUNK = 1 << 21
# Most band-table entries (``nb * ny``) per indexed agent; past it
# ``_pairs`` finds band ranges by binary search in place of the table.
_TABLE_PER_AGENT = 1
# Slack of the reach filter, relative to its bound and to L, as
# ``mobility._SLACK``: far above the rounding of the moves, the distances and
# the bound.
_REACH_SLACK = 2.0**-40
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


@functools.lru_cache(maxsize=256)
def _growth(stencils: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int, int], ...]:
    """(width, stencil, row) for every row of every stencil, by width: the
    order in which ``_dilate`` grows one run along x for all of them."""
    plan = ((w, s, d) for s, rows in enumerate(stencils) for d, w in enumerate(rows))
    return tuple(sorted(plan))


def _dilate(cells: np.ndarray, pitch: int, *stencils: tuple[int, ...]) -> list[np.ndarray]:
    """A flat lattice mask, cell ``(x, y)`` at ``x * pitch + y``, grown by
    each of the stencils of ``_stencils``: ``(x, y)`` is set in the mask of
    stencil ``widths`` when ``cells`` holds ``(x + a, y + d)`` with ``|a| <=
    widths[|d|]``.  One run is grown along x, width by width, and each
    stencil's row ``d`` ORs it in shifted by ``d`` once the run has that
    row's width; so stencils grown together share the growth along x.  Each
    run of ``pitch`` ends in more empty cells than a stencil has rows."""
    grown = [np.zeros_like(cells) for _ in stencils]
    run, width = cells, 0
    for w, s, d in _growth(stencils):
        for width in range(width + 1, w + 1):
            wider = run.copy()
            wider[pitch:] |= run[:-pitch]
            wider[:-pitch] |= run[pitch:]
            run = wider
        grown[s][d:] |= run[: run.size - d]
        grown[s][: run.size - d] |= run[d:]
    return grown


def _within(diff: np.ndarray, radius: float) -> np.ndarray:
    """Whether each complex row difference (``core.complex_rows``), of any
    shape, lies within ``radius`` (closed ball).  The float view is squared
    in place and each item's two halves added: ``dx*dx + dy*dy`` bit for
    bit.  ``diff`` is overwritten."""
    square = diff.view(np.float64)
    square *= square
    return diff.real + diff.imag <= radius * radius


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
    sub-rows by ``zones.grid_index`` (truncation, clipped into the grid
    only where some cell lies outside it).
    Each agent has the code ``column * ny + sub-row``, so each column's
    sub-rows have consecutive codes.  ``k`` (at most ``_SUB_ROWS``) is the
    largest that keeps every code below 2^16 where one can: numpy's stable
    sort of 16-bit keys is a radix sort, in the same order.

    A query searches, in each of the three columns around a point, only the
    sub-rows that can hold an agent within the radius (``_pairs``): about
    5.5 R^2 at ``k = 8``, against 9 R^2 for a 3 x 3 bucket block, in chunks
    of at most ``_PAIR_CHUNK`` pairs whatever the population size.  The
    agents are sorted by code (``order``) on the first such band search, and
    not at all by an index that needs none.  A band's agents are a range of
    that order.  Where the ``nb * ny`` codes are no more than the agents
    searched, the ranges are read from a table of where each code ends (a
    cumulative ``bincount``); otherwise they are found by binary search in
    the sorted codes, which costs less than a table far larger than the
    index.

    ``any_within`` decides most points on a lattice of ``lattice`` square
    cells a side: each column cut into ``j`` sub-columns, the sub-rows
    grouped ``k / j`` at a time.  ``j`` is the largest divisor of ``k`` (at
    most ``_SUB_COLUMNS``) with ``j * nb <= _LATTICE_SPAN * sqrt(n)``, so
    the lattice has O(n) cells; there is none past ``_CELL_SIDES`` cells a
    side.  ``n`` is the population size the lattice is made for, by default
    the number of positions.  ``flood_step`` passes the world's ``n``, so
    its lattice is the same at every step, whatever the number of senders.
    Building the index sets these sizes only.  Each agent's code and cell
    (``codes``, ``cells``) are found together on their first use, and the
    arena mask (``inside``, ``None`` when every agent lies in ``[0,
    L]^2``) on its first use.

    A query of ``t`` points against ``s`` masked agents with ``s * t <=
    _DIRECT_PAIRS`` skips all of this: it checks every pair by the band
    search's kernel (``_within``), with an ``(s, t)`` complex temporary of
    at most 512 KB.  On the exchanges of corner-trial floods (n = 2000, 2
    cores) the direct check took about 3.0-3.4 ns a pair (17 us at 1-4k
    pairs, 70-80 us at 16-32k), while building an index and answering on
    its lattice took 115-145 us at every size: break-even near 40-45k
    pairs, above the 2^15 of ``_DIRECT_PAIRS``.  The lattice's fixed cost
    grows with its O(n) cells (8 random senders and 250 targets: about
    170, 220 and 325-390 us at n = 2k, 32k and 128k), and so does the
    break-even.  Both paths
    read positions as 16-byte rows, so the index and the queries hold
    C-contiguous float64 copies of any other input.  Answers are exact on
    both paths.
    """

    def __init__(
        self, positions: np.ndarray, L: float, R: float, n: int | None = None
    ):
        positions = np.ascontiguousarray(positions, dtype=float)
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
        n = len(positions) if n is None else n
        most = min(_LATTICE_SPAN * math.sqrt(n), _CELL_SIDES)
        divisors = [j for j in range(1, min(self.k, _SUB_COLUMNS) + 1) if self.k % j == 0]
        self.j = max(j for j in divisors if j == 1 or j * self.nb <= most)
        self.cell = self.side / self.j
        self.lattice = self.j * self.nb
        # a possible stencil has at most j + 1 rows (``_stencils``)
        self.pitch = self.lattice + self.j + 1

    @functools.cached_property
    def _grid(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(codes, cells) of the agents, computed together on first use."""
        x, y = self.positions[:, 0], self.positions[:, 1]
        row = self._rows(y)
        if self.lattice > _CELL_SIDES:
            return self._columns(x) * self.ny + row, None
        sub = self._sub_columns(x)
        cells = sub * self.pitch + self._lattice_rows(row)
        if self.j & (self.j - 1):
            col = self._columns(x)
        else:
            # cell = side / j is exact, so x / cell is j (x / side) bit for
            # bit, and j sub-columns, truncated and clipped, make a column
            # (wherever x / cell truncates into an int64)
            col = sub >> (self.j.bit_length() - 1)
        return col * self.ny + row, cells

    @property
    def codes(self) -> np.ndarray:
        """Each agent's bucket code, ``column * ny + sub-row``."""
        return self._grid[0]

    @property
    def cells(self) -> np.ndarray | None:
        """Each agent's flat lattice cell, or ``None`` for no lattice."""
        return self._grid[1]

    @functools.cached_property
    def inside(self) -> np.ndarray | None:
        """Whether each agent lies in ``[0, L]^2``, or ``None`` when all do."""
        pos = self.positions
        return None if self._all_in_arena(pos) else self._in_arena(pos)

    @functools.cached_property
    def order(self) -> np.ndarray:
        """The agents by code, stably, sorted on first use; the keys are
        16-bit wherever the codes fit."""
        wide = self.nb * self.ny > 1 << 16
        key = self.codes if wide else self.codes.astype(np.uint16)
        return np.argsort(key, kind="stable")

    def _columns(self, x: np.ndarray) -> np.ndarray:
        return grid_index(x, self.side, self.nb)

    def _rows(self, y: np.ndarray) -> np.ndarray:
        return grid_index(y, self.height, self.ny)

    def _sub_columns(self, x: np.ndarray) -> np.ndarray:
        return grid_index(x, self.cell, self.lattice)

    def _lattice_rows(self, row: np.ndarray) -> np.ndarray:
        return row if self.j == self.k else row // (self.k // self.j)

    def _pairs(self, pts: np.ndarray, mask: np.ndarray, radius: float):
        """Pair each point with every agent that has ``mask`` true in its
        search band, at most ``_PAIR_CHUNK`` pairs at a time.  Every such
        agent within ``radius`` of the point is among its pairs.

        A slot is one point's band in one column: a range of agents by
        code.  Each chunk yields (candidate agents, point of each of its
        slots, where each slot starts among the candidates); a slot holds
        at least one candidate, and one cut by a chunk's end goes on at the
        start of the next chunk, for the same point.

        The band holds, for each of the point's own column and the two
        beside it, the sub-rows within ``sqrt(radius^2 - g^2)`` of the
        point's y, where ``g`` is the x-gap from the point to the column (0
        for its own); a column with ``g > radius`` is skipped.  A clipped
        edge column reaches past the grid, so the gap is measured to the
        column's near edge only.  ``g`` is shrunk and the radius grown by
        the relative ``_BAND_MARGIN``, which exceeds the rounding of the
        gaps, square roots and row bounds."""
        if len(pts) == 0:
            return
        every = mask.all()  # an index of the senders masks every agent
        order = self.order
        members = order if every else order[mask[order]]
        # gap to the column on the left, to the own column, to the right
        x, y = pts[:, 0], pts[:, 1:]
        col = self._columns(x)
        into = x - col * self.side
        gap = np.maximum(into[:, None] * (1.0, 0.0, -1.0) + (0.0, 0.0, self.side), 0.0)
        gap *= 1.0 - _BAND_MARGIN
        reach = (radius * (1.0 + _BAND_MARGIN)) ** 2 - gap * gap
        half = np.sqrt(np.maximum(reach, 0.0))
        first = (col[:, None] + np.arange(-1, 2)) * self.ny
        low, high = first + self._rows(y - half), first + self._rows(y + half)
        size = self.nb * self.ny
        if size <= _TABLE_PER_AGENT * len(members):
            # table[c + ny] agents have a code below c; the columns off the
            # grid, codes in [-ny, 0) and [size, size + ny), read 0 and all
            table = np.zeros(size + 2 * self.ny + 1, dtype=np.intp)
            np.cumsum(
                np.bincount(self.codes if every else self.codes[mask], minlength=size),
                out=table[self.ny + 1 : size + self.ny + 1],
            )
            table[size + self.ny + 1 :] = len(members)
            lo, hi = table[low + self.ny], table[high + self.ny + 1]
        else:
            # columns off the grid give code ranges below 0 or at least
            # size, which hold no code
            codes = self.codes[members]
            lo = np.searchsorted(codes, low, side="left")
            hi = np.searchsorted(codes, high, side="right")
        counts = np.where(reach >= 0.0, hi - lo, 0).ravel()
        live = np.flatnonzero(counts)
        point, counts = live // 3, counts[live]
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
            starts = np.maximum(firsts[s0:s1], a)
            take = np.minimum(ends[s0:s1], b) - starts
            cand = np.repeat(shift[s0:s1], take)
            cand += np.arange(a, b)
            yield members[cand], point[s0:s1], starts - a

    def _check_radius(self, radius: float) -> None:
        """Reject a query radius outside ``[0, R]``, NaN included."""
        if not 0.0 <= radius <= self.R:
            raise ValueError(
                f"query radius {radius} is outside [0, {self.R}], the index radius"
            )

    def _all_in_arena(self, pts: np.ndarray) -> bool:
        """Whether every point lies in ``[0, L]^2``, by one min and one max
        (NaN fails both)."""
        return not pts.size or bool(pts.min() >= 0.0 and pts.max() <= self.L)

    def _in_arena(self, pts: np.ndarray) -> np.ndarray:
        """Whether each point lies in ``[0, L]^2``."""
        x, y = pts[:, 0], pts[:, 1]
        return (x >= 0.0) & (x <= self.L) & (y >= 0.0) & (y <= self.L)

    def _held(self, mask: np.ndarray) -> np.ndarray:
        """Flat lattice mask of the cells holding an agent with ``mask``."""
        held = np.zeros(self.lattice * self.pitch, dtype=bool)
        held[self.cells if mask.all() else self.cells[mask]] = True
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
        arena, which ``grid_index`` puts into the cells they lie in, so
        with every agent in the arena both stencils grow the same cells, in
        one ``_dilate``; where one min and one max put every point in the
        arena, no marked point is tested on its own.  Every certain mark is
        a possible one."""
        possible_rows, certain_rows = _stencils(radius, self.cell)
        held = self._held(mask)
        if self.inside is None:
            near, sure = _dilate(held, self.pitch, possible_rows, certain_rows)
        else:
            (near,) = _dilate(held, self.pitch, possible_rows)
            (sure,) = _dilate(self._held(mask & self.inside), self.pitch, certain_rows)
        rows = self._lattice_rows(self._rows(pts[:, 1]))
        cell = self._sub_columns(pts[:, 0]) * self.pitch + rows
        possible = near[cell]
        kept = np.flatnonzero(possible)
        marked = kept[sure[cell[kept]]]
        if not self._all_in_arena(pts):
            marked = marked[self._in_arena(np.take(pts, marked, axis=0))]
        certain = np.zeros_like(possible)
        certain[marked] = True
        return possible, certain

    def _direct(
        self, pts: np.ndarray, mask: np.ndarray, senders: int, radius: float
    ) -> np.ndarray:
        """``any_within`` by checking every point against each of the
        ``senders`` agents with ``mask`` (``_within``)."""
        held = complex_rows(self.positions)
        if senders < len(mask):
            held = held[mask]
        # a (sender, point) array: reduced along the senders, this ran about
        # a quarter faster than rows of a few senders each
        return _within(held[:, None] - complex_rows(pts), radius).any(axis=0)

    def any_within(
        self, pts: np.ndarray, mask: np.ndarray, radius: float
    ) -> np.ndarray:
        """For each query point, whether any agent with ``mask`` true lies
        within ``radius`` of it (closed ball).

        At most ``_DIRECT_PAIRS`` (point, agent) pairs, none or no agents
        included, are all checked (``_direct``).  Otherwise points outside
        the possible dilation (``_marks``) are misses without a search, and
        points marked certain are hits without a distance check.  Only the
        rest, or every point when there is no lattice, are paired by their
        bands (``_pairs``): each pair is checked as the difference of two
        complex rows (``_within``), and a point is a hit when any pair of
        any of its slots is."""
        self._check_radius(radius)
        pts = np.ascontiguousarray(pts, dtype=float)
        senders = int(np.count_nonzero(mask))
        if len(pts) * senders <= _DIRECT_PAIRS:
            return self._direct(pts, mask, senders, radius)
        out = np.zeros(pts.shape[0], dtype=bool)
        if self.cells is None:
            rest = np.arange(pts.shape[0])
        else:
            possible, out = self._marks(pts, mask, radius)
            rest = np.flatnonzero(possible & ~out)
        left = np.take(pts, rest, axis=0)
        rows, points = complex_rows(self.positions), complex_rows(left)
        for cand, point, starts in self._pairs(left, mask, radius):
            sizes = np.empty_like(starts)  # np.diff costs more on few slots
            np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
            sizes[-1] = len(cand) - starts[-1]
            diff = rows[cand]
            diff -= np.repeat(points[point], sizes)
            hit = np.logical_or.reduceat(_within(diff, radius), starts)
            out[rest[point[hit]]] = True
        return out


# ---------------------------------------------------------------------------
# flood state and stepping
# ---------------------------------------------------------------------------

@dataclass
class FloodState:
    """Mutable per-run flooding state.

    ``reach`` holds each agent's distance from the source at time zero, or
    ``None`` for no reach filter (``flood_step``); ``run_flood`` sets it."""

    informed: np.ndarray  # bool per agent
    step: int
    source: int
    reach: np.ndarray | None = None

    @property
    def informed_count(self) -> int:
        return int(np.count_nonzero(self.informed))

    @property
    def all_informed(self) -> bool:
        return bool(self.informed.all())


def flood_step(population: Population, state: FloodState) -> None:
    """One protocol step: move everyone, then synchronously inform every
    uninformed agent within the radius of an informed one.  The neighbour
    index holds the informed agents only, on the world's lattice.

    With ``state.reach`` set, only the agents that started within ``step *
    (R + 2v)`` of the source are queried, the bound grown by the relative
    and L-relative ``_REACH_SLACK``.  No other agent can be informed: the
    informed agents move at most ``v`` a step and inform up to ``R`` beyond
    themselves, so after ``s`` steps they lie within ``s (R + v)`` of the
    source's start, and an agent informed at step ``s`` has itself moved at
    most ``s v`` since time zero: every move is a path of length ``v``
    (:class:`~mrwpflood.mobility.Population`).  ``reach`` is dropped once
    every agent is within it."""
    population.step()
    state.step += 1
    if state.all_informed:
        return
    p = population.params
    waiting = ~state.informed
    if state.reach is not None:
        hop = p.R + 2.0 * p.v
        within = state.reach <= state.step * (hop + (hop + p.L) * _REACH_SLACK)
        if within.all():  # and so at every later step
            state.reach = None
        waiting &= within
    targets = waiting.nonzero()[0]
    if targets.size == 0:
        return
    senders = np.take(population.pos, state.informed.nonzero()[0], axis=0)
    index = NeighborIndex(senders, p.L, p.R, p.n)
    pts = np.take(population.pos, targets, axis=0)
    hit = index.any_within(pts, np.ones(len(senders), dtype=bool), p.R)
    state.informed[targets[hit]] = True


def informed_cells(
    population: Population, state: FloodState, zone_map: ZoneMap
) -> tuple[np.ndarray, int]:
    """(m x m mask of central cells whose occupants are all informed — empty
    cells count, number of suburb agents currently informed).

    One ``bincount`` of ``2 * cell + informed``, the cells by
    ``grid_index`` with side ``ell``, counts each cell's uninformed and
    informed agents.  Its ``2 m^2`` bins cost O(n) wherever there is a
    central cell: a cell holds at most ``1.5 / m^2`` of the stationary
    mass (the peak density is ``1.5 / L^2``), and a central one at least
    ``(3/8) ln(n) / n``, so ``2 m^2 <= 8 n / ln(n)``, at most ``n`` from
    ``n >= e^8``.  A world with no central cell needs no count: every
    informed agent is in the suburb."""
    m, central = zone_map.m, zone_map.central
    if not central.any():
        return np.zeros((m, m), dtype=bool), state.informed_count
    cell = grid_index(population.pos, zone_map.ell, m)
    codes = cell[:, 0] * (2 * m)
    codes += 2 * cell[:, 1]
    codes += state.informed
    counts = np.bincount(codes, minlength=2 * m * m).reshape(m, m, 2)
    return central & (counts[..., 0] == 0), int(counts[..., 1][~central].sum())


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


def flood_time_budget(
    params: WorldParams,
    zone_map: ZoneMap,
    constants: tuple[float, float] = DEFAULT_BOUND_CONSTANTS,
) -> float:
    """``a L / R + b S / v``, ``S`` the suburb diameter, with the suburb term
    dropped when the suburb is empty; infinite for immobile agents with a
    nonempty suburb, for whom flooding need not terminate at all."""
    a, b = constants
    budget = a * params.L / params.R
    if zone_map.suburb_empty:
        return budget
    if params.v == 0.0:
        return math.inf
    return budget + b * zone_map.suburb_diameter / params.v


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

    ``on_step(population, state)`` sees the state after each step; it must
    not move the agents.  The state carries each agent's distance from the
    source at time zero, and each step queries only the agents within reach
    (``flood_step``).  A flood that completes in fewer steps than
    ``frontier_floor`` allows for the farthest agent raises
    ``RuntimeError``; the reach bound is stronger, so this detects a broken
    reach filter or exchange.
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
    gaps = population.pos - population.pos[source]
    reach = gaps[:, 0] * gaps[:, 0] + gaps[:, 1] * gaps[:, 1]
    np.sqrt(reach, out=reach)
    d_far = float(reach.max())
    state = FloodState(informed=informed, step=0, source=source, reach=reach)
    monitor = (
        DensityMonitor(zone_map, params.eta, params.n) if check_stability else None
    )
    stability_violations = 0
    progress: list[tuple[int, int, int, int]] = []
    cz_spread_time: int | None = None
    prev_guard = False
    while True:
        # observe time zero, then the state after each step
        guard = monitor is not None and monitor.observe(population.pos) == 0
        if collect_progress or check_stability or cz_spread_time is None:
            cells, suburb_inf = informed_cells(population, state, zone_map)
            cell_count = int(cells.sum())
            if cz_spread_time is None and cell_count == zone_map.cz_size:
                cz_spread_time = state.step
            if prev_guard:
                required = cz_neighborhood(prev_cells, zone_map)
                stability_violations += int((required & ~cells).sum())
            prev_cells = cells
        prev_guard = guard
        if collect_progress:
            progress.append((state.step, state.informed_count, cell_count, suburb_inf))
        if on_step is not None and state.step > 0:
            on_step(population, state)
        if state.all_informed or state.step >= max_steps:
            break
        flood_step(population, state)
    flooding_time = state.step if state.all_informed else None
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
        timed_out=flooding_time is None,
        cz_spread_time=cz_spread_time,
        theoretical_bound=flood_time_budget(params, zone_map, bound_constants),
        bound_constants=bound_constants,
        assumptions=check_assumptions(params),
        max_steps=max_steps,
        violations=violations,
        progress=progress,
    )
