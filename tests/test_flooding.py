"""Neighbor queries, protocol stepping, density monitoring, full flood runs."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mrwpflood import flooding
from mrwpflood.core import WorldParams, derive_substream
from mrwpflood.experiments import default_sweep, lower_bound_params, make_params
from mrwpflood.flooding import (
    DensityMonitor,
    FloodState,
    NeighborIndex,
    SourcePlacementError,
    choose_source,
    default_max_steps,
    density_monitor,
    flood_step,
    flood_time_budget,
    frontier_floor,
    informed_cells,
    run_flood,
)
from mrwpflood.mobility import (
    APPROX_STATIONARY,
    WARMUP,
    Heading,
    Leg,
    Population,
    init_population,
)
from mrwpflood.zones import build_zone_map, cz_neighborhood
import oracle
from oracle import ball_query, band_pairs, brute_force_pairs, cell_center, pairs_within


def world(n=500, L=None, R=None, v=None, c1=2.5, seed=0, **kw):
    L = math.sqrt(n) if n is not None and L is None else L
    R = c1 * L * math.sqrt(math.log(n) / n) if R is None else R
    v = R / 10.0 if v is None else v  # safely below the R/c2 speed limit
    return WorldParams(n=n, L=L, R=R, v=v, c1=c1, seed=seed, **kw)


def static_population(params, positions):
    """All agents parked on zero-length trips at the given positions."""
    pos = np.array(positions, dtype=float)
    n = len(pos)
    leg, heading = np.full(n, Leg.SECOND), np.full(n, Heading.EAST)
    return Population(params, pos, pos.copy(), pos.copy(), leg, heading)


def brute_force_any_within(positions, pts, mask, radius):
    """Reference for ``NeighborIndex.any_within``: a closed-ball check of
    every query point against every masked agent, by whole-array
    broadcasting 256 query points at a time."""
    senders = positions[mask]
    out = np.zeros(len(pts), dtype=bool)
    for a in range(0, len(pts), 256):
        d = senders[None, :, :] - pts[a:a + 256, None, :]
        out[a:a + 256] = (d[..., 0] ** 2 + d[..., 1] ** 2 <= radius * radius).any(axis=1)
    return out


def random_index_config(rng):
    """Positions, index radius and query points for one randomised index
    check.  Lattice configurations put agents exactly at ``L`` (the clipped
    last bucket) and at distances exactly equal to an integer radius."""
    L = float(rng.integers(4, 40))
    n, k = int(rng.integers(0, 120)), int(rng.integers(0, 60))
    if rng.random() < 0.5:
        R = float(rng.integers(1, 6))
        pts = rng.integers(0, int(L) + 1, size=(n, 2)).astype(float)
        queries = rng.integers(0, int(L) + 1, size=(k, 2)).astype(float)
    else:
        # tiny radii give many buckets per side (nb >> 1)
        R = float(rng.choice([rng.uniform(0.002, 0.05), rng.uniform(0.05, 1.0)])) * L
        pts = rng.random((n, 2)) * L
        pts[rng.random(n) < 0.1] = L
        queries = rng.random((k, 2)) * L
    return pts, L, R, queries


def exchange_paths(monkeypatch):
    """Force every later ``any_within`` onto each of its two paths in turn,
    yielding the path's name: the lattice (no pair is checked directly),
    then the direct check (more pairs than any test query has)."""
    for path, pairs in (("lattice", 0), ("direct", 1 << 62)):
        monkeypatch.setattr(flooding, "_DIRECT_PAIRS", pairs)
        yield path


class TestNeighborIndex:
    def test_matches_brute_force_on_random_configs(self):
        # the spatial index must agree with the quadratic reference at the
        # index radius and below it
        for trial in range(100):
            rng = derive_substream(100, trial)
            n = int(rng.integers(2, 101))
            L = float(rng.uniform(1.0, 50.0))
            R = float(rng.uniform(0.05, 1.0)) * L
            pts = rng.random((n, 2)) * L
            index = NeighborIndex(pts, L, R)
            for radius in (R, 0.75 * R):
                got = pairs_within(index, radius)
                want = brute_force_pairs(pts, radius)
                assert np.array_equal(got, want), (trial, radius)

    def test_ties_at_exact_radius_included(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
        index = NeighborIndex(pts, 10.0, 5.0)
        pairs = pairs_within(index, 5.0)  # (0,2) at distance exactly 5
        assert [0, 2] in pairs.tolist()

    def test_radius_above_bucket_side_rejected(self):
        pts = np.zeros((3, 2))
        index = NeighborIndex(pts, 10.0, 2.0)
        with pytest.raises(ValueError):
            pairs_within(index, 2.5)

    def test_radius_outside_zero_to_r_rejected(self, monkeypatch):
        # a negative radius is no closed ball, and NaN compares false with
        # every bound; a zero radius of either sign holds the point alone
        index = NeighborIndex(np.array([[1.0, 1.0], [2.0, 1.0], [9.0, 9.0]]), 10.0, 1.5)
        mask = np.ones(3, dtype=bool)
        pts = np.array([[1.0, 1.0], [1.2, 1.0]])
        for _ in exchange_paths(monkeypatch):
            for radius in (-1.0, math.nan, np.nextafter(1.5, math.inf)):
                with pytest.raises(ValueError, match="outside"):
                    ball_query(index, (1.2, 1.0), radius)
                with pytest.raises(ValueError, match="outside"):
                    index.any_within(pts, mask, radius)
                with pytest.raises(ValueError, match="outside"):
                    index.any_within(pts[:0], mask, radius)
                with pytest.raises(ValueError, match="outside"):
                    pairs_within(index, radius)
            for radius in (0.0, -0.0):
                assert ball_query(index, (1.0, 1.0), radius).tolist() == [0]
                assert ball_query(index, (1.2, 1.0), radius).tolist() == []
                assert index.any_within(pts, mask, radius).tolist() == [True, False]
                assert pairs_within(index, radius).shape == (0, 2)

    def test_query_returns_sorted_closed_ball(self):
        pts = np.array([[1.0, 1.0], [2.0, 1.0], [9.0, 9.0], [1.0, 2.0]])
        index = NeighborIndex(pts, 10.0, 1.5)
        hits = ball_query(index, (1.0, 1.0), 1.0)
        assert hits.tolist() == [0, 1, 3]

    def test_any_within_masks(self, monkeypatch):
        pts = np.array([[1.0, 1.0], [2.0, 1.0], [9.0, 9.0]])
        index = NeighborIndex(pts, 10.0, 1.5)
        mask = np.array([True, False, False])  # only agent 0 is a candidate
        for path in exchange_paths(monkeypatch):
            hit = index.any_within(np.array([[2.0, 1.0], [8.5, 9.0]]), mask, 1.5)
            assert hit.tolist() == [True, False], path

    def test_any_within_is_a_closed_ball(self, monkeypatch):
        # (3, 4) lies exactly R = 5 from the sender, and one ulp farther in y
        # the squared distance rounds above R^2: a hit and a miss on both
        # paths, so a strict comparison fails
        index = NeighborIndex(np.array([[0.0, 0.0]]), 10.0, 5.0)
        far = np.nextafter(4.0, math.inf)
        assert 3.0 * 3.0 + far * far > 25.0
        pts = np.array([[3.0, 4.0], [3.0, far], [4.0, 3.0], [far, 3.0]])
        for path in exchange_paths(monkeypatch):
            hit = index.any_within(pts, np.ones(1, dtype=bool), 5.0)
            assert hit.tolist() == [True, False, True, False], path

    def test_any_memory_layout_of_positions_and_points(self, monkeypatch):
        # both paths read 16-byte rows: Fortran-ordered, row-strided,
        # column-strided and integer positions and points answer as their
        # C-contiguous float copies do
        rng = derive_substream(114, 0)
        L, R = 12.0, 1.5
        pos = rng.integers(0, 13, size=(150, 2))
        pts = rng.integers(0, 13, size=(60, 2))
        mask = rng.random(150) < 0.5

        def layouts(a):
            big = np.zeros((2 * len(a), 2))
            big[::2] = a
            wide = np.zeros((len(a), 4))
            wide[:, ::2] = a
            return np.asfortranarray(a, dtype=float), big[::2], wide[:, ::2], a

        want = brute_force_any_within(pos.astype(float), pts.astype(float), mask, R)
        assert 0 < want.sum() < len(pts)
        for path in exchange_paths(monkeypatch):
            got = NeighborIndex(pos.astype(float), L, R).any_within(
                pts.astype(float), mask, R
            )
            assert np.array_equal(got, want), path
            for held in layouts(pos):
                index = NeighborIndex(held, L, R)
                for queries in layouts(pts):
                    got = index.any_within(queries, mask, R)
                    assert np.array_equal(got, want), path

    def test_single_agent(self):
        index = NeighborIndex(np.array([[5.0, 5.0]]), 10.0, 2.0)
        assert pairs_within(index, 2.0).shape == (0, 2)

    def test_any_within_matches_brute_force(self, monkeypatch):
        # on both paths, with masked agents and query points off the arena
        hits = 0
        for trial in range(200):
            rng = derive_substream(102, trial)
            pts, L, R, queries = random_index_config(rng)
            n = len(pts)
            index = NeighborIndex(pts, L, R)
            masks = (
                np.zeros(n, dtype=bool),
                np.ones(n, dtype=bool),
                rng.random(n) < rng.random(),
            )
            stray = rng.random((10, 2)) * 1.4 * L - 0.2 * L
            queries = np.concatenate([queries, stray])
            for path in exchange_paths(monkeypatch):
                for mask in masks:
                    for radius in (R, 0.75 * R):
                        for q in (queries, queries[:0]):
                            got = index.any_within(q, mask, radius)
                            want = brute_force_any_within(pts, q, mask, radius)
                            assert np.array_equal(got, want), (trial, radius, path)
                            hits += int(want.sum())
        assert hits > 10_000

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_answers_do_not_depend_on_the_pair_chunk(self, monkeypatch, chunk):
        rng = derive_substream(103, 0)
        L, R = 12.0, 1.5
        pts = rng.random((150, 2)) * L
        pts[:5] = L
        queries = rng.random((40, 2)) * L
        mask = rng.random(150) < 0.4
        index = NeighborIndex(pts, L, R)
        monkeypatch.setattr(flooding, "_DIRECT_PAIRS", 0)  # the lattice path
        want = (
            index.any_within(queries, mask, R),
            pairs_within(index, R),
            ball_query(index, queries[0], R),
        )
        monkeypatch.setattr(flooding, "_PAIR_CHUNK", chunk)
        got = (
            index.any_within(queries, mask, R),
            pairs_within(index, R),
            ball_query(index, queries[0], R),
        )
        assert want[0].any() and len(want[1]) > 0 and len(want[2]) > 0
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


# (sub-rows k, sub-columns j) pairs with j dividing k: every lattice
# resolution from one cell per bucket to eight cells a bucket side
RESOLUTIONS = [(k, j) for k in range(1, 9) for j in range(1, k + 1) if k % j == 0]


def at_resolution(monkeypatch, k, j):
    """Make the next indexes cut buckets into ``k`` sub-rows and ``j``
    sub-columns, whatever their number of agents (``k`` as far as the
    16-bit key and ``j * nb`` as far as ``_CELL_SIDES`` allow)."""
    monkeypatch.setattr(flooding, "_SUB_ROWS", k)
    monkeypatch.setattr(flooding, "_SUB_COLUMNS", j)
    monkeypatch.setattr(flooding, "_LATTICE_SPAN", math.inf)


def empty_index(L, R):
    """An index of one agent at the origin, for its lattice geometry."""
    return NeighborIndex(np.zeros((1, 2)), L, R)


def ulps(ticks):
    """Each value, and one ulp below and above it."""
    ticks = np.asarray(ticks, dtype=float)
    return np.concatenate([ticks, np.nextafter(ticks, -np.inf), np.nextafter(ticks, np.inf)])


def lattice_edges(index):
    """Points on every sub-column edge crossed with every sub-row edge of an
    index's lattice (``x = L`` and ``y = L`` included), one ulp either side
    of them too."""
    xs = ulps(np.append(np.arange(index.lattice + 1) * index.cell, index.L))
    ys = ulps(np.append(np.arange(index.ny + 1) * index.height, index.L))
    return np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)


def arena_edge_points(L):
    """Points on the edges and corners of ``[0, L]^2``, at -0.0, one ulp
    inside and outside, and 1e-9 outside."""
    ticks = [
        -1e-9, np.nextafter(0.0, -1.0), -0.0, 0.0, np.nextafter(0.0, 1.0),
        0.5 * L, np.nextafter(L, 0.0), L, np.nextafter(L, 2.0 * L), L + 1e-9,
    ]
    return np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)


def certain_hit_cases():
    """(k, j, positions, L, R, query points, mask, radius) cases for the
    lattice's stencils: random configurations at every resolution, a third
    of them with agents and queries on the lattice's edges."""
    for trial in range(150):
        rng = derive_substream(104, trial)
        pts, L, R, queries = random_index_config(rng)
        k, j = RESOLUTIONS[trial % len(RESOLUTIONS)]
        side = R * (1.0 + flooding._BAND_MARGIN)
        cell, sides = side / j, j * math.ceil(L / side)
        if trial % 3 == 0 and sides <= 40:
            ticks = np.arange(sides + 1) * cell
            corners = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
            pts = np.concatenate([pts, corners])
            queries = np.concatenate([queries, corners, corners + 0.5 * cell])
        mask = rng.random(len(pts)) < rng.uniform(0.05, 1.0)
        for radius in (R, 0.75 * R):
            yield k, j, pts, L, R, queries, mask, radius


class TestCertainHits:
    def test_marks_are_hits_by_exact_distance(self, monkeypatch):
        marked = hits = 0
        for case, (k, j, pts, L, R, queries, mask, radius) in enumerate(
            certain_hit_cases()
        ):
            at_resolution(monkeypatch, k, j)
            index = NeighborIndex(pts, L, R)
            marks = index._marks(queries, mask, radius)[1]
            want = brute_force_any_within(pts, queries, mask, radius)
            assert not (marks & ~want).any(), case
            for path in exchange_paths(monkeypatch):
                got = index.any_within(queries, mask, radius)
                assert np.array_equal(got, want), (case, path)
            if index.j > 1:
                marked += int(marks.sum())
                hits += int(want.sum())
            else:
                assert not marks.any(), case
        # where the lattice is finer than the buckets, the rule must settle
        # most hits, or it checks nothing
        assert marked > 0.5 * hits

    def test_marks_pass_the_miss_filter(self, monkeypatch):
        # any_within searches only the points the possible dilation keeps
        # and not certain, so every certain mark must be a possible one, on
        # the lattice edges and on points on and just outside the arena
        marked = 0
        for case, (k, j, pts, L, R, queries, mask, radius) in enumerate(
            certain_hit_cases()
        ):
            at_resolution(monkeypatch, k, j)
            queries = np.concatenate([queries, arena_edge_points(L)])
            index = NeighborIndex(pts, L, R)
            possible, certain = index._marks(queries, mask, radius)
            assert not (certain & ~possible).any(), case
            marked += int(certain.sum())
        assert marked > 10_000

    def test_arena_test_per_coordinate(self):
        for L in (1.0, 7.3, 100.0):
            pts = arena_edge_points(L)
            index = NeighborIndex(pts, L, 1.0)
            inside = index._in_arena(pts)
            assert np.array_equal(inside, ((pts >= 0.0) & (pts <= L)).all(axis=1))
            assert inside.sum() == 36 and (~inside).sum() == 64
            assert np.array_equal(index.inside, inside)
        inside = np.array([[0.0, -0.0], [1.0, 7.3]])
        assert NeighborIndex(inside, 7.3, 1.0).inside is None

    def test_stencil_cells_are_marked(self, monkeypatch):
        for k, j in RESOLUTIONS:
            self.check_stencil_cells(monkeypatch, k, j)

    @staticmethod
    def check_stencil_cells(monkeypatch, k, j):
        # one agent at the centre of a cell: the centre of the cell at
        # offset (a, d) is marked certain when the cells' farthest points
        # lie within the radius, and possible when their nearest points do
        at_resolution(monkeypatch, k, j)
        R = 1.0
        probe = empty_index(9.0, R)
        middle = (probe.lattice // 2 + 0.5) * probe.cell
        index = NeighborIndex(np.array([[middle, middle]]), 9.0, R)
        assert index.j == j
        offsets = np.arange(-j - 2, j + 3)
        a, d = (g.ravel() for g in np.meshgrid(offsets, offsets, indexing="ij"))
        queries = middle + np.stack([a, d], axis=1) * index.cell
        for radius in (R, 0.75 * R, 0.3 * R):
            reach = (radius / index.cell) ** 2
            far = (abs(a) + 1) ** 2 + (abs(d) + 1) ** 2 <= reach
            near = np.maximum(abs(a) - 1, 0) ** 2 + np.maximum(abs(d) - 1, 0) ** 2 <= reach
            possible, certain = index._marks(queries, np.ones(1, dtype=bool), radius)
            assert np.array_equal(certain, far), (k, j, radius)
            assert np.array_equal(possible, near), (k, j, radius)
            if radius >= 0.75 * R:
                assert certain.any() == (j > 1), (k, j, radius)
        # one cell per bucket: the possible stencil is the 3 x 3 block
        if j == 1:
            assert np.array_equal(possible, (abs(a) <= 1) & (abs(d) <= 1))

    def test_points_outside_the_arena_are_checked_by_distance(self, monkeypatch):
        for k, j in RESOLUTIONS:
            if j > 1:
                self.check_outside_points(monkeypatch, k, j)

    @staticmethod
    def check_outside_points(monkeypatch, k, j):
        # An agent in the arena, in a cell of the certain stencil of the
        # edge cell, and a point just past the radius from it outside the
        # arena: grid_index clips the point into the edge cell.  The far
        # edge of the lattice lies within one cell of x = L.
        at_resolution(monkeypatch, k, j)
        L, R = 4.99, 1.0
        cell = empty_index(L, R).cell
        width = flooding._stencils(R, cell)[1][0]
        low = (width + 0.5) * cell
        pairs = (
            ((low, 0.5 * cell), (low - 1.01 * R, 0.5 * cell)),
            ((0.5 * cell, low), (0.5 * cell, low - 1.01 * R)),
            ((L - low + 0.01, L - 0.5 * cell), (L - low + 0.01 + 1.01 * R, L - 0.5 * cell)),
        )
        far = np.array([[-50.0, 3.0], [3.0, 1e6]])
        mask = np.ones(1, dtype=bool)
        for a, b in pairs:
            for sender, query in ((a, b), (b, a)):
                index = NeighborIndex(np.array([sender]), L, R)
                assert index.j == j
                queries = np.concatenate([[query], far])
                # the clipped pair sits in the certain stencil
                cells = index._sub_columns(queries[:1, 0]), index._rows(queries[:1, 1])
                gap = abs(cells[0][0] - index.cells[0] // index.pitch)
                rows = abs(cells[1][0] // (k // j) - index.cells[0] % index.pitch)
                assert rows < len(flooding._stencils(R, cell)[1])
                assert gap <= flooding._stencils(R, cell)[1][rows]
                assert not brute_force_any_within(index.positions, queries, mask, R).any()
                assert not index._marks(queries, mask, R)[1].any(), (k, j, sender)
                for path in exchange_paths(monkeypatch):
                    hit = index.any_within(queries, mask, R)
                    assert not hit.any(), (k, j, sender, path)

    def test_queries_across_the_arena_edge(self, monkeypatch):
        # Agents in the arena; query points within one cell outside it past
        # one edge only, so that their max (or min) alone lies in the arena.
        # Truncated, such a point lands in the edge cell, like a clipped
        # one; each keeps the per-point arena test and is checked by distance.
        L, R = 6.0, 1.0
        for k, j in RESOLUTIONS:
            if j == 1:
                continue  # no certain stencil
            at_resolution(monkeypatch, k, j)
            rng = derive_substream(116, k * 10 + j)
            pts = rng.random((300, 2)) * L
            mask = np.ones(len(pts), dtype=bool)
            index = NeighborIndex(pts, L, R)
            depth = rng.random(1000) * index.cell
            along = rng.random(1000) * L
            below = np.concatenate(
                [np.stack([-depth, along], 1), np.stack([along, -depth], 1)]
            )
            for queries in (below, L - below):
                want = brute_force_any_within(pts, queries, mask, R)
                possible, certain = index._marks(queries, mask, R)
                assert not (want & ~possible).any(), (k, j)
                assert not (certain & ~want).any(), (k, j)
                for path in exchange_paths(monkeypatch):
                    got = index.any_within(queries, mask, R)
                    assert np.array_equal(got, want), (k, j, path)

    def test_no_grid_for_tiny_radii(self, monkeypatch):
        # six cells a bucket side (the 16-bit key allows six sub-rows), and
        # a radius below the diagonal of one: the certain stencil is empty
        at_resolution(monkeypatch, 8, 8)
        index = NeighborIndex(np.array([[0.5, 0.5], [0.5, 0.5 + 1e-4]]), 100.0, 1.0)
        assert index.j == index.k == 6 and index.cells is not None
        mask = np.array([True, False])
        radius = 100.0 * math.sqrt(5.0) / (flooding._CELL_SIDES + 1)
        assert flooding._stencils(radius, index.cell)[1] == ()
        assert not index._marks(index.positions, mask, radius)[1].any()
        for _ in exchange_paths(monkeypatch):
            hits = index.any_within(index.positions, mask, radius)
            assert hits.tolist() == [True, True]
            assert index.any_within(index.positions, mask, 0.0).tolist() == [True, False]


def brute_force_dilation(cells, pitch, widths):
    """Reference for ``_dilate`` on the cells ``(x, y)`` with ``y`` below
    the number of x-rows ``side``: every held cell ``(x + a, y + d)`` marks
    ``(x, y)``, offset by offset."""
    held = cells.reshape(-1, pitch)
    side = len(held)
    out = np.zeros((side, side), dtype=bool)
    for x, y in np.argwhere(held[:, :side]).tolist():
        for d, width in enumerate(widths):
            for a in range(-width, width + 1):
                for dy in (d, -d):
                    if 0 <= x - a < side and 0 <= y - dy < side:
                        out[x - a, y - dy] = True
    return out


class TestDilation:
    def test_shared_growth_matches_separate_dilations(self):
        # one growth along x for both stencils gives what two dilations and
        # the offset-by-offset reference give, the empty certain stencil at
        # one cell per bucket included
        empty = 0
        for trial in range(60):
            rng = derive_substream(113, trial)
            j = int(rng.choice([1, 2, 4, 8]))
            cell = 1.0 / j
            radius = float(rng.uniform(0.5, 1.0))
            possible, certain = flooding._stencils(radius, cell)
            side = int(rng.integers(1, 20))
            pitch = side + len(possible)  # empty cells end each run
            grid = np.zeros((side, pitch), dtype=bool)
            grid[:, :side] = rng.random((side, side)) < rng.choice([0.02, 0.2, 0.7])
            cells = grid.reshape(-1)
            near, sure = flooding._dilate(cells, pitch, possible, certain)
            (alone,) = flooding._dilate(cells, pitch, possible)
            assert np.array_equal(near, alone), trial
            (alone,) = flooding._dilate(cells, pitch, certain)
            assert np.array_equal(sure, alone), trial
            # the cells past y = side only pad the runs
            for grown, widths in ((near, possible), (sure, certain)):
                want = brute_force_dilation(cells, pitch, widths)
                assert np.array_equal(grown.reshape(side, pitch)[:, :side], want), trial
            empty += certain == ()
            assert certain != () or not sure.any(), trial
        assert 0 < empty < 60


def clipped_grid(index, pts):
    """Each point's flat lattice cell and bucket code by the clipped
    formula: truncation on the cell, bucket and sub-row sides, each clipped
    into its grid, the sub-rows grouped ``k / j`` at a time."""
    cells, codes = [], []
    for x, y in pts.tolist():
        sub = min(max(int(x / index.cell), 0), index.lattice - 1)
        col = min(max(int(x / index.side), 0), index.nb - 1)
        row = min(max(int(y / index.height), 0), index.ny - 1)
        cells.append(sub * index.pitch + row // (index.k // index.j))
        codes.append(col * index.ny + row)
    return np.array(cells), np.array(codes)


class TestLattice:
    @pytest.mark.parametrize("n", [2000, 32_000, 128_000, 10**6])
    def test_lattice_is_order_n(self, n):
        p = make_params(n)
        index = NeighborIndex(np.zeros((n, 2)), p.L, p.R)
        assert index.lattice == index.j * index.nb <= max(index.nb, 2.0 * math.sqrt(n))
        assert index.k % index.j == 0 and index.cells is not None
        # the largest such divisor: eight cells a bucket side at n = 32k
        finer = range(index.j + 1, index.k + 1)
        assert all(index.k % j or j * index.nb > 2.0 * math.sqrt(n) for j in finer)
        if n == 32_000:
            assert index.j == 8

    def test_lattice_cells_at_build(self, monkeypatch):
        # sub-column by truncation on the cell side, sub-rows grouped k / j
        # at a time, clipped into the lattice as the buckets are; and the
        # bucket code by truncation on the bucket side, which a power-of-two
        # j reads off the sub-column
        rng = derive_substream(111, 0)
        for k, j in RESOLUTIONS:
            at_resolution(monkeypatch, k, j)
            pts = rng.random((300, 2)) * 14.0 - 1.0
            pts[:40] = rng.choice(lattice_edges(empty_index(12.0, 2.0)), 40)
            index = NeighborIndex(pts, 12.0, 2.0)
            assert (index.k, index.j) == (k, j)
            cells, codes = clipped_grid(index, pts)
            assert np.array_equal(index.cells, cells)
            assert np.array_equal(index.codes, codes)

    def test_truncated_cells_in_the_arena(self, monkeypatch):
        # Agents and queries in [0, L]^2 only: on the lattice edges, one ulp
        # either side of them, at 0, at L and one ulp below L.  Every grid
        # reaches past the arena, so truncation alone puts them into the
        # cells of the clipped formula.
        L, R = 12.0, 2.0
        ticks = [0.0, np.nextafter(L, 0.0), L]
        corners = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
        rng = derive_substream(115, 0)
        for k, j in RESOLUTIONS:
            at_resolution(monkeypatch, k, j)
            edges = lattice_edges(empty_index(L, R))
            edges = edges[((edges >= 0.0) & (edges <= L)).all(axis=1)]
            pts = np.concatenate([corners, rng.choice(edges, 400)])
            queries = np.concatenate([corners, rng.choice(edges, 600)])
            index = NeighborIndex(pts, L, R)
            assert (index.k, index.j) == (k, j)
            assert index.inside is None
            mask = rng.random(len(pts)) < 0.5
            cells, codes = clipped_grid(index, pts)
            assert np.array_equal(index.cells, cells) and np.array_equal(index.codes, codes)
            for radius in (R, 0.75 * R):
                want = brute_force_any_within(pts, queries, mask, radius)
                possible, certain = index._marks(queries, mask, radius)
                assert not (want & ~possible).any() and not (certain & ~want).any()
                for path in exchange_paths(monkeypatch):
                    got = index.any_within(queries, mask, radius)
                    assert np.array_equal(got, want), (k, j, radius, path)

    def test_whole_number_of_bucket_sides(self, monkeypatch):
        # L = 4 bucket sides exactly: x = L truncates into column nb, past
        # the grid, so grid_index clips the agents and query points
        R = 2.0
        L = 4.0 * R * (1.0 + flooding._BAND_MARGIN)
        rng = derive_substream(115, 1)
        for k, j in RESOLUTIONS:
            at_resolution(monkeypatch, k, j)
            pts, queries = rng.random((200, 2)) * L, rng.random((300, 2)) * L
            for a in (pts, queries):
                a[:20, 0] = L
                a[20:40, 1] = L
                a[40:50] = L
            index = NeighborIndex(pts, L, R)
            assert L / index.side == index.nb == 4
            cells, codes = clipped_grid(index, pts)
            assert np.array_equal(index.cells, cells)
            assert np.array_equal(index.codes, codes)
            mask = rng.random(len(pts)) < 0.5
            for radius in (R, 0.75 * R):
                want = brute_force_any_within(pts, queries, mask, radius)
                for path in exchange_paths(monkeypatch):
                    got = index.any_within(queries, mask, radius)
                    assert np.array_equal(got, want), (k, j, radius, path)

    @pytest.mark.parametrize("k, j", RESOLUTIONS)
    def test_one_agent_on_the_lattice_edges(self, monkeypatch, k, j):
        # One agent at a time on a lattice corner, one ulp off it, or in a
        # cell's middle; queries on every sub-column and sub-row edge, one
        # ulp either side, and at the radius from the agent, rounded either
        # way.  Alone, no other agent hides a wrong mark.
        at_resolution(monkeypatch, k, j)
        L, R = 6.0, 1.0
        probe = empty_index(L, R)
        edges = lattice_edges(probe)
        x0, y0 = probe.lattice // 2 * probe.cell, probe.ny // 2 * probe.height
        senders = [(x, y) for x in ulps([x0]) for y in ulps([y0])]
        senders += [(x0 + 0.5 * probe.cell, y0 + 0.3 * probe.cell), (L, L), (0.0, L)]
        mask = np.ones(1, dtype=bool)
        checked = 0
        for sender in senders:
            index = NeighborIndex(np.array([sender]), L, R)
            assert (index.k, index.j) == (k, j)
            for radius in (R, 0.75 * R):
                ring = np.array(sender) + radius * np.array(
                    [[1, 0], [-1, 0], [0, 1], [0, -1], [0.6, 0.8], [-0.8, -0.6]]
                )
                queries = np.concatenate([edges, ulps(ring.ravel()).reshape(-1, 2)])
                want = brute_force_any_within(index.positions, queries, mask, radius)
                possible, certain = index._marks(queries, mask, radius)
                assert not (want & ~possible).any(), (sender, radius)
                assert not (certain & ~want).any(), (sender, radius)
                for path in exchange_paths(monkeypatch):
                    got = index.any_within(queries, mask, radius)
                    assert np.array_equal(got, want), (sender, radius, path)
                checked += int(want.sum())
                if j > 1:
                    assert certain.any()
        assert checked > 500

    @pytest.mark.parametrize("k, j", RESOLUTIONS)
    def test_many_agents_match_brute_force(self, monkeypatch, k, j):
        at_resolution(monkeypatch, k, j)
        for trial in range(12):
            rng = derive_substream(112, trial * 100 + k * 10 + j)
            pts, L, R, queries = random_index_config(rng)
            probe = empty_index(L, R)
            if probe.cells is not None:
                edges = lattice_edges(probe)
                pts = np.concatenate([pts, rng.choice(edges, 60)])
                queries = np.concatenate([queries, rng.choice(edges, 300)])
            index = NeighborIndex(pts, L, R)
            mask = rng.random(len(pts)) < rng.uniform(0.05, 1.0)
            for radius in (R, 0.75 * R, 0.0):
                want = brute_force_any_within(pts, queries, mask, radius)
                for path in exchange_paths(monkeypatch):
                    got = index.any_within(queries, mask, radius)
                    assert np.array_equal(got, want), (trial, radius, path)
                if index.cells is not None:
                    possible, certain = index._marks(queries, mask, radius)
                    assert not (want & ~possible).any() and not (certain & ~want).any()


def band_cases():
    """(positions, L, R, query points, mask, radius) cases for the search
    band and the possible stencil of ``NeighborIndex``."""
    for trial in range(150):
        rng = derive_substream(108, trial)
        pts, L, R, queries = random_index_config(rng)
        mask = rng.random(len(pts)) < rng.uniform(0.05, 1.0)
        for radius in (R, 0.75 * R, 0.0):
            yield pts, L, R, np.concatenate([queries, pts]), mask, radius
    # Agents on column and sub-row edges, one ulp either side of them, on
    # the far edges x = L, y = L and just outside [0, L]^2; query points at
    # the radius from them in many directions, rounded either way.
    worlds = ((10.0, 1.0), (10.0, 0.7), (3.7, 0.3), (50.0, 3.1))
    for trial, (L, R) in enumerate(worlds):
        rng = derive_substream(109, trial)
        index = NeighborIndex(np.empty((0, 2)), L, R)

        def around(e):
            return np.concatenate(
                [e, np.nextafter(e, -1.0), np.nextafter(e, L + 1.0), [L, -1e-9, L + 1e-9]]
            )

        xs = around(np.arange(index.nb + 1) * index.side)
        ys = around(np.arange(0, index.ny + 1, 3) * index.height)
        grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        grid = rng.choice(grid, size=400, replace=False)
        grid = np.concatenate([grid, [[-0.3 * R, 0.5 * L], [0.5 * L, L + 0.3 * R]]])
        for radius in (R, 0.75 * R):
            angle = rng.random((len(grid), 4)) * 2.0 * np.pi
            unit = np.stack([np.cos(angle), np.sin(angle)], -1)
            ring = grid[:, None, :] + radius * unit
            inward = np.nextafter(ring, grid[:, None, :])
            queries = np.concatenate([ring, inward]).reshape(-1, 2)
            yield grid, L, R, queries, np.ones(len(grid), dtype=bool), radius


class TestCandidateBand:
    def test_band_holds_every_closed_ball_neighbour(self):
        pairs = close = 0
        for case, (pts, L, R, queries, mask, radius) in enumerate(band_cases()):
            index = NeighborIndex(pts, L, R)
            got = [np.empty(0, dtype=np.int64)]
            for query, cand in band_pairs(index, queries, mask, radius):
                got.append(query * len(pts) + cand)
            got = np.concatenate(got)
            d = pts[None, :, :] - queries[:, None, :]
            within = (d[..., 0] ** 2 + d[..., 1] ** 2 <= radius * radius) & mask
            want = np.flatnonzero(within)  # query * len(pts) + agent
            assert np.isin(want, got).all(), case
            assert len(np.unique(got)) == len(got), case
            # the possible stencil keeps every point with a neighbour
            possible = index._marks(queries, mask, radius)[0]
            assert not (within.any(axis=1) & ~possible).any(), case
            pairs += len(got)
            close += len(want)
        assert close > 10_000
        # the band must cut the 3 x 3 block: here it makes 1.6 pairs per
        # neighbour, a search of the whole block 2.5
        assert pairs < 2.0 * close

    def test_band_table_matches_the_binary_search(self, monkeypatch):
        # the code-end table and the binary search give the same band
        # ranges, so the same slots and pairs in the same order: on clipped
        # edge columns, query points off the grid and masked indexes alike
        branches = set()
        for case, (pts, L, R, queries, mask, radius) in enumerate(band_cases()):
            index = NeighborIndex(pts, L, R)
            members = int(mask.sum())
            branches.add(index.nb * index.ny <= flooding._TABLE_PER_AGENT * members)
            got = {}
            for per_agent in (0, 1 << 40):  # never and always the table
                monkeypatch.setattr(flooding, "_TABLE_PER_AGENT", per_agent)
                chunks = list(index._pairs(queries, mask, radius))
                got[per_agent] = [np.concatenate(c) for c in zip(*chunks)] or [[], [], []]
            table, search = got[1 << 40], got[0]
            assert all(np.array_equal(a, b) for a, b in zip(table, search)), case
        assert branches == {True, False}

    def test_any_within_without_block_filter(self, monkeypatch):
        # more than _CELL_SIDES buckets a side: no lattice, so neither the
        # possible (block) filter nor certain hits, and every point is
        # searched
        rng = derive_substream(110, 0)
        L, R = 100.0, 100.0 / (flooding._CELL_SIDES + 5)
        pts = rng.random((3000, 2)) * L
        queries = np.concatenate([pts[:500] + R * 0.6, rng.random((500, 2)) * L])
        index = NeighborIndex(pts, L, R)
        assert index.nb > flooding._CELL_SIDES and index.cells is None
        mask = rng.random(3000) < 0.5
        want = brute_force_any_within(pts, queries, mask, R)
        assert want.any()
        for path in exchange_paths(monkeypatch):
            assert np.array_equal(index.any_within(queries, mask, R), want), path


class TestBucketOrder:
    def test_order_is_a_stable_int64_argsort(self):
        seen = set()
        configs = [random_index_config(derive_substream(106, t)) for t in range(120)]
        rng = derive_substream(107, 0)
        for L, R in ((100.0, 1.0), (100.0, 100.0 / 256), (100.0, 0.2), (300.0, 1.0)):
            pts = rng.random((2000, 2)) * L
            pts[:50] = L
            configs.append((pts, L, R, None))
        for pts, L, R, _ in configs:
            index = NeighborIndex(pts, L, R)
            # column * ny + sub-row, by the scalar truncate-and-clip rule
            for (x, y), code in zip(pts[:100], index.codes[:100]):
                col = min(max(int(x / index.side), 0), index.nb - 1)
                row = min(max(int(y / index.height), 0), index.ny - 1)
                assert code == col * index.ny + row
            want = np.argsort(index.codes.astype(np.int64), kind="stable")
            assert np.array_equal(index.order, want), (L, R)
            assert (np.diff(index.codes[index.order]) >= 0).all()
            seen.add(index.nb * index.ny <= 1 << 16)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", [2000, 32_000, 128_000, 10**6])
    def test_sub_rows_keep_the_16_bit_key(self, n):
        p = make_params(n)
        index = NeighborIndex(np.empty((0, 2)), p.L, p.R)
        assert index.nb * index.ny <= 1 << 16
        assert index.k >= 5 and index.side * index.nb >= p.L > p.R


class TestMeetings:
    def test_matches_brute_force(self):
        # meetings are the pairs within 0.75 R, found on the radius-R index
        rng = derive_substream(101, 0)
        L, R = 20.0, 3.0
        pts = rng.random((60, 2)) * L
        got = pairs_within(NeighborIndex(pts, L, R), 0.75 * R)
        want = brute_force_pairs(pts, 0.75 * R)
        assert len(want) > 0
        assert np.array_equal(got, want)


def lattice_of(index):
    """The geometry of an index's lattice."""
    return index.j, index.cell, index.pitch, index.lattice


class TestSenderIndex:
    def test_sender_index_matches_the_masked_index(self, monkeypatch):
        # an index of pos[mask] queried with an all-true mask answers as an
        # index of pos queried with mask; given the population size, it has
        # the population's lattice
        hits = outside = 0
        for trial in range(150):
            rng = derive_substream(112, trial)
            pts, L, R, queries = random_index_config(rng)
            edges = arena_edge_points(L)
            if trial % 2:
                pts = np.concatenate([pts, edges[rng.integers(0, len(edges), 6)]])
            stray = rng.random((20, 2)) * 1.4 * L - 0.2 * L
            queries = np.concatenate([queries, edges, stray])
            n = len(pts)
            full = NeighborIndex(pts, L, R)
            for mask in (np.ones(n, dtype=bool), rng.random(n) < rng.random()):
                senders = pts[mask]
                everyone = np.ones(len(senders), dtype=bool)
                sized = NeighborIndex(senders, L, R, n)
                assert lattice_of(sized) == lattice_of(full), trial
                for radius in (0.0, R):
                    want = brute_force_any_within(pts, queries, mask, radius)
                    for path in exchange_paths(monkeypatch):
                        got = full.any_within(queries, mask, radius)
                        assert np.array_equal(got, want), (trial, radius, path)
                        for index in (sized, NeighborIndex(senders, L, R)):
                            got = index.any_within(queries, everyone, radius)
                            assert np.array_equal(got, want), (trial, radius, path)
                    hits += int(want.sum())
                outside += int((full.inside is not None) and mask.any())
        assert hits > 10_000 and outside > 20

    @staticmethod
    def loneliest(pos):
        """The agent farthest from its nearest neighbour."""
        gaps = pos[:, None, :] - pos[None, :, :]
        d2 = gaps[..., 0] ** 2 + gaps[..., 1] ** 2
        np.fill_diagonal(d2, np.inf)
        return int(np.argmax(d2.min(axis=1)))

    @pytest.mark.parametrize(
        "n, c1, slow, seed, steps", [(1000, 0.7, 1, 3, 36), (600, 0.6, 8, 0, 180)]
    )
    def test_flood_matches_the_brute_force_exchange(
        self, monkeypatch, n, c1, slow, seed, steps
    ):
        # every step, from a lone source to one target left, at cap speed
        # and at an eighth of it: the index holds exactly the agents
        # informed before the step, on the world's lattice, and the step
        # informs exactly whom brute force does
        p = make_params(n, c1=c1, seed=seed)
        p = dataclasses.replace(p, v=p.v / slow)
        pop = init_population(p, APPROX_STATIONARY)
        world_lattice = lattice_of(NeighborIndex(pop.pos, p.L, p.R))
        built = []

        class Recorded(NeighborIndex):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(flooding, "NeighborIndex", Recorded)
        source = self.loneliest(pop.pos)
        state = FloodState(informed=np.eye(n, dtype=bool)[source], step=0, source=source)
        senders = []
        while not state.all_informed and state.step < steps:
            before = state.informed.copy()
            flood_step(pop, state)
            index = built[-1]
            assert len(built) == state.step
            assert lattice_of(index) == world_lattice, state.step
            assert np.array_equal(index.positions, pop.pos[before]), state.step
            want = before.copy()
            want[~before] = brute_force_any_within(pop.pos, pop.pos[~before], before, p.R)
            assert np.array_equal(state.informed, want), state.step
            senders.append(int(before.sum()))
        assert state.all_informed and state.step == steps
        assert senders[:2] == [1, 1] and senders[-1] == n - 1
        assert world_lattice[0] > 1


class TestFloodStep:
    def test_two_close_agents_one_step(self):
        p = world(n=2, L=10.0, R=2.0, v=0.0)
        pop = static_population(p, [(1.0, 1.0), (2.0, 1.0)])
        state = FloodState(
            informed=np.array([True, False]), step=0, source=0
        )
        flood_step(pop, state)
        assert state.all_informed and state.step == 1

    def test_chain_spreads_one_hop_per_step(self):
        # k static agents spaced exactly R apart: flooding takes k - 1 steps
        k, R = 6, 2.0
        p = WorldParams(n=k, L=20.0, R=R, v=0.0)
        pts = [(1.0 + i * R, 1.0) for i in range(k)]
        pop = static_population(p, pts)
        state = FloodState(
            informed=np.eye(k, dtype=bool)[0], step=0, source=0
        )
        steps = 0
        while not state.all_informed:
            flood_step(pop, state)
            steps += 1
            assert state.informed_count == min(1 + steps, k)
        assert steps == k - 1

    def test_informed_set_grows_monotonically(self):
        p = world(n=300, seed=6)
        pop = init_population(p, APPROX_STATIONARY)
        state = FloodState(
            informed=np.eye(300, dtype=bool)[0], step=0, source=0
        )
        prev = state.informed.copy()
        for _ in range(20):
            flood_step(pop, state)
            assert (state.informed | prev).sum() == state.informed_count
            prev = state.informed.copy()

    def test_isolated_static_pair_never_floods(self):
        p = WorldParams(n=2, L=100.0, R=1.0, v=0.0)
        pop = static_population(p, [(1.0, 1.0), (99.0, 99.0)])
        state = FloodState(
            informed=np.array([True, False]), step=0, source=0
        )
        for _ in range(50):
            flood_step(pop, state)
        assert not state.all_informed


class TestInformedCells:
    def test_initial_cells_and_suburb_count(self):
        p = world(n=400, seed=7)
        z = build_zone_map(p)
        pop = init_population(p, APPROX_STATIONARY)
        informed = np.zeros(400, dtype=bool)
        informed[5] = True
        state = FloodState(informed=informed, step=0, source=5)
        cells, suburb_count = informed_cells(pop, state, z)
        # only cells with no uninformed occupant qualify; with one informed
        # agent these are exactly the empty central cells plus possibly the
        # source's own cell
        assert cells.shape == (z.m, z.m) and cells.dtype == bool
        assert not (cells & ~z.central).any()
        assert 0 <= suburb_count <= 1

    def test_all_informed_means_all_central_cells(self):
        p = world(n=400, seed=8)
        z = build_zone_map(p)
        pop = init_population(p, APPROX_STATIONARY)
        state = FloodState(
            informed=np.ones(400, dtype=bool), step=0, source=0
        )
        cells, suburb_count = informed_cells(pop, state, z)
        assert np.array_equal(cells, z.central)
        assert int(cells.sum()) == z.cz_size
        codes_central = z.central[
            np.minimum((pop.pos[:, 0] / z.ell).astype(int), z.m - 1),
            np.minimum((pop.pos[:, 1] / z.ell).astype(int), z.m - 1),
        ]
        assert suburb_count == int((~codes_central).sum())

    def test_matches_per_agent_recount(self):
        p = world(n=400, seed=9)
        z = build_zone_map(p)
        pop = init_population(p, APPROX_STATIONARY)
        informed = derive_substream(9, 1).random(400) < 0.8
        cells, suburb_count = informed_cells(
            pop, FloodState(informed=informed, step=0, source=0), z
        )
        want = z.central.copy()
        suburb = 0
        for (x, y), known in zip(pop.pos.tolist(), informed):
            cell = (min(int(x / z.ell), z.m - 1), min(int(y / z.ell), z.m - 1))
            if not known:
                want[cell] = False
            elif not z.central[cell]:
                suburb += 1
        assert np.array_equal(cells, want)
        assert 0 < want.sum() < z.cz_size
        assert suburb_count == suburb


    def test_matches_the_marking_oracle(self):
        # worlds with central and suburb cells, with more agents than the
        # count's 2 m^2 bins and with fewer
        counted = set()
        for n, c1 in ((400, 1.2), (1000, 1.2), (2000, 1.2), (2000, 2.5)):
            p = make_params(n, c1=c1, seed=n)
            z = build_zone_map(p)
            assert 0 < z.cz_size < z.m * z.m
            counted.add(2 * z.m * z.m <= n)
            pop = init_population(p, APPROX_STATIONARY)
            rng = derive_substream(113, n)
            suburb = 0
            for frac in (0.0, 0.02, 0.5, 0.98, 1.0):
                state = FloodState(informed=rng.random(n) < frac, step=0, source=0)
                cells, suburb_count = informed_cells(pop, state, z)
                want = oracle.informed_cells(pop, state, z)
                assert np.array_equal(cells, want[0]), (n, c1, frac)
                assert suburb_count == want[1] and type(suburb_count) is int
                suburb += suburb_count
            assert suburb > 0
        assert counted == {True, False}

    def test_bins_are_order_n_wherever_a_cell_is_central(self):
        # informed_cells counts on 2 m^2 bins in every world with a central
        # cell: a cell holds at most 1.5 / m^2 of the stationary mass and a
        # central one at least (3/8) ln(n) / n, so 2 m^2 <= 8 n / ln(n).
        # A build_zone_map whose threshold is (3/16) ln(n) / n fails this.
        worlds = [
            make_params(n, c1=c1)
            for n in (2, 20, 100, 400, 1000, 2000, 32_000)
            for c1 in (0.5, 1.2, 1.5, 2.5)
        ]
        above = set()
        for p in worlds + default_sweep():
            if p.R > math.sqrt(2.0) * p.L:  # n = 2, c1 = 2.5: no cell grid
                continue
            z = build_zone_map(p)
            if z.cz_size > 0:
                assert 2 * z.m * z.m <= 8 * p.n / math.log(p.n), (p.n, p.c1, z.m)
                above.add(2 * z.m * z.m > p.n)
        assert above == {True, False}

    @pytest.mark.parametrize("c1", [1.2, 2.5])
    def test_far_edges_fold_into_the_last_cells(self, c1):
        # Worlds where L / ell is m: agents exactly on x = L, on y = L, on
        # both, and one ulp either side of the interior cell edges.
        # Truncated, the far edges land in row and column m, which the clip
        # puts into the last cells.
        p = make_params(2000, c1=c1, seed=2000)
        z = build_zone_map(p)
        assert 2 * z.m * z.m <= p.n and p.L / z.ell == z.m
        rng = derive_substream(117, int(10 * c1))
        pos = init_population(p, APPROX_STATIONARY).pos
        pos[:100, 0] = p.L
        pos[100:200, 1] = p.L
        pos[200:210] = p.L
        pos[210:400] = rng.choice(ulps(np.arange(1, z.m) * z.ell), (190, 2))
        pop = static_population(p, pos)
        edge = np.arange(p.n) < 400
        for informed in (~edge, edge, rng.random(p.n) < 0.5):
            state = FloodState(informed=informed, step=0, source=0)
            want = oracle.informed_cells(pop, state, z)
            cells, suburb_count = informed_cells(pop, state, z)
            assert np.array_equal(cells, want[0]) and suburb_count == want[1]

    def test_positions_off_the_arena_are_clipped(self):
        # Positions past the arena's edges, as no population holds them:
        # 1e-9 past it, 2.5 cells past it and at 1e6, clipped into the end
        # cells.
        p = make_params(2000, c1=2.5, seed=2000)
        z = build_zone_map(p)
        assert 2 * z.m * z.m <= p.n
        rng = derive_substream(118, 0)
        off = [-1e-9, -2.5 * z.ell, p.L + 1e-9, p.L + 2.5 * z.ell, 1e6]
        for trial in range(len(off)):
            pos = init_population(p, APPROX_STATIONARY).pos
            pos[rng.integers(0, p.n, 50), rng.integers(0, 2, 50)] = off[trial]
            pop = SimpleNamespace(pos=pos)
            for frac in (0.0, 0.5, 1.0):
                state = FloodState(informed=rng.random(p.n) < frac, step=0, source=0)
                want = oracle.informed_cells(pop, state, z)
                cells, suburb_count = informed_cells(pop, state, z)
                assert np.array_equal(cells, want[0]) and suburb_count == want[1]

    def test_world_without_central_cells(self, monkeypatch):
        # |CZ| = 0: no cell to mark and every informed agent in the suburb,
        # answered without finding any agent's cell
        p = make_params(2000, c1=0.5)
        z = build_zone_map(p)
        assert z.cz_size == 0
        pop = init_population(p, APPROX_STATIONARY)
        rng = derive_substream(114, 0)
        states = [
            FloodState(informed=rng.random(p.n) < frac, step=0, source=0)
            for frac in (0.0, 0.3, 1.0)
        ]
        wants = [oracle.informed_cells(pop, state, z) for state in states]

        def no_grid(*args):
            raise AssertionError("agents gridded")

        monkeypatch.setattr(type(z), "cell_index", no_grid)
        monkeypatch.setattr(flooding, "grid_index", no_grid)
        for state, (cells, suburb) in zip(states, wants):
            got, count = informed_cells(pop, state, z)
            assert np.array_equal(got, cells) and got.shape == (z.m, z.m)
            assert count == suburb == state.informed_count and type(count) is int


def set_neighborhood(cells: set, central: np.ndarray) -> set:
    """Reference form of the stability neighbourhood on cell tuples: the
    cells plus their central 4-neighbours."""
    m = central.shape[0]
    out = set(cells)
    for i, j in cells:
        for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if 0 <= a < m and 0 <= b < m and central[a, b]:
                out.add((a, b))
    return out


class TestCzNeighborhood:
    def test_mask_matches_set_form(self):
        cases = []
        for trial in range(200):
            rng = derive_substream(300, trial)
            m = int(rng.integers(1, 25))
            central = rng.random((m, m)) < rng.uniform(0.0, 1.0)
            cells = rng.random((m, m)) < rng.uniform(0.0, 1.0)
            if trial % 2 == 0:
                cells &= central  # as run_flood calls it
            cases.append((cells, central))
        for n in (400, 2000, 5000):
            z = build_zone_map(world(n=n))
            rng = derive_substream(301, n)
            for density in (0.0, 0.05, 0.5, 1.0):
                cases.append((z.central & (rng.random((z.m, z.m)) < density), z.central))
        for k, (cells, central) in enumerate(cases):
            got = cz_neighborhood(cells, SimpleNamespace(central=central))
            want = np.zeros_like(central)
            for cell in set_neighborhood(set(zip(*np.nonzero(cells))), central):
                want[cell] = True
            assert np.array_equal(got, want), k


class TestDensityMonitor:
    def test_zero_eta_never_fires(self):
        p = world(n=300, seed=9, eta=0.0)
        z = build_zone_map(p)
        pop = init_population(p, APPROX_STATIONARY)
        assert density_monitor(pop, z, eta=0.0, horizon=10) == 0

    def test_huge_eta_fires_everywhere(self):
        p = world(n=300, seed=9)
        z = build_zone_map(p)
        pop = init_population(p, APPROX_STATIONARY)
        violations = density_monitor(pop, z, eta=100.0, horizon=5)
        assert violations == 5 * z.cz_size  # every (step, cell) pair fails

    def test_floor_formula(self):
        z = build_zone_map(world(n=300))
        mon = DensityMonitor(z, eta=0.5, n=300)
        assert mon.floor == pytest.approx(0.5 * math.log(300))

    def test_observe_counts_core_occupants(self):
        # park one agent dead-centre of a central cell's core: that cell
        # holds one, every other central core zero (floor 0.1 ln 100 ~ 0.46)
        p = WorldParams(n=100, L=10.0, R=3.0, v=0.0)
        z = build_zone_map(p)
        mid = (z.m // 2, z.m // 2)
        assert z.central[mid]
        cx, cy = cell_center(z, mid)
        mon = DensityMonitor(z, eta=0.1, n=100)
        bad = mon.observe(np.array([[cx, cy]]))
        # every central cell except mid has an empty core
        assert bad == z.cz_size - 1

    def test_core_is_half_open(self):
        # the core covers cell fractions [1/3, 2/3): the south-west corner
        # counts as inside, the north-east edge as outside.  With ell = 3
        # the fractions of x = 1 and x = 2 are bit-exact thirds.
        p = WorldParams(n=100, L=6.0, R=8.0, v=0.0)
        z = build_zone_map(p)
        assert z.m == 2 and z.ell == 3.0 and z.cz_size == 4
        mon = DensityMonitor(z, eta=0.1, n=100)
        bad_sw = mon.observe(np.array([[1.0, 1.0]]))
        assert bad_sw == 3  # cell (0, 0)'s core holds the agent
        mon2 = DensityMonitor(z, eta=0.1, n=100)
        bad_ne = mon2.observe(np.array([[2.0, 1.0]]))
        assert bad_ne == 4  # on the ne edge: outside every core


class TestBudgets:
    def test_budget_with_suburb(self):
        p = world(n=1000)
        z = build_zone_map(p)
        assert not z.suburb_empty
        a, b = 18.0, 600.0
        assert flood_time_budget(p, z) == a * p.L / p.R + b * z.suburb_diameter / p.v

    def test_budget_suburb_empty_drops_travel_term(self):
        n = 2000
        L = math.sqrt(n)
        R = (1 + math.sqrt(5)) / 2 * L * (3 * math.log(n) / n) ** (1 / 3)
        p = WorldParams(n=n, L=L, R=R, v=0.1)
        z = build_zone_map(p)
        assert z.suburb_empty
        assert flood_time_budget(p, z) == 18.0 * L / R

    def test_budget_immobile_with_suburb_is_infinite(self):
        p = world(n=1000, v=0.0)
        z = build_zone_map(p)
        assert flood_time_budget(p, z) == math.inf

    def test_default_max_steps_scales_budget(self):
        p = world(n=1000)
        z = build_zone_map(p)
        assert default_max_steps(p, z) == max(
            1, math.ceil(100.0 * flood_time_budget(p, z))
        )

    def test_default_max_steps_fallback(self):
        p = world(n=1000, v=0.0)  # infinite budget
        z = build_zone_map(p)
        assert default_max_steps(p, z) == 10_000_000

    def test_custom_constants(self):
        p = world(n=1000)
        z = build_zone_map(p)
        small = flood_time_budget(p, z, constants=(1.0, 1.0))
        assert small < flood_time_budget(p, z)


class TestChooseSource:
    def test_fixed_agent(self):
        p = world(n=50, seed=20)
        z = build_zone_map(p)
        pop = init_population(p, APPROX_STATIONARY)
        rng = derive_substream(0, 0)
        assert choose_source("agent:7", pop, z, rng) == 7
        with pytest.raises(ValueError):
            choose_source("agent:50", pop, z, rng)

    def test_zone_rules_pick_from_zone(self):
        p = world(n=400, seed=21)
        z = build_zone_map(p)
        pop = init_population(p, APPROX_STATIONARY)
        rng = derive_substream(0, 1)
        cz_agent = choose_source("in_cz", pop, z, rng)
        x, y = pop.pos[cz_agent]
        assert z.central[min(int(x / z.ell), z.m - 1), min(int(y / z.ell), z.m - 1)]
        in_cz = z.central[z.cell_index(pop.pos)]
        assert in_cz[cz_agent] and 0 < in_cz.sum() < p.n

    def test_in_suburb_raises_when_suburb_unoccupied(self):
        # a radius this large makes every cell central: nobody is in the
        # suburb, so the placement rule cannot be satisfied
        p = WorldParams(n=5, L=10.0, R=14.0, v=0.0)
        z = build_zone_map(p)
        assert z.suburb_empty
        pop = static_population(p, [(5.0, 5.0)] * 5)
        with pytest.raises(SourcePlacementError):
            choose_source("in_suburb", pop, z, derive_substream(0, 2))

    def test_unknown_rule(self):
        p = world(n=10, seed=22)
        z = build_zone_map(p)
        pop = init_population(p, APPROX_STATIONARY)
        with pytest.raises(ValueError):
            choose_source("nowhere", pop, z, derive_substream(0, 3))


class TestFrontierFloor:
    def test_formula(self):
        p = world(n=100, L=10.0, R=2.0, v=0.5)
        assert frontier_floor(p, 9.0) == math.ceil(9.0 / 3.0)
        assert frontier_floor(p, 0.0) == 0
        assert frontier_floor(p, -1.0) == 0


class TestRunFlood:
    def test_single_agent_floods_at_time_zero(self):
        p = WorldParams(n=1, L=10.0, R=3.0, v=0.1, seed=1)
        rec = run_flood(p)
        assert rec.flooding_time == 0
        assert not rec.timed_out

    def test_complete_run_reports_consistent_record(self):
        p = world(n=400, seed=23)
        rec = run_flood(p, source_rule="in_cz", collect_progress=True)
        assert not rec.timed_out
        assert rec.flooding_time is not None and rec.flooding_time >= 1
        assert rec.cz_spread_time is not None
        assert rec.cz_spread_time <= rec.flooding_time
        assert rec.source_rule == "in_cz"
        assert 0 <= rec.source_agent < 400
        # progress covers steps 0..T and ends fully informed
        assert rec.progress[0][0] == 0
        assert rec.progress[-1][1] == 400
        counts = [row[1] for row in rec.progress]
        assert counts == sorted(counts)

    def test_deterministic_given_seed(self):
        p = world(n=300, seed=24)
        a = run_flood(p, source_rule="in_cz")
        b = run_flood(p, source_rule="in_cz")
        assert a.to_json_dict() == b.to_json_dict()

    def test_trajectory_matches_brute_force_exchange(self, monkeypatch):
        p = make_params(2000, seed=33)
        fast = run_flood(p, source_rule="random", collect_progress=True)

        def brute(index, pts, mask, radius):
            return brute_force_any_within(index.positions, pts, mask, radius)

        monkeypatch.setattr(NeighborIndex, "any_within", brute)
        slow = run_flood(p, source_rule="random", collect_progress=True)
        assert fast.flooding_time is not None and fast.flooding_time > 1
        assert fast.flooding_time == slow.flooding_time
        assert fast.progress == slow.progress

    def test_timeout_on_static_disconnected_world(self):
        p = WorldParams(n=50, L=100.0, R=1.0, v=0.0, seed=26)
        rec = run_flood(p, max_steps=5)
        assert rec.timed_out
        assert rec.flooding_time is None
        assert rec.max_steps == 5
        assert rec.theoretical_bound == math.inf
        assert rec.to_json_dict()["theoretical_bound"] is None

    def test_flooding_time_respects_frontier_floor(self):
        p = world(n=500, seed=27)
        rec = run_flood(p, source_rule="in_cz")
        floor = frontier_floor(p, 0.0)  # weakest valid floor
        assert rec.flooding_time >= floor

    def test_stability_monitoring_on_dense_world(self):
        # a dense 2x2-cell world keeps every core occupied, so the density
        # condition holds each step and the spread invariant must follow:
        # zero violations of either kind
        p = WorldParams(n=400, L=20.0, R=28.0, v=2.8, seed=28, eta=0.02)
        rec = run_flood(p, source_rule="in_cz", check_stability=True)
        assert set(rec.violations) == {"core_occupancy", "stability"}
        assert rec.violations["core_occupancy"] == 0
        assert rec.violations["stability"] == 0
        assert not rec.timed_out

    def test_stability_count_matches_set_recount(self):
        # eta = 0 makes the density guard hold at every step, so every step
        # is checked; recount the violations from per-agent cell tuples
        p = make_params(1000, eta=0.0, seed=0)
        z = build_zone_map(p)
        pop = init_population(p, APPROX_STATIONARY)
        start = pop.pos.copy()

        def full_cells(positions, informed):
            blocked = {
                (min(int(x / z.ell), z.m - 1), min(int(y / z.ell), z.m - 1))
                for (x, y), known in zip(positions.tolist(), informed)
                if not known
            }
            return set(map(tuple, np.argwhere(z.central).tolist())) - blocked

        recount = {"prev": None, "violations": 0}

        def on_step(population, state):
            if recount["prev"] is None:  # time zero: only the source knows
                first = np.arange(p.n) == state.source
                recount["prev"] = full_cells(start, first)
            cells = full_cells(population.pos, state.informed)
            required = set_neighborhood(recount["prev"], z.central)
            recount["violations"] += len(required - cells)
            recount["prev"] = cells

        rec = run_flood(
            p, zone_map=z, population=pop, check_stability=True, on_step=on_step
        )
        assert rec.violations["core_occupancy"] == 0
        assert rec.violations["stability"] == recount["violations"]
        assert rec.violations["stability"] > 0

    def test_stability_check_absent_by_default(self):
        p = world(n=200, seed=32)
        rec = run_flood(p, source_rule="random")
        assert rec.violations == {}

    def test_explicit_population_reused(self):
        p = world(n=200, seed=29)
        pop = init_population(p, APPROX_STATIONARY)
        start = pop.pos.copy()
        rec = run_flood(p, population=pop, source_rule="agent:0")
        assert rec.flooding_time is not None
        assert not np.array_equal(pop.pos, start)  # stepped in place

    def test_observers_leave_the_flood_unchanged(self):
        # progress rows and the stability monitor only observe: with each on
        # or off, the record differs only in those two fields
        p = make_params(1000, eta=0.0, seed=3)
        z = build_zone_map(p)
        records = {}
        for progress in (False, True):
            for stability in (False, True):
                rec = run_flood(
                    p,
                    source_rule="in_cz",
                    zone_map=z,
                    collect_progress=progress,
                    check_stability=stability,
                )
                records[progress, stability] = rec.to_json_dict()
        full = records[True, True]
        assert len(full["progress"]) == full["flooding_time"] + 1
        assert full["violations"]["stability"] > 0
        for rec in records.values():
            assert {**rec, "progress": None, "violations": None} == {
                **full, "progress": None, "violations": None
            }
        # max_steps = 0 observes time zero only, and no step is taken
        seen = []
        zero = run_flood(
            p,
            source_rule="in_cz",
            zone_map=z,
            max_steps=0,
            collect_progress=True,
            check_stability=True,
            on_step=lambda pop, st: seen.append(st.step),
        )
        assert zero.timed_out and zero.flooding_time is None
        assert zero.progress == [tuple(full["progress"][0])]
        assert zero.progress[0][:2] == (0, 1)
        assert zero.violations == {"core_occupancy": 0, "stability": 0}
        assert seen == []

    def test_on_step_callback_sees_every_step(self):
        p = world(n=200, seed=30)
        seen = []
        rec = run_flood(p, on_step=lambda pop, st: seen.append(st.step))
        assert seen == list(range(1, rec.flooding_time + 1))

    def test_warmup_init_mode(self):
        p = world(n=150, seed=31)
        rec = run_flood(p, init_mode=WARMUP, warmup_steps=30)
        assert rec.init_mode == WARMUP
        assert rec.warmup_steps == 30
        assert not rec.timed_out


def walkers(params, agents):
    """A population of agents each walking toward one way-point: ``(pos,
    heading, way-point, destination)``, on its first leg when the way-point
    is not the destination."""
    pos, heading, turn, dest = (np.array(a, dtype=float) for a in zip(*agents))
    leg = np.where((turn == dest).all(axis=1), Leg.SECOND, Leg.FIRST)
    return Population(params, pos, dest, turn, leg, heading.astype(int))


def unfiltered(monkeypatch):
    """Make every later ``run_flood`` query all uninformed agents."""

    class Unfiltered(FloodState):
        def __init__(self, **fields):
            super().__init__(**{**fields, "reach": None})

    monkeypatch.setattr(flooding, "FloodState", Unfiltered)


def exchange_checker(p):
    """An ``on_step`` hook that checks each step's informed set against the
    brute-force exchange, and a list of (step, whether the reach filter is
    still on) it fills."""
    before = np.zeros(p.n, dtype=bool)
    checked = []

    def on_step(pop, state):
        if not checked:
            before[state.source] = True
        want = before.copy()
        want[~before] = brute_force_any_within(pop.pos, pop.pos[~before], before, p.R)
        assert np.array_equal(state.informed, want), state.step
        before[:] = state.informed
        checked.append((state.step, state.reach is not None))

    return on_step, checked


def counting_queries(monkeypatch):
    """Count the query points of every later ``any_within`` call into the
    returned list."""
    queried = []
    real = NeighborIndex.any_within

    def counted(index, pts, mask, radius):
        queried.append(len(pts))
        return real(index, pts, mask, radius)

    monkeypatch.setattr(NeighborIndex, "any_within", counted)
    return queried


class TestReachFilter:
    E, N, W = Heading.EAST, Heading.NORTH, Heading.WEST

    @pytest.mark.parametrize(
        "x0, R, v, above",
        [(4.0, 2.0, 0.5, False), (14.151, 0.835, 0.127, True), (25.003, 1.523, 0.169, True)],
    )
    def test_head_on_pair_at_the_bound(self, x0, R, v, above):
        # two agents R + 2v apart walk head-on and close to R in one step.
        # In the last two worlds the starting distance rounds to above the
        # float R + 2v, while the step still closes it to within R: only
        # the slack keeps the target
        p = WorldParams(n=2, L=64.0, R=R, v=v)
        agents = [
            ((x0, 5.0), self.E, (60.0, 5.0), (60.0, 5.0)),
            ((x0 + (R + 2.0 * v), 5.0), self.W, (1.0, 5.0), (1.0, 5.0)),
        ]
        pop = walkers(p, agents)
        gap = float(np.sqrt(((pop.pos[1] - pop.pos[0]) ** 2).sum()))
        assert gap == R + 2.0 * v or (above and gap > R + 2.0 * v)
        rec = run_flood(p, source_rule="agent:0", population=pop, max_steps=3)
        assert rec.flooding_time == 1

    @pytest.mark.parametrize("s", [2, 4])
    def test_relay_chain_at_the_bound(self, s):
        # relay t walks north and reaches its elbow at step t, R + v beyond
        # where relay t - 1 reached its own, just as relay t - 1, turned
        # east, comes within R of it.  So the frontier advances R + v a
        # step, and the target, walking west from s (R + 2v) away, is
        # informed at step s.  All coordinates are exact in binary.
        R, v, y = 2.0, 0.5, 8.0
        p = WorldParams(n=s + 1, L=64.0, R=R, v=v)
        agents = [((4.0, y), self.E, (60.0, y), (60.0, y))]
        for t in range(1, s):
            x = 4.0 + t * (R + v)
            agents.append(((x, y - t * v), self.N, (x, y), (60.0, y)))
        agents.append(((4.0 + s * (R + 2.0 * v), y), self.W, (1.0, y), (1.0, y)))
        on_step, checked = exchange_checker(p)
        rec = run_flood(
            p,
            source_rule="agent:0",
            population=walkers(p, agents),
            max_steps=s + 2,
            collect_progress=True,
            on_step=on_step,
        )
        assert rec.flooding_time == s
        assert [row[1] for row in rec.progress] == list(range(1, s + 1)) + [s + 1]
        # the filter is on until step s brings every agent within reach
        assert checked == [(t, t < s) for t in range(1, s + 1)]

    def test_agents_off_the_arena_get_every_target(self):
        # the filter needs every move to be a path of length v, which holds
        # for every population that can be built; one with an agent off the
        # arena, where that would fail, cannot be built
        p = WorldParams(n=3, L=64.0, R=2.0, v=0.5)
        agents = [
            ((1.0, 5.0), self.E, (60.0, 5.0), (60.0, 5.0)),
            ((-40.0, 5.0), self.E, (60.0, 5.0), (60.0, 5.0)),
            ((30.0, 40.0), self.W, (1.0, 40.0), (1.0, 40.0)),
        ]
        with pytest.raises(ValueError, match="lie in"):
            walkers(p, agents)

    def test_random_world_off_the_arena_matches_brute_force(self):
        p = make_params(600, seed=5)
        stationary = init_population(p, APPROX_STATIONARY)
        pos = stationary.pos.copy()
        pos[:12] = pos[:12] * 1.2 - 0.1 * p.L  # some land off the arena
        assert not (pos.min() >= 0.0 and pos.max() <= p.L)
        args = (stationary.dest, stationary.turn, stationary.leg, stationary.heading)
        with pytest.raises(ValueError, match="lie in"):
            Population(p, pos, *args)


def filter_worlds():
    """(params, source rule) of the worlds the reach filter must not change:
    cap speed, an eighth of it, and the lower-bound corner world."""
    for seed in range(3):
        p = make_params(2000, seed=seed)
        yield pytest.param(p, "in_cz", id=f"cap-{seed}")
        yield pytest.param(dataclasses.replace(p, v=p.v / 8), "random", id=f"v8-{seed}")
    for seed in range(2):
        p = lower_bound_params(2000, seed=seed)[0]
        yield pytest.param(p, "random", id=f"corner-{seed}")


def exchange_worlds():
    """(params, source rule) of the worlds the exchange path must not
    change: corner trials, a sparse flood at 1/64 of the cap speed with no
    central cell, and cap speed."""
    for seed in range(3):
        p = lower_bound_params(2000, seed=seed)[0]
        yield pytest.param(p, "random", id=f"corner-{seed}")
    p = make_params(2000, c1=0.5)
    yield pytest.param(dataclasses.replace(p, v=p.v / 64), "in_suburb", id="sparse-v64")
    yield pytest.param(make_params(2000, seed=0), "in_cz", id="cap-0")


class TestReachFilterRuns:
    @pytest.mark.parametrize("p, rule", filter_worlds())
    def test_filter_on_and_off_give_the_same_record(self, monkeypatch, p, rule):
        # the same record, progress included, with the filter on and forced
        # off; every step of the filtered run informs exactly whom brute
        # force does, and the filter drops targets on some steps
        z = build_zone_map(p)
        records, queries = {}, {}
        check, checked = exchange_checker(p)
        for key in ("on", "off"):
            queried = counting_queries(monkeypatch)
            on_step = check if key == "on" else None
            if key == "off":
                unfiltered(monkeypatch)
            rec = run_flood(
                p,
                source_rule=rule,
                zone_map=z,
                population=init_population(p, APPROX_STATIONARY),
                collect_progress=True,
                on_step=on_step,
            )
            records[key], queries[key] = rec.to_json_dict(), sum(queried)
            monkeypatch.undo()
        assert records["on"] == records["off"]
        assert records["on"]["flooding_time"] == len(checked)
        assert checked[0] == (1, True)
        assert queries["on"] < queries["off"]

    @pytest.mark.parametrize("p, rule", exchange_worlds())
    def test_direct_and_lattice_exchanges_give_the_same_record(
        self, monkeypatch, p, rule
    ):
        # the same record, progress included, with every exchange answered
        # on the lattice, every one answered directly, and each by its size
        z = build_zone_map(p)
        records = {}
        for path, pairs in (("lattice", 0), ("direct", 1 << 62), ("sized", None)):
            if pairs is not None:
                monkeypatch.setattr(flooding, "_DIRECT_PAIRS", pairs)
            rec = run_flood(
                p,
                source_rule=rule,
                zone_map=z,
                population=init_population(p, APPROX_STATIONARY),
                collect_progress=True,
            )
            records[path] = rec
            monkeypatch.undo()
        assert records["lattice"] == records["direct"] == records["sized"]
        assert len(rec.progress) == rec.flooding_time + 1 > 2
