"""Neighbor queries, protocol stepping, density monitoring, full flood runs."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mrwpflood import flooding
from mrwpflood.core import WorldParams, derive_substream
from mrwpflood.experiments import make_params
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
    suburb_reach,
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
from oracle import ball_query, brute_force_pairs, cell_center, pairs_within


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

    def test_radius_outside_zero_to_r_rejected(self):
        # a negative radius is no closed ball, and NaN compares false with
        # every bound; a zero radius of either sign holds the point alone
        index = NeighborIndex(np.array([[1.0, 1.0], [2.0, 1.0], [9.0, 9.0]]), 10.0, 1.5)
        mask = np.ones(3, dtype=bool)
        pts = np.array([[1.0, 1.0], [1.2, 1.0]])
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

    def test_any_within_masks(self):
        pts = np.array([[1.0, 1.0], [2.0, 1.0], [9.0, 9.0]])
        index = NeighborIndex(pts, 10.0, 1.5)
        mask = np.array([True, False, False])  # only agent 0 is a candidate
        hit = index.any_within(np.array([[2.0, 1.0], [8.5, 9.0]]), mask, 1.5)
        assert hit.tolist() == [True, False]

    def test_single_agent(self):
        index = NeighborIndex(np.array([[5.0, 5.0]]), 10.0, 2.0)
        assert pairs_within(index, 2.0).shape == (0, 2)

    def test_any_within_matches_brute_force(self):
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
            for mask in masks:
                for radius in (R, 0.75 * R):
                    for q in (queries, queries[:0]):
                        got = index.any_within(q, mask, radius)
                        want = brute_force_any_within(pts, q, mask, radius)
                        assert np.array_equal(got, want), (trial, radius)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_answers_do_not_depend_on_the_pair_chunk(self, monkeypatch, chunk):
        rng = derive_substream(103, 0)
        L, R = 12.0, 1.5
        pts = rng.random((150, 2)) * L
        pts[:5] = L
        queries = rng.random((40, 2)) * L
        mask = rng.random(150) < 0.4
        index = NeighborIndex(pts, L, R)
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
            assert np.array_equal(index.any_within(queries, mask, radius), want), case
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
                assert not index.any_within(queries, mask, R).any(), (k, j, sender)

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
        assert index.any_within(index.positions, mask, radius).tolist() == [True, True]
        assert index.any_within(index.positions, mask, 0.0).tolist() == [True, False]


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
        # at a time, clipped into the lattice as the buckets are
        rng = derive_substream(111, 0)
        for k, j in RESOLUTIONS:
            at_resolution(monkeypatch, k, j)
            pts = rng.random((300, 2)) * 14.0 - 1.0
            pts[:40] = rng.choice(lattice_edges(empty_index(12.0, 2.0)), 40)
            index = NeighborIndex(pts, 12.0, 2.0)
            assert (index.k, index.j) == (k, j)
            for (x, y), cell in zip(pts, index.cells):
                col = min(max(int(x / index.cell), 0), index.lattice - 1)
                row = min(max(int(y / index.height), 0), index.ny - 1)
                assert cell == col * index.pitch + row // (k // j)

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
                assert np.array_equal(index.any_within(queries, mask, radius), want)
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
                assert np.array_equal(index.any_within(queries, mask, radius), want)
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
            for query, cand in index._pairs(queries, mask, radius):
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

    def test_any_within_without_block_filter(self):
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
        assert np.array_equal(index.any_within(queries, mask, R), want)


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
            assert np.array_equal(index.sorted_codes, index.codes[want])
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
    def test_sender_index_matches_the_masked_index(self):
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
                    got = full.any_within(queries, mask, radius)
                    assert np.array_equal(got, want), (trial, radius)
                    for index in (sized, NeighborIndex(senders, L, R)):
                        got = index.any_within(queries, everyone, radius)
                        assert np.array_equal(got, want), (trial, radius)
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
        # the counting pass where its 2 m^2 bins are no more than the
        # agents, the marking pass elsewhere, both on worlds with central
        # and suburb cells
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
        expected = a * p.L / p.R + b * z.suburb_diameter / p.v
        assert flood_time_budget(p, z) == pytest.approx(expected)
        assert suburb_reach(z) == z.suburb_diameter

    def test_budget_suburb_empty_drops_travel_term(self):
        n = 2000
        L = math.sqrt(n)
        R = (1 + math.sqrt(5)) / 2 * L * (3 * math.log(n) / n) ** (1 / 3)
        p = WorldParams(n=n, L=L, R=R, v=0.1)
        z = build_zone_map(p)
        assert z.suburb_empty
        assert flood_time_budget(p, z) == pytest.approx(18.0 * L / R)
        assert suburb_reach(z) == 0.0

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
