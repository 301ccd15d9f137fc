"""Grid construction, central-zone geometry, boundary expansion, suburb checks."""

import math

import numpy as np
import pytest

from mrwpflood.core import WorldParams
from mrwpflood.zones import (
    EXHAUSTIVE_LIMIT,
    ZoneMap,
    _random_subsets,
    boundary,
    build_zone_map,
    cell_side_bracket,
    check_expansion,
    check_suburb_diameter,
    core_bounds,
    cz_row_column_counts,
    grid_index,
    grid_svg,
    manhattan_distance,
    zone_map_svg,
    zone_map_to_csv,
)
from oracle import cell_center, expansion_margin


def world(n=500, L=None, R=None, v=None, c1=2.5, seed=0, **kw):
    L = math.sqrt(n) if L is None else L
    R = c1 * L * math.sqrt(math.log(n) / n) if R is None else R
    v = R / 9.7 if v is None else v
    return WorldParams(n=n, L=L, R=R, v=v, c1=c1, seed=seed, **kw)


def hand_map(central: np.ndarray, n: int = 1000, L: float = 10.0) -> ZoneMap:
    """Assemble a ZoneMap with a hand-chosen central mask (uniform probs)."""
    m = central.shape[0]
    ell = L / m
    probs = np.full((m, m), 1.0 / (m * m))
    return ZoneMap(
        n=n,
        L=L,
        R=ell * math.sqrt(5.0),
        m=m,
        ell=ell,
        prob_threshold=0.0,
        probs=probs,
        central=central.astype(bool),
        extended_suburb=~central.astype(bool),
        suburb_diameter=1.5 * L**3 * math.log(n) / (ell**2 * n),
    )


def loop_manhattan_distance(mask: np.ndarray) -> np.ndarray:
    """Brute-force oracle: one full-grid distance array per marked cell."""
    ii, jj = np.meshgrid(
        np.arange(mask.shape[0]), np.arange(mask.shape[1]), indexing="ij"
    )
    nearest = np.full(mask.shape, np.inf)
    for si, sj in np.argwhere(mask):
        np.minimum(nearest, np.abs(ii - si) + np.abs(jj - sj), out=nearest)
    return nearest


def loop_suburb_diameter(zone_map: ZoneMap, scale: float = 1.0):
    """Per-cell reference for check_suburb_diameter, in sorted cell order."""
    allowance = scale * zone_map.suburb_diameter
    m, ell = zone_map.m, zone_map.ell
    worst, worst_cell, violations = -math.inf, None, 0
    for i, j in sorted(map(tuple, np.argwhere(~zone_map.central).tolist())):
        far = max(min(i, m - 1 - i) * ell, min(j, m - 1 - j) * ell)
        if far > worst:
            worst, worst_cell = far, (i, j)
        if far > allowance:
            violations += 1
    return allowance, (0.0 if worst == -math.inf else worst), worst_cell, violations


def clipped_cells(coords: np.ndarray, side: float, m: int) -> np.ndarray:
    """Reference for ``grid_index``: ``min(max(int(x / side), 0), m - 1)``
    for each coordinate, NaN in cell 0."""
    cells = [
        0 if math.isnan(x) else min(max(int(x / side), 0), m - 1)
        for x in np.ravel(coords).tolist()
    ]
    return np.array(cells, dtype=np.int64).reshape(np.shape(coords))


class TestGridIndex:
    # (L, side, m): two lines whose far edge x = L truncates to m, and one
    # whose grid reaches past L
    @pytest.mark.parametrize(
        "L, side, m", [(4.0, 0.5, 8), (10.0, 10.0 / 7.0, 7), (11.0, 0.3, 40)]
    )
    def test_truncates_then_clips_into_the_grid(self, L, side, m):
        # Each coordinate off the grid comes alone among coordinates in it,
        # so that the range check must find it: a grid_index that only
        # truncates fails every such case, one that clips only past m fails
        # the far edge where L / side == m, and one whose check misses
        # negative cells fails the coordinates below 0.
        assert (L / side == m) == (L < 11.0)
        rng = np.random.default_rng(m)
        edges = np.arange(m + 1) * side
        inside = np.concatenate(
            [rng.random(40) * L, [0.0, -0.0, np.nextafter(L, 0.0)], edges,
             np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        )
        inside = inside[(inside >= 0.0) & (inside < L)]
        off = [
            L, np.nextafter(L, np.inf), -1e-9, np.nextafter(0.0, -1.0), -2.5 * side,
            -1e6, L + 1e-9, L + 2.5 * side, m * side, 1e6, np.nan,
        ]
        cases = [inside, np.empty(0), np.array(off)]
        cases += [np.insert(inside, i % len(inside), x) for i, x in enumerate(off)]
        for coords in cases:
            for shaped in (coords, np.stack([coords, coords[::-1]], axis=-1)):
                with np.errstate(invalid="ignore"):  # NaN to int64
                    got = grid_index(shaped, side, m)
                assert got.dtype == np.int64 and got.shape == shaped.shape
                assert np.array_equal(got, clipped_cells(shaped, side, m)), coords


class TestManhattanDistance:
    def test_matches_loop_on_random_masks(self):
        rng = np.random.default_rng(7)
        densities = np.linspace(0.01, 0.99, 10)
        for k in range(200):
            m = int(rng.integers(1, 41))
            shape = (m, m) if k % 4 else (m, int(rng.integers(1, 41)))
            mask = rng.random(shape) < densities[k % len(densities)]
            assert np.array_equal(
                manhattan_distance(mask), loop_manhattan_distance(mask)
            )

    @pytest.mark.parametrize("m", [1, 2, 7, 30])
    def test_edge_masks(self, m):
        single = np.zeros((m, m), dtype=bool)
        single[m // 3, m - 1] = True
        for mask in (
            single,
            np.ones((m, m), dtype=bool),
            np.zeros((m, m), dtype=bool),
        ):
            d = manhattan_distance(mask)
            assert d.dtype == np.float64
            assert np.array_equal(d, loop_manhattan_distance(mask))
        assert np.isinf(manhattan_distance(np.zeros((m, m), dtype=bool))).all()
        assert not manhattan_distance(np.ones((m, m), dtype=bool)).any()

    def test_built_maps_match_loop(self):
        for p in (world(n=500), world(n=3000), world(n=10_000, c1=2.0)):
            z = build_zone_map(p)
            nearest = loop_manhattan_distance(~z.central)
            loop = nearest * z.ell <= 2.0 * z.suburb_diameter
            assert np.array_equal(z.extended_suburb, loop)

    def test_proper_extended_suburb(self):
        # at the threshold radius S ~ 1.2 L, so the extended suburb covers
        # the grid; a larger radius shrinks S below (m - 1) ell while the
        # four corner cells stay suburb
        n = 30_000
        L = math.sqrt(n)
        z = build_zone_map(WorldParams(n=n, L=L, R=math.sqrt(5.0) * L / 29.5, v=0.1))
        assert z.m == 30
        assert 2.0 * z.suburb_diameter < 2.0 * (z.m - 1) * z.ell
        assert not z.suburb_empty
        assert 0 < z.extended_suburb.sum() < z.m * z.m
        nearest = loop_manhattan_distance(~z.central)
        assert np.array_equal(
            z.extended_suburb, nearest * z.ell <= 2.0 * z.suburb_diameter
        )
        assert not (~z.central & ~z.extended_suburb).any()


class TestCellSideBracket:
    def test_bracket_order_and_m(self):
        L, R = 10.0, 3.0
        lo, hi = cell_side_bracket(L, R)
        assert lo == pytest.approx(R / (1 + math.sqrt(5)))
        assert hi == pytest.approx(R / math.sqrt(5))
        assert lo < hi

    def test_built_cell_side_lies_in_bracket(self):
        for n in (100, 500, 2000, 10_000):
            p = world(n=n)
            z = build_zone_map(p)
            lo, hi = cell_side_bracket(p.L, p.R)
            assert lo <= z.ell <= hi
            assert z.m == math.ceil(math.sqrt(5.0) * p.L / p.R)
            assert z.ell * z.m == pytest.approx(p.L)


class TestBuildZoneMap:
    def test_radius_too_large_rejected(self):
        p = WorldParams(n=100, L=10.0, R=15.0, v=0.1)
        with pytest.raises(ValueError):
            build_zone_map(p)

    def test_threshold_value(self):
        p = world(n=2000)
        z = build_zone_map(p)
        assert z.prob_threshold == pytest.approx(
            (3.0 / 8.0) * math.log(2000) / 2000, rel=1e-15
        )

    def test_probabilities_sum_to_one(self):
        z = build_zone_map(world(n=2000))
        assert z.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_central_mask_matches_threshold(self):
        z = build_zone_map(world(n=2000))
        assert np.array_equal(z.central, z.probs >= z.prob_threshold)

    def test_four_fold_symmetry(self):
        # the stationary law is symmetric under both reflections, so the
        # central mask must be too
        z = build_zone_map(world(n=3000))
        assert np.array_equal(z.central, z.central[::-1, :])
        assert np.array_equal(z.central, z.central[:, ::-1])
        assert np.array_equal(z.central, z.central.T)

    def test_corner_cells_have_least_mass(self):
        z = build_zone_map(world(n=2000))
        corner = z.probs[0, 0]
        assert corner == z.probs.min()
        assert z.probs.max() == z.probs[(z.m - 1) // 2 : z.m // 2 + 1,
                                        (z.m - 1) // 2 : z.m // 2 + 1].max()

    def test_suburb_sits_in_extended_suburb(self):
        z = build_zone_map(world(n=3000))
        assert not (~z.central & ~z.extended_suburb).any()

    def test_cell_lookup(self):
        z = build_zone_map(world(n=500))
        pts = np.array([[0.0, 0.0], [z.L, z.L], [z.L / 2, z.ell / 2]])
        i, j = z.cell_index(pts)
        assert i.dtype == j.dtype == np.int64
        assert (i[0], j[0]) == (0, 0)
        assert (i[1], j[1]) == (z.m - 1, z.m - 1)  # far edge folds in
        assert i[2] == z.m // 2 and j[2] == 0
        # the scalar truncate-and-clip rule, point by point
        rng = np.random.default_rng(4)
        pts = np.concatenate([rng.random((500, 2)) * z.L, [[z.L, 0.0], [0.0, z.L]]])
        i, j = z.cell_index(pts)
        for k, (x, y) in enumerate(pts):
            assert (i[k], j[k]) == (
                min(int(x / z.ell), z.m - 1),
                min(int(y / z.ell), z.m - 1),
            )
        assert z.central[z.cell_index(pts)].shape == (len(pts),)

    def test_cell_center(self):
        z = build_zone_map(world(n=500))
        cx, cy = cell_center(z, (0, 0))
        assert cx == pytest.approx(z.ell / 2) and cy == pytest.approx(z.ell / 2)

    def test_large_radius_regime_has_no_suburb(self):
        # radius at (1+sqrt(5))/2 * L * (3 ln n / n)^(1/3) or more makes
        # every cell central (each cell mass clears the threshold)
        n = 2000
        L = math.sqrt(n)
        R = (1 + math.sqrt(5)) / 2 * L * (3 * math.log(n) / n) ** (1 / 3)
        z = build_zone_map(WorldParams(n=n, L=L, R=R, v=0.1))
        assert z.suburb_empty
        assert z.cz_size == z.m * z.m

    def test_to_dict_fields(self):
        z = build_zone_map(world(n=500))
        d = z.to_json_dict()
        assert d["m"] == z.m and d["cz_size"] == z.cz_size
        assert d["suburb_diameter"] == pytest.approx(
            1.5 * z.L**3 * math.log(z.n) / (z.ell**2 * z.n)
        )


class TestCoverage:
    def test_every_row_and_column_hit_on_built_maps(self):
        for n in (500, 2000, 5000):
            z = build_zone_map(world(n=n))
            rep = cz_row_column_counts(z)
            assert rep.ok
            assert rep.rows_with_central == z.m
            assert rep.columns_with_central == z.m
            assert rep.floor == pytest.approx(z.m / math.sqrt(2.0))

    def test_single_row_map_fails_coverage(self):
        central = np.zeros((4, 4), dtype=bool)
        central[:, 2] = True  # all central cells share one grid row
        z = hand_map(central)
        rep = cz_row_column_counts(z)
        assert rep.rows_with_central == 1
        assert rep.columns_with_central == 4
        assert not rep.ok


def set_boundary(cells, central: np.ndarray) -> frozenset:
    """Reference vertex boundary on cell tuples: central cells outside the
    set that share a grid edge with a cell inside it."""
    inside = frozenset(cells)
    cz = frozenset(map(tuple, np.argwhere(central).tolist()))
    out = set()
    for i, j in inside:
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cz and nb not in inside:
                out.add(nb)
    return frozenset(out)


def reference_check_expansion(central, mode, samples=100_000, rng=None):
    """The set/bitmask expansion checker, kept as the oracle: sorted central
    cell tuples, neighbour bitmasks and a per-subset popcount loop for
    ``exhaustive``; a dense adjacency matrix product per batch of 512 draws
    for ``random``.  Returns (checked, violations, worst, witness cells)."""
    cells = sorted(map(tuple, np.argwhere(central).tolist()))
    cz = len(cells)
    if cz < 2:
        return 0, 0, math.inf, None
    pos = {c: k for k, c in enumerate(cells)}
    adj = np.zeros((cz, cz), dtype=np.float32)
    for (i, j), k in pos.items():
        for d in ((1, 0), (0, 1)):
            nb = pos.get((i + d[0], j + d[1]))
            if nb is not None:
                adj[k, nb] = adj[nb, k] = 1.0
    worst, witness, violations, checked = math.inf, None, 0, 0
    if mode == "exhaustive":
        nb_masks = [0] * cz
        for k in range(cz):
            for other in np.flatnonzero(adj[k]):
                nb_masks[k] |= 1 << int(other)
        full = (1 << cz) - 1
        for s in range(1, full):
            reach, x = 0, s
            while x:
                low = x & -x
                reach |= nb_masks[low.bit_length() - 1]
                x ^= low
            size = s.bit_count()
            margin = (reach & ~s & full).bit_count() - math.sqrt(min(size, cz - size))
            checked += 1
            if margin < worst:
                worst = margin
                witness = frozenset(cells[k] for k in range(cz) if s >> k & 1)
            if margin < 0:
                violations += 1
        return checked, violations, worst, witness
    rng = np.random.default_rng(0) if rng is None else rng
    drawn = 0
    while drawn < samples:
        b = min(512, samples - drawn)
        drawn += b
        masks = rng.random((b, cz)) < 0.5
        sizes = masks.sum(axis=1)
        proper = (sizes > 0) & (sizes < cz)
        masks, sizes = masks[proper], sizes[proper]
        if masks.shape[0] == 0:
            continue
        touched = (masks.astype(np.float32) @ adj) > 0.0
        margins = (touched & ~masks).sum(axis=1) - np.sqrt(np.minimum(sizes, cz - sizes))
        checked += masks.shape[0]
        violations += int((margins < 0).sum())
        low = int(np.argmin(margins))
        if margins[low] < worst:
            worst = float(margins[low])
            witness = frozenset(cells[k] for k in np.flatnonzero(masks[low]))
    return checked, violations, worst, witness


def mask_of(cells, m: int) -> np.ndarray:
    mask = np.zeros((m, m), dtype=bool)
    for cell in cells:
        mask[cell] = True
    return mask


def assert_matches_reference(rep, central, mode, **kw):
    checked, violations, worst, witness = reference_check_expansion(
        central, mode, **kw
    )
    assert rep.subsets_checked == checked
    assert rep.violations == violations
    assert rep.worst_margin == worst
    if witness is None:
        assert rep.witness is None
    else:
        assert rep.witness.shape == central.shape and rep.witness.dtype == bool
        assert np.argwhere(rep.witness).tolist() == [list(c) for c in sorted(witness)]


class TestBoundary:
    def test_empty_set(self):
        z = build_zone_map(world(n=500))
        b = boundary(np.zeros((z.m, z.m), dtype=bool), z)
        assert b.shape == (z.m, z.m) and b.dtype == bool
        assert not b.any()

    def test_full_cz_has_empty_boundary(self):
        z = build_zone_map(world(n=500))
        assert not boundary(z.central.copy(), z).any()

    def test_interior_cell_has_four_neighbours(self):
        z = build_zone_map(world(n=500))
        mid = (z.m // 2, z.m // 2)
        b = boundary(mask_of([mid], z.m), z)
        assert b.sum() == 4
        assert all(abs(i - mid[0]) + abs(j - mid[1]) == 1 for i, j in np.argwhere(b))

    def test_non_central_member_rejected(self):
        central = np.zeros((3, 3), dtype=bool)
        central[1, 1] = True
        z = hand_map(central)
        with pytest.raises(ValueError):
            boundary(mask_of([(0, 0)], 3), z)
        with pytest.raises(ValueError):
            boundary(np.zeros((2, 2), dtype=bool), z)  # not an m x m mask

    def test_boundary_stays_central(self):
        z = build_zone_map(world(n=2000))
        cells = z.central & (np.random.default_rng(1).random((z.m, z.m)) < 0.05)
        assert cells.any()
        assert not (boundary(cells, z) & ~z.central).any()

    def test_matches_set_form(self):
        rng = np.random.default_rng(11)
        maps = [hand_map(rng.random((m, m)) < rng.uniform(0.2, 1.0))
                for m in rng.integers(1, 16, size=60)]
        maps += [build_zone_map(world(n=n)) for n in (500, 2000)]
        for z in maps:
            for density in (0.0, 0.1, 0.5, 1.0):
                cells = z.central & (rng.random((z.m, z.m)) < density)
                want = set_boundary(map(tuple, np.argwhere(cells).tolist()), z.central)
                assert np.array_equal(boundary(cells, z), mask_of(want, z.m))


class TestExpansion:
    def test_margin_matches_reference_definition(self):
        z = build_zone_map(world(n=500))
        subset = z.central.copy()
        subset.flat[np.flatnonzero(z.central)[z.cz_size // 3:]] = False
        size = z.cz_size // 3
        assert subset.sum() == size
        cells = map(tuple, np.argwhere(subset).tolist())
        expected = len(set_boundary(cells, z.central)) - math.sqrt(
            min(size, z.cz_size - size)
        )
        assert expansion_margin(subset, z) == expected

    def test_exhaustive_on_all_central_grid(self):
        central = np.ones((2, 2), dtype=bool)
        z = hand_map(central)
        rep = check_expansion(z, mode="exhaustive")
        assert rep.mode == "exhaustive"
        assert rep.subsets_checked == 2**4 - 2  # nonempty proper subsets
        assert rep.violations == 0
        assert rep.ok
        assert rep.worst_margin >= 0

    def test_exhaustive_agrees_with_reference_margins(self):
        central = np.ones((3, 3), dtype=bool)
        central[0, 0] = False
        z = hand_map(central)
        rep = check_expansion(z, mode="exhaustive")
        cells = np.argwhere(central)
        worst = math.inf
        for bits in range(1, 2 ** len(cells) - 1):
            subset = mask_of(
                [tuple(cells[k]) for k in range(len(cells)) if bits >> k & 1], 3
            )
            worst = min(worst, expansion_margin(subset, z))
        assert rep.worst_margin == pytest.approx(worst)
        assert rep.violations == (0 if worst >= 0 else 1)
        assert expansion_margin(rep.witness, z) == rep.worst_margin

    def test_exhaustive_matches_bitmask_oracle(self):
        rng = np.random.default_rng(12)
        nontrivial = 0
        for trial in range(240):
            m = int(rng.integers(2, 7))
            central = rng.random((m, m)) < rng.uniform(0.25, 1.0)
            cap = 16 if trial % 40 == 0 else 12
            cz = np.flatnonzero(central)
            if cz.size > cap:
                central.flat[rng.choice(cz, cz.size - cap, replace=False)] = False
            nontrivial += central.sum() >= 2
            rep = check_expansion(hand_map(central), mode="exhaustive")
            assert_matches_reference(rep, central, "exhaustive")
        assert nontrivial >= 200

    def test_random_subsets_are_the_one_shot_rows(self):
        # chunked draws into a reused buffer give the rows of one draw
        for cz, samples in ((2, 700), (40, 1), (40, 64), (40, 1500), (300, 513)):
            got = list(_random_subsets(cz, samples, np.random.default_rng(cz)))
            rng = np.random.default_rng(cz)
            sizes = [512] * (samples // 512) + [samples % 512] * (samples % 512 > 0)
            assert len(got) == len(sizes)
            for b, rows in zip(sizes, got):
                want = rng.random((b, cz)) < 0.5
                count = want.sum(axis=1)
                assert np.array_equal(rows, want[(count > 0) & (count < cz)])

    def test_random_matches_matrix_oracle(self):
        maps = [build_zone_map(world(n=n)) for n in (500, 2000, 10_000)]
        rng = np.random.default_rng(13)
        maps += [hand_map(rng.random((m, m)) < 0.7) for m in (5, 9, 30)]
        # two central cells: a quarter of the draws are empty or full
        maps.append(hand_map(mask_of([(0, 0), (0, 1)], 3)))
        for k, z in enumerate(maps):
            for samples in (1, 700, 1500):
                rep = check_expansion(
                    z, mode="random", samples=samples, rng=np.random.default_rng(k)
                )
                assert_matches_reference(
                    rep, z.central, "random", samples=samples,
                    rng=np.random.default_rng(k),
                )

    def test_disconnected_set_violates(self):
        # two far-apart central cells in a sea of suburb: the subset holding
        # both has boundary 0 but sqrt(min(2, ...)) > 0
        central = np.zeros((5, 5), dtype=bool)
        central[0, 0] = central[4, 4] = central[2, 2] = True
        z = hand_map(central)
        rep = check_expansion(z, mode="exhaustive")
        assert rep.violations > 0
        assert not rep.ok
        assert rep.worst_margin < 0
        assert rep.witness is not None
        assert not (rep.witness & ~central).any()
        assert expansion_margin(rep.witness, z) == rep.worst_margin

    def test_random_mode_on_built_map(self):
        z = build_zone_map(world(n=2000))
        rep = check_expansion(z, mode="random", samples=2000)
        assert rep.mode == "random"
        assert rep.subsets_checked == 2000
        assert rep.violations == 0
        assert expansion_margin(rep.witness, z) == pytest.approx(rep.worst_margin)

    def test_auto_picks_exhaustive_below_limit(self):
        central = np.ones((3, 3), dtype=bool)
        z = hand_map(central)
        rep = check_expansion(z)  # 9 cells <= EXHAUSTIVE_LIMIT
        assert rep.mode == "exhaustive"
        assert z.cz_size <= EXHAUSTIVE_LIMIT

    def test_auto_picks_random_above_limit(self):
        z = build_zone_map(world(n=2000))  # hundreds of central cells
        rep = check_expansion(z, samples=500)
        assert rep.mode == "random"

    def test_random_mode_reproducible(self):
        z = build_zone_map(world(n=2000))
        a = check_expansion(z, mode="random", samples=500,
                            rng=np.random.default_rng(5))
        b = check_expansion(z, mode="random", samples=500,
                            rng=np.random.default_rng(5))
        assert a.worst_margin == b.worst_margin
        assert np.array_equal(a.witness, b.witness)


class TestSuburbDiameter:
    def test_built_maps_pass(self):
        for n in (500, 2000, 10_000):
            z = build_zone_map(world(n=n))
            rep = check_suburb_diameter(z)
            assert rep.ok
            assert rep.violations == 0
            assert rep.allowance == z.suburb_diameter

    def test_scaled_down_allowance_fires(self):
        # S/20 is smaller than the actual corner suburbs on dense sweeps
        z = build_zone_map(world(n=10_000, c1=2.0))
        assert not z.suburb_empty
        rep = check_suburb_diameter(z, scale=1.0 / 20.0)
        assert rep.violations > 0
        assert not rep.ok

    def test_empty_suburb_trivially_ok(self):
        n = 2000
        L = math.sqrt(n)
        R = (1 + math.sqrt(5)) / 2 * L * (3 * math.log(n) / n) ** (1 / 3)
        z = build_zone_map(WorldParams(n=n, L=L, R=R, v=0.1))
        rep = check_suburb_diameter(z, scale=1e-9)
        assert rep.ok and rep.violations == 0

    def test_folded_coordinates(self):
        # a suburb cell near the far corner counts by distance to that
        # corner, not to the origin
        central = np.ones((4, 4), dtype=bool)
        central[3, 3] = False
        z = hand_map(central)
        rep = check_suburb_diameter(z)
        # folded coords of (3,3) on a 4-grid: min(3, 0) = 0 in both axes
        assert rep.worst_distance == 0.0


    def test_matches_loop(self):
        rng = np.random.default_rng(3)
        maps = [
            hand_map(np.ones((4, 4), dtype=bool)),
            hand_map(np.zeros((1, 1), dtype=bool)),
            hand_map(np.zeros((5, 5), dtype=bool)),
        ]
        # ties: the four corners of a symmetric grid share one folded value
        corners = np.ones((6, 6), dtype=bool)
        corners[[0, 0, 5, 5], [0, 5, 0, 5]] = False
        maps.append(hand_map(corners))
        maps += [hand_map(rng.random((m, m)) < 0.6) for m in (1, 3, 8, 13)]
        maps += [build_zone_map(world(n=n)) for n in (500, 2000)]
        maps.append(build_zone_map(world(n=10_000, c1=2.0)))
        ties = 0
        for z in maps:
            # allowances at a folded coordinate: a cell sitting exactly on
            # it does not violate
            scales = [1.0, 1.0 / 20.0, 1e-9]
            scales += [k * z.ell / z.suburb_diameter for k in (1, 2)]
            ties += sum(s * z.suburb_diameter == z.ell for s in scales)
            for scale in scales:
                rep = check_suburb_diameter(z, scale=scale)
                assert (
                    rep.allowance, rep.worst_distance, rep.worst_cell, rep.violations
                ) == loop_suburb_diameter(z, scale)
                assert type(rep.worst_distance) is float
        assert ties > 0


class TestCoreBounds:
    def test_middle_ninth(self):
        z = build_zone_map(world(n=500))
        x0, x1, y0, y1 = core_bounds(z, (1, 2))
        assert x0 == pytest.approx(1 * z.ell + z.ell / 3)
        assert x1 == pytest.approx(1 * z.ell + 2 * z.ell / 3)
        assert y0 == pytest.approx(2 * z.ell + z.ell / 3)
        assert y1 == pytest.approx(2 * z.ell + 2 * z.ell / 3)
        assert (x1 - x0) == pytest.approx(z.ell / 3)


class TestRendering:
    def test_csv_contains_every_cell(self):
        z = build_zone_map(world(n=500))
        text = zone_map_to_csv(z)
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == z.m * z.m + 1  # header + cells

    def test_svg_well_formed(self):
        z = build_zone_map(world(n=500))
        svg = zone_map_svg(z)
        assert svg.startswith("<?xml") or svg.startswith("<svg")
        assert svg.count("<rect") >= z.m * z.m
        assert "</svg>" in svg
        assert svg.count('stroke="#cc0000"') == z.cz_size
        assert grid_svg(z.probs) == svg.replace(' stroke="#cc0000" stroke-width="1"', "")
