"""Closed-form stationary laws: identities, oracle cross-checks, samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrwpflood import stationary
from mrwpflood.core import derive_substream
from mrwpflood.stationary import (
    CROSS_EAST,
    CROSS_NORTH,
    CROSS_SOUTH,
    CROSS_WEST,
    QUAD_NE,
    QUAD_NW,
    QUAD_SE,
    QUAD_SW,
    cell_probability,
    cell_probability_quadrature,
    corner_sampler,
    destination_law,
    grid_cell_masses,
    peak_spatial_density,
    sample_destinations,
    sample_stationary_positions,
    spatial_density,
)
import oracle
from oracle import (
    quadrant_masses,
    sample_destination,
    sample_stationary_position,
    total_mass,
)

# strategy: positive arena sides away from degenerate float extremes
sides = st.floats(min_value=0.1, max_value=1e4)
unit = st.floats(min_value=0.0, max_value=1.0)
inner = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


class TestSpatialDensity:
    def test_center_value(self):
        # peak at the arena centre: f(L/2, L/2) = 1.5 / L^2
        assert spatial_density(5.0, 5.0, 10.0) == pytest.approx(0.015, abs=1e-15)

    def test_corners_are_zero(self):
        L = 7.0
        for x, y in [(0, 0), (0, L), (L, 0), (L, L)]:
            assert spatial_density(x, y, L) == pytest.approx(0.0, abs=1e-15)

    def test_peak_helper_matches_center(self):
        L = 3.7
        assert spatial_density(L / 2, L / 2, L) == pytest.approx(
            peak_spatial_density(L), rel=1e-14
        )

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            spatial_density(-0.01, 0.5, 1.0)
        with pytest.raises(ValueError):
            spatial_density(0.5, 1.01, 1.0)

    def test_array_input(self):
        xs = np.array([0.0, 5.0, 10.0])
        ys = np.array([0.0, 5.0, 10.0])
        out = spatial_density(xs, ys, 10.0)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.015)

    @given(sides, unit, unit)
    def test_symmetry_under_coordinate_swap(self, L, ux, uy):
        x, y = ux * L, uy * L
        assert spatial_density(x, y, L) == pytest.approx(
            spatial_density(y, x, L), rel=1e-12, abs=1e-300
        )

    @given(sides, unit, unit)
    def test_symmetry_under_point_reflection(self, L, ux, uy):
        x, y = ux * L, uy * L
        assert spatial_density(x, y, L) == pytest.approx(
            spatial_density(L - x, L - y, L),
            rel=1e-9,
            abs=1e-9 * peak_spatial_density(L),
        )

    @given(sides, unit, unit)
    def test_nonnegative_and_bounded_by_peak(self, L, ux, uy):
        f = spatial_density(ux * L, uy * L, L)
        assert -1e-12 / L**2 <= f <= peak_spatial_density(L) * (1 + 1e-12)


class TestCellProbability:
    def test_whole_square_has_unit_mass(self):
        for L in (1.0, 10.0, 123.456):
            assert cell_probability(0.0, 0.0, L, L) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_grid_masses_sum_to_one(self):
        for m in (1, 2, 7, 31):
            masses = grid_cell_masses(33.7, m)
            assert masses.shape == (m, m)
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_matches_per_cell_closed_form(self):
        L, m = 8.0, 5  # clean dyadic grid: no rounding at the far edge
        masses = grid_cell_masses(L, m)
        side = L / m
        for i in range(m):
            for j in range(m):
                assert masses[i, j] == pytest.approx(
                    cell_probability(i * side, j * side, side, L), rel=1e-14
                )

    def test_center_cell_outweighs_corner_cell(self):
        L = 10.0
        corner = cell_probability(0.0, 0.0, 1.0, L)
        center = cell_probability(4.5, 4.5, 1.0, L)
        assert center > corner > 0

    def test_rejects_cells_leaving_the_square(self):
        with pytest.raises(ValueError):
            cell_probability(9.5, 0.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            cell_probability(-0.1, 0.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            cell_probability(0.0, 0.0, 0.0, 10.0)

    @given(sides, inner, inner, st.floats(min_value=1e-6, max_value=1.0))
    def test_block_additivity(self, L, ux, uy, uside):
        # the mass of a 2x2 block of half-cells equals the mass of the block
        side = uside * min(ux, uy, 1 - ux, 1 - uy) * L
        if side <= 0:
            return
        x0, y0 = ux * L - side / 2, uy * L - side / 2
        half = side / 2
        total = sum(
            cell_probability(x0 + a * half, y0 + b * half, half, L)
            for a in (0, 1)
            for b in (0, 1)
        )
        assert total == pytest.approx(
            cell_probability(x0, y0, side, L), rel=1e-9, abs=1e-15
        )

    def test_quadrature_oracle_on_random_cells(self):
        # independent numerical route must agree to 1e-9 relative
        rng = derive_substream(2024, 0)
        L = 50.0
        for _ in range(100):
            side = rng.uniform(0.01, 0.5) * L
            x0 = rng.uniform(0, L - side)
            y0 = rng.uniform(0, L - side)
            exact = cell_probability(x0, y0, side, L)
            quad = cell_probability_quadrature(x0, y0, side, L)
            assert quad == pytest.approx(exact, rel=1e-9)

    def test_quadrature_rejects_odd_interval_count(self):
        with pytest.raises(ValueError):
            cell_probability_quadrature(0.0, 0.0, 1.0, 10.0, intervals=5)


class TestDestinationLaw:
    def test_cross_masses_split_evenly_at_center(self):
        law = destination_law((5.0, 5.0), 10.0)
        for mass in (law.cross.south, law.cross.north, law.cross.west, law.cross.east):
            assert mass == pytest.approx(0.125, abs=1e-15)

    def test_cross_total_is_half_everywhere(self):
        rng = derive_substream(2024, 1)
        L = 10.0
        for _ in range(1000):
            x0, y0 = rng.uniform(0, L, 2)
            law = destination_law((x0, y0), L)
            assert law.cross.total == pytest.approx(0.5, abs=1e-12)

    def test_total_mass_is_one_everywhere(self):
        rng = derive_substream(2024, 2)
        L = 10.0
        for _ in range(1000):
            x0, y0 = rng.uniform(0, L, 2)
            law = destination_law((x0, y0), L)
            assert total_mass(law) == pytest.approx(1.0, abs=1e-9)

    def test_opposite_cross_segments_match(self):
        law = destination_law((1.0, 7.0), 10.0)
        assert law.cross.south == law.cross.north
        assert law.cross.west == law.cross.east

    def test_quadrant_densities_favor_far_side(self):
        # from a point near the south-west corner, the far (north-east-ward)
        # mass per unit area is smallest: density ~ (x0 + y0)
        law = destination_law((1.0, 1.0), 10.0)
        assert law.density_sw > law.density_nw > law.density_ne
        assert law.density_sw > law.density_se > law.density_ne

    @pytest.mark.parametrize("corner", [(0, 0), (0, 10), (10, 0), (10, 10)])
    def test_all_four_corners_rejected(self, corner):
        with pytest.raises(ValueError):
            destination_law(corner, 10.0)

    def test_edge_midpoint_accepted(self):
        # only the corners are degenerate; other boundary points are fine
        law = destination_law((0.0, 5.0), 10.0)
        assert total_mass(law) == pytest.approx(1.0, abs=1e-12)
        # x0 = 0: west/east cross segments carry no mass
        assert law.cross.west == 0.0 and law.cross.east == 0.0

    def test_origin_outside_rejected(self):
        with pytest.raises(ValueError):
            destination_law((11.0, 5.0), 10.0)

    @given(sides, inner, inner)
    def test_total_mass_property(self, L, ux, uy):
        law = destination_law((ux * L, uy * L), L)
        assert total_mass(law) == pytest.approx(1.0, rel=1e-9)


class TestPositionSampler:
    def test_batch_shape_and_range(self):
        rng = derive_substream(7, 0)
        pts = sample_stationary_positions(rng, 1000, 10.0)
        assert pts.shape == (1000, 2)
        assert pts.min() >= 0.0 and pts.max() <= 10.0

    def test_zero_count(self):
        rng = derive_substream(7, 0)
        assert sample_stationary_positions(rng, 0, 10.0).shape == (0, 2)

    def test_deterministic_given_stream(self):
        a = sample_stationary_positions(derive_substream(7, 3), 500, 10.0)
        b = sample_stationary_positions(derive_substream(7, 3), 500, 10.0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("L", [1.0, 10.0, math.sqrt(2000), 1e4])
    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 64, 2000, 32_000])
    def test_matches_the_row_mask_oracle_bitwise(self, count, L):
        rng, ref = derive_substream(7, 0), derive_substream(7, 0)
        got = sample_stationary_positions(rng, count, L)
        want = oracle.sample_stationary_positions(ref, count, L)
        assert got.shape == want.shape == (count, 2)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("count, seed", [(31, 1925), (33, 274)])
    def test_a_short_first_batch_draws_a_second(self, count, seed):
        # these streams accept fewer than ``count`` of the first batch's
        # max(64, 2 * count) proposals, so the sampler draws another batch
        rng, ref = derive_substream(seed, 0), derive_substream(seed, 0)
        one_batch = derive_substream(seed, 0)
        one_batch.random(3 * max(64, 2 * count))
        got = sample_stationary_positions(rng, count, 10.0)
        assert rng.bit_generator.state != one_batch.bit_generator.state
        want = oracle.sample_stationary_positions(ref, count, 10.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("count", [0, 1, 20, 33, 2000])
    def test_corner_sampler_reads_the_sampler_positions(
        self, monkeypatch, count, fallback
    ):
        # the agents in the corner square, indices and positions, that the
        # whole sampler places on the same stream; one sampler serves all
        # streams, and with a negative margin every prefix falls short
        if fallback:
            monkeypatch.setattr(stationary, "PREFIX_SIGMAS", -20.0)
        L = math.sqrt(2000)
        samplers = {side: corner_sampler(count, L, side) for side in (3.0, 12.0, L)}
        for seed in range(30):
            want = sample_stationary_positions(derive_substream(seed, 0), count, L)
            corner = np.maximum(want[:, 0], want[:, 1])
            for side, sample in samplers.items():
                agents, pos = sample(derive_substream(seed, 0))
                assert np.array_equal(agents, np.flatnonzero(corner <= side))
                assert np.array_equal(pos.view(np.uint64), want[agents].view(np.uint64))
        if count == 2000:
            assert 0 < len(samplers[3.0](derive_substream(0, 0))[0]) < count

    def test_single_draw_matches_law_region(self):
        pt = sample_stationary_position(derive_substream(7, 4), 10.0)
        assert 0.0 <= pt.x <= 10.0 and 0.0 <= pt.y <= 10.0

    def test_histogram_matches_bin_masses(self):
        # chi-square against the exact masses; normal approximation of the
        # chi-square(99) tail puts a deterministic 5-sigma limit at ~169
        rng = derive_substream(7, 5)
        L, bins, count = 10.0, 10, 40_000
        pts = sample_stationary_positions(rng, count, L)
        edges = np.linspace(0, L, bins + 1)
        hist, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=[edges, edges])
        expected = grid_cell_masses(L, bins) * count
        chi2 = ((hist - expected) ** 2 / expected).sum()
        dof = bins * bins - 1
        assert chi2 < dof + 5.0 * math.sqrt(2.0 * dof)

    def test_mean_distance_from_center_below_uniform(self):
        # the stationary law concentrates toward the centre
        rng = derive_substream(7, 6)
        L, count = 10.0, 20_000
        pts = sample_stationary_positions(rng, count, L)
        d_stat = np.abs(pts - L / 2).sum(axis=1).mean()
        uni = rng.random((count, 2)) * L
        d_uni = np.abs(uni - L / 2).sum(axis=1).mean()
        assert d_stat < d_uni


class TestDestinationSampler:
    def test_batch_output_in_square(self):
        rng = derive_substream(8, 0)
        L = 10.0
        origins = sample_stationary_positions(rng, 2000, L)
        dest, cats = sample_destinations(origins, rng, L)
        assert dest.shape == origins.shape
        assert dest.min() >= 0.0 and dest.max() <= L
        assert cats.min() >= CROSS_SOUTH and cats.max() <= QUAD_SE

    def test_cross_destinations_share_a_coordinate(self):
        rng = derive_substream(8, 1)
        L = 10.0
        origins = sample_stationary_positions(rng, 2000, L)
        dest, cats = sample_destinations(origins, rng, L)
        ns = (cats == CROSS_SOUTH) | (cats == CROSS_NORTH)
        we = (cats == CROSS_WEST) | (cats == CROSS_EAST)
        assert np.array_equal(dest[ns, 0], origins[ns, 0])
        assert np.array_equal(dest[we, 1], origins[we, 1])

    def test_cross_categories_cover_half_the_draws(self):
        rng = derive_substream(8, 2)
        L = 10.0
        origins = sample_stationary_positions(rng, 20_000, L)
        _, cats = sample_destinations(origins, rng, L)
        frac = (cats <= CROSS_EAST).mean()
        # binomial(20000, 1/2): 5 sigma is ~0.0177
        assert frac == pytest.approx(0.5, abs=0.018)

    def test_quadrant_destinations_in_correct_quadrant(self):
        rng = derive_substream(8, 3)
        L = 10.0
        origins = sample_stationary_positions(rng, 5000, L)
        dest, cats = sample_destinations(origins, rng, L)
        x0, y0 = origins[:, 0], origins[:, 1]
        sel = cats == QUAD_SW
        assert (dest[sel, 0] <= x0[sel]).all() and (dest[sel, 1] <= y0[sel]).all()
        sel = cats == QUAD_NE
        assert (dest[sel, 0] >= x0[sel]).all() and (dest[sel, 1] >= y0[sel]).all()
        sel = cats == QUAD_NW
        assert (dest[sel, 0] <= x0[sel]).all() and (dest[sel, 1] >= y0[sel]).all()
        sel = cats == QUAD_SE
        assert (dest[sel, 0] >= x0[sel]).all() and (dest[sel, 1] <= y0[sel]).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_categories_match_the_stacked_oracle(self, seed):
        L = 10.0
        origins = sample_stationary_positions(derive_substream(seed, 0), 2000, L)
        origins[:4] = [[0.0, 0.0], [0.0, 5.0], [5.0, L], [L, 3.0]]  # edges, a corner
        rng, ref = derive_substream(seed, 1), derive_substream(seed, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, cats = sample_destinations(origins, rng, L)
            want = oracle.destination_categories(origins, ref.random(len(origins)), L)
        assert cats.dtype == want.dtype
        assert np.array_equal(cats, want)

    def test_single_draw_validates_origin(self):
        with pytest.raises(ValueError):
            sample_destination((0.0, 0.0), derive_substream(8, 4), 10.0)
        pt = sample_destination((5.0, 5.0), derive_substream(8, 4), 10.0)
        assert 0.0 <= pt.x <= 10.0 and 0.0 <= pt.y <= 10.0

    def test_category_frequencies_match_masses(self):
        # fix one origin, compare empirical category frequencies to the law
        rng = derive_substream(8, 5)
        L = 10.0
        origin = (3.0, 7.0)
        origins = np.tile(origin, (40_000, 1))
        _, cats = sample_destinations(origins, rng, L)
        law = destination_law(origin, L)
        expected = [
            law.cross.south,
            law.cross.north,
            law.cross.west,
            law.cross.east,
            *quadrant_masses(law),
        ]
        counts = np.bincount(cats, minlength=8)
        for k in range(8):
            p = expected[k]
            sigma = math.sqrt(p * (1 - p) / len(origins))
            assert counts[k] / len(origins) == pytest.approx(p, abs=5 * sigma)
