"""Experiment harnesses: budgets, sweeps, scaling, lower bound, stationarity."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mrwpflood.core import SPEED_ENVELOPE_DEFAULT, WorldParams, check_assumptions
from mrwpflood.experiments import (
    admissible_tau_range,
    default_sweep,
    derived_seed,
    lemma_sweep,
    lower_bound_experiment,
    lower_bound_params,
    make_params,
    scaling_experiment,
    stationarity_report,
    theoretical_bound,
    total_variation,
    turn_bound,
    turn_statistics,
)
from mrwpflood.flooding import run_flood
from mrwpflood.stationary import grid_cell_masses
from mrwpflood.zones import build_zone_map
import oracle


class TestHelpers:
    def test_derived_seed_deterministic(self):
        assert derived_seed(1, 2, 3) == derived_seed(1, 2, 3)
        assert derived_seed(1, 2, 3) != derived_seed(1, 2, 4)
        assert 0 <= derived_seed(0) < 2**64

    def test_make_params_standard_scaling(self):
        p = make_params(2500)
        assert p.L == 50.0
        assert p.R == pytest.approx(2.5 * 50.0 * math.sqrt(math.log(2500) / 2500))
        assert p.v == pytest.approx(p.R / SPEED_ENVELOPE_DEFAULT)
        assert check_assumptions(p).all_ok

    def test_make_params_multiplier(self):
        a = make_params(1000)
        b = make_params(1000, radius_multiplier=2.0)
        assert b.R == pytest.approx(2.0 * a.R)

    def test_make_params_explicit_overrides(self):
        p = make_params(1000, R=5.0, v=0.25)
        assert p.R == 5.0 and p.v == 0.25

    def test_grid_cell_masses_sum_to_one(self):
        assert grid_cell_masses(31.0, 20).sum() == pytest.approx(1.0, abs=1e-12)

    def test_total_variation(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert total_variation(p, q) == pytest.approx(0.5)
        assert total_variation(p, p) == 0.0


class TestTheoreticalBound:
    def test_matches_flood_record(self):
        p = make_params(500)
        rec = run_flood(p, source_rule="in_cz")
        assert rec.theoretical_bound == pytest.approx(theoretical_bound(p))

    def test_suburb_empty_is_pure_radius_term(self):
        p = make_params(1000, radius_multiplier=2.0)
        z = build_zone_map(p)
        assert z.suburb_empty
        assert theoretical_bound(p, z) == pytest.approx(18.0 * p.L / p.R)

    def test_larger_n_shrinks_relative_travel_term(self):
        # S / L = (3/2) L^2 ln n / (ell^2 n) falls as n grows at L = sqrt(n)
        def travel_share(n):
            p = make_params(n)
            z = build_zone_map(p)
            return (theoretical_bound(p, z) - 18.0 * p.L / p.R) / theoretical_bound(p, z)

        assert travel_share(4000) < travel_share(1000)

    def test_immobile_with_suburb_raises(self):
        p = replace(make_params(1000), v=0.0)
        with pytest.raises(ValueError):
            theoretical_bound(p)

    def test_custom_constants_scale_terms(self):
        p = make_params(1000)
        z = build_zone_map(p)
        double = theoretical_bound(p, z, constants=(36.0, 1200.0))
        assert double == pytest.approx(2.0 * theoretical_bound(p, z))


class TestDefaultSweep:
    def test_twenty_settings(self):
        sweep = default_sweep()
        assert len(sweep) == 20
        # all settings respect the operating envelopes
        assert all(check_assumptions(p).all_ok for p in sweep)
        # both sparse (eta = 0) and dense (eta > 0) settings are present
        assert any(p.eta == 0.0 for p in sweep)
        assert any(p.eta > 0.0 for p in sweep)

    def test_sweep_has_both_suburb_regimes(self):
        regimes = {build_zone_map(p).suburb_empty for p in default_sweep()}
        assert regimes == {False, True}


class TestTurnBound:
    def test_formula(self):
        p = make_params(1000)
        tau = 5
        expected = 4.0 * math.log(1000) / math.log(p.L / (p.v * tau))
        assert turn_bound(p, tau) == pytest.approx(expected)

    def test_degenerate_window_rejected(self):
        p = make_params(1000)
        too_long = int(p.L / p.v) + 1
        with pytest.raises(ValueError):
            turn_bound(p, too_long)

    def test_admissible_range(self):
        p = make_params(2000)
        lo, hi = admissible_tau_range(p)
        assert 1 <= lo <= hi
        assert hi == math.floor(p.L / (4.0 * p.v))

    def test_zero_speed_rejected(self):
        p = replace(make_params(1000), v=0.0)
        with pytest.raises(ValueError):
            admissible_tau_range(p)

    def test_turn_statistics_smoke(self):
        p = make_params(1000)
        rep = turn_statistics(p, windows=200, agents=10)
        assert rep.windows == 200
        assert 0 <= rep.violations <= 200
        assert rep.fraction == rep.violations / 200
        assert rep.max_ratio >= 0.0
        assert rep.tau_min >= 1 and rep.tau_max >= rep.tau_min
        d = rep.to_json_dict()
        assert d["windows"] == 200

    def test_turn_statistics_deterministic(self):
        p = make_params(1000)
        a = turn_statistics(p, windows=100, agents=5)
        b = turn_statistics(p, windows=100, agents=5)
        assert a.violations == b.violations and a.max_ratio == b.max_ratio


class TestLemmaSweep:
    def test_deterministic_checks_across_default_sweep(self):
        rep = lemma_sweep(
            include_expansion=False, include_density=False, include_turns=False
        )
        assert len(rep.settings) == 20
        assert rep.deterministic_violations == 0
        assert rep.ok

    def test_subset_with_all_checkers(self):
        rep = lemma_sweep(
            [make_params(1000)],
            expansion_samples=200,
            density_horizon=20,
            turn_windows=50,
        )
        s = rep.settings[0]
        assert s.expansion_checked >= 200
        assert s.turn_windows == 50
        assert not s.density_checked  # eta = 0 settings skip the monitor
        assert rep.ok

    def test_dense_setting_checks_density(self):
        rep = lemma_sweep(
            [make_params(1000, R=36.0, c1=13.0, eta=0.02)],
            density_horizon=20,
            include_expansion=False,
            include_turns=False,
        )
        s = rep.settings[0]
        assert s.density_checked
        assert s.density_violations == 0

    def test_eta_override_negative_control(self):
        rep = lemma_sweep(
            [make_params(1000, R=36.0, c1=13.0, eta=0.02)],
            eta_override=10.0,
            density_horizon=10,
            include_expansion=False,
            include_turns=False,
        )
        assert rep.settings[0].density_violations > 0
        assert not rep.ok

    def test_suburb_scale_negative_control(self):
        rep = lemma_sweep(
            suburb_scale=1.0 / 20.0,
            include_expansion=False,
            include_density=False,
            include_turns=False,
        )
        assert rep.deterministic_violations > 0
        assert not rep.ok

    def test_json_round_trip_fields(self):
        rep = lemma_sweep(
            [make_params(1000)],
            include_expansion=False,
            include_density=False,
            include_turns=False,
        )
        d = rep.to_json_dict()
        assert d["ok"] == rep.ok
        assert len(d["settings"]) == 1


class TestScaling:
    def test_small_scaling_run(self):
        rep = scaling_experiment(scales=(500,), replicas=3)
        assert len(rep.runs) == 6  # 3 replicas x 2 source rules
        assert rep.max_ratio > 0.0
        assert set(rep.slopes) == {"in_cz", "in_suburb"}
        assert rep.spread_constant > 0.0
        by_rule = {row["rule"]: row for row in rep.rows}
        assert by_rule["in_cz"]["median_time"] >= 1
        # every run completed within its budget-scaled cap
        assert not any(r.timed_out for r in rep.runs)

    def test_scaling_deterministic(self):
        a = scaling_experiment(scales=(500,), replicas=2)
        b = scaling_experiment(scales=(500,), replicas=2)
        assert [r.flooding_time for r in a.runs] == [
            r.flooding_time for r in b.runs
        ]
        assert a.max_ratio == b.max_ratio

    def test_replica_seeds_differ(self):
        rep = scaling_experiment(scales=(500,), replicas=3)
        seeds = {r.params.seed for r in rep.runs}
        assert len(seeds) == 6


class TestLowerBound:
    def test_standard_params_in_regime(self):
        params, d = lower_bound_params(n=2000)
        assert params.R <= d  # corner square dominates the radius
        assert 3.0 * d <= params.L
        assert d == pytest.approx(0.23 * params.L / 2000 ** (1.0 / 3.0))

    def test_threshold_halves_when_speed_doubles(self):
        params, d = lower_bound_params(n=1000)
        a = lower_bound_experiment(params, d, trials=10)
        fast = replace(params, v=2.0 * params.v)
        b = lower_bound_experiment(fast, d, trials=10)
        assert b.threshold == pytest.approx(a.threshold / 2.0)

    def test_event_counting_consistent(self):
        params, d = lower_bound_params(n=1000)
        rep = lower_bound_experiment(params, d, trials=400)
        assert rep.hits <= min(rep.f_occupied, rep.annulus_empty)
        assert rep.floods <= rep.hits
        assert len(rep.conditional_times) == rep.floods
        assert rep.conditional_satisfied <= rep.floods
        assert 0.0 <= rep.probability <= 1.0

    def test_flood_cap_limits_conditional_runs(self):
        params, d = lower_bound_params(n=1000)
        rep = lower_bound_experiment(params, d, trials=400, flood_cap=1)
        assert rep.floods <= 1

    def test_invalid_geometry_rejected(self):
        params, d = lower_bound_params(n=1000)
        with pytest.raises(ValueError):
            lower_bound_experiment(replace(params, R=2.0 * d), d, trials=1)
        with pytest.raises(ValueError):
            lower_bound_experiment(params, params.L, trials=1)
        with pytest.raises(ValueError):
            lower_bound_experiment(replace(params, v=0.0), d, trials=1)

    @pytest.mark.parametrize(
        "seed, override", [(0, None), (2**32 + 1, None), (0, 4_000_000_007)]
    )
    def test_matches_the_trial_by_trial_oracle(self, seed, override):
        params, d = lower_bound_params(n=1000, seed=seed)
        got = lower_bound_experiment(params, d, trials=400, seed=override, flood_cap=2)
        want = oracle.lower_bound_experiment(
            params, d, trials=400, seed=override, flood_cap=2
        )
        assert got.to_json_dict() == want.to_json_dict()
        assert got.floods > 0

    def test_deterministic(self):
        params, d = lower_bound_params(n=1000)
        a = lower_bound_experiment(params, d, trials=200)
        b = lower_bound_experiment(params, d, trials=200)
        assert a.hits == b.hits
        assert a.conditional_times == b.conditional_times


class TestStationarity:
    def test_small_report(self):
        p = make_params(400)
        rep = stationarity_report(p, bins=8, snapshots=30)
        assert rep.tv_model < 0.1  # loose: tiny pooled sample
        assert rep.tv_init is not None and rep.tv_init < 0.1
        assert rep.histogram_warmup.shape == (8, 8)
        assert rep.histogram_warmup.sum() == pytest.approx(1.0)
        d = rep.to_json_dict()
        assert d["bins"] == 8 and d["tv_model"] == rep.tv_model

    def test_skip_approx_comparison(self):
        p = make_params(400)
        rep = stationarity_report(
            p, bins=5, snapshots=5, compare_approx=False
        )
        assert rep.tv_init is None and rep.histogram_approx is None

    def test_zero_speed_rejected(self):
        p = replace(make_params(400), v=0.0)
        with pytest.raises(ValueError):
            stationarity_report(p, bins=5, snapshots=5)
