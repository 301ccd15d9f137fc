"""Experiment harnesses: budgets, sweeps, scaling, lower bound, stationarity."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mrwpflood import experiments, flooding, stationary
from mrwpflood.core import SPEED_ENVELOPE_DEFAULT, WorldParams, check_assumptions
from mrwpflood.experiments import (
    _turn_counter,
    admissible_tau_range,
    default_sweep,
    derived_seed,
    lemma_sweep,
    lower_bound_experiment,
    lower_bound_params,
    make_params,
    scaling_experiment,
    stationarity_report,
    total_variation,
    turn_bound,
    turn_statistics,
)
from mrwpflood.flooding import SourcePlacementError, flood_time_budget, run_flood
from mrwpflood.mobility import APPROX_STATIONARY, TrajectoryRecorder, init_population
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
    """``flood_time_budget``, the budget a flood record reports."""

    def test_matches_flood_record(self):
        p = make_params(500)
        rec = run_flood(p, source_rule="in_cz")
        assert rec.theoretical_bound == flood_time_budget(p, build_zone_map(p))

    def test_suburb_empty_is_pure_radius_term(self):
        p = make_params(1000, radius_multiplier=2.0)
        z = build_zone_map(p)
        assert z.suburb_empty
        assert flood_time_budget(p, z) == pytest.approx(18.0 * p.L / p.R)

    def test_larger_n_shrinks_relative_travel_term(self):
        # S / L = (3/2) L^2 ln n / (ell^2 n) falls as n grows at L = sqrt(n)
        def travel_share(n):
            p = make_params(n)
            budget = flood_time_budget(p, build_zone_map(p))
            return (budget - 18.0 * p.L / p.R) / budget

        assert travel_share(4000) < travel_share(1000)

    def test_immobile_with_suburb_is_infinite(self):
        # flooding need not terminate, so no finite budget exists
        p = replace(make_params(1000), v=0.0)
        z = build_zone_map(p)
        assert not z.suburb_empty
        assert flood_time_budget(p, z) == math.inf

    def test_custom_constants_scale_terms(self):
        p = make_params(1000)
        z = build_zone_map(p)
        double = flood_time_budget(p, z, constants=(36.0, 1200.0))
        assert double == pytest.approx(2.0 * flood_time_budget(p, z))


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


class TestTurnCounter:
    """``turn_statistics``' count by binary search against the event-by-event
    replay (``oracle.count_turns``), on every window of integer start and
    length up to 15 (``tau_max`` at the cap) of recorded runs at the speed
    cap and at 4 and 20 times it."""

    @pytest.mark.parametrize("speedup", [1, 4, 20])
    def test_matches_replay_on_every_window(self, speedup):
        p = make_params(2000)
        p = replace(p, v=speedup * p.v)
        horizon = 60
        pop = init_population(p, APPROX_STATIONARY)
        rec = TrajectoryRecorder(pop, range(0, p.n, 40))
        pop.advance(horizon, recorder=rec)
        kept = most = 0
        for a, events in rec.events.items():
            count = _turn_counter(rec.start[a][2], events)
            traj = oracle.trajectory(pop, rec, a)
            for tau in range(1, 16):
                for t in range(horizon - tau + 1):
                    want = oracle.count_turns(traj, t, tau).turns
                    assert count(t, tau) == want, (a, t, tau)
            headings = [rec.start[a][2], *(e.heading_after for e in events)]
            kept += sum(h == g for h, g in zip(headings, headings[1:]))
            per_step = np.bincount(np.floor([e.time for e in events]).astype(int))
            most = max(most, per_step.max(initial=0))
        # the worlds hold events that keep their heading, and at 20 times
        # the cap, steps with several way-points
        assert kept > 0
        assert most >= (2 if speedup == 20 else 1)


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

    def test_unplaceable_source_raises_placement_error(self, monkeypatch):
        # a world with no suburb cell fails before its first flood, and one
        # whose 100 placement attempts all fail raises the same error
        floods = []

        def no_source(*args, **kwargs):
            floods.append(kwargs["source_rule"])
            raise SourcePlacementError("no agent in the zone")

        monkeypatch.setattr(experiments, "run_flood", no_source)
        assert build_zone_map(make_params(500, c1=2.6)).suburb_empty
        with pytest.raises(SourcePlacementError, match="no cell"):
            scaling_experiment(scales=(500,), replicas=1, c1=2.6)
        assert floods == []
        with pytest.raises(SourcePlacementError, match="could not place"):
            scaling_experiment(scales=(500,), replicas=1)
        assert floods == ["in_cz"] * 100


def record_corner_trials(monkeypatch) -> list:
    """The list to which every corner trial of ``lower_bound_experiment``
    appends what its sampler returned, the agents in E and their positions."""
    tested = []
    make_sampler = experiments.corner_sampler

    def recording_sampler(count, L, side):
        sample = make_sampler(count, L, side)
        return lambda rng: tested.append(sample(rng)) or tested[-1]

    monkeypatch.setattr(experiments, "corner_sampler", recording_sampler)
    return tested


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
        "seed, override, n, fallback",
        [
            pytest.param(0, None, 1000, False, id="0-None"),
            pytest.param(2**32 + 1, None, 1000, False, id="4294967297-None"),
            pytest.param(0, 4_000_000_007, 1000, False, id="0-4000000007"),
            # the first batch at its minimum of 64 proposals
            pytest.param(0, None, 20, False, id="n20"),
            # no prefix holds n acceptances: every trial places all agents
            pytest.param(0, None, 1000, True, id="fallback"),
        ],
    )
    def test_matches_the_trial_by_trial_oracle(
        self, monkeypatch, seed, override, n, fallback
    ):
        full_samples = []
        if fallback:
            full_sampler = stationary.sample_stationary_positions

            def counted(*args):
                full_samples.append(args[1])
                return full_sampler(*args)

            monkeypatch.setattr(stationary, "PREFIX_SIGMAS", -20.0)
            monkeypatch.setattr(stationary, "sample_stationary_positions", counted)
        params, d = lower_bound_params(n=n, seed=seed)
        got = lower_bound_experiment(params, d, trials=400, seed=override, flood_cap=2)
        assert full_samples == ([n] * 400 if fallback else [])
        want = oracle.lower_bound_experiment(
            params, d, trials=400, seed=override, flood_cap=2
        )
        assert got.to_json_dict() == want.to_json_dict()
        assert got.floods > 0

    def test_floods_start_from_the_tested_agents(self, monkeypatch):
        # each conditional flood's starting agents in E = [0, 3d]^2 are the
        # agents its trial tested there, indices and positions
        params, d = lower_bound_params(n=1000)
        tested, starts = record_corner_trials(monkeypatch), []
        make_population = flooding.init_population

        def recording_population(*args):
            population = make_population(*args)
            pos = population.pos
            in_e = np.flatnonzero(np.maximum(pos[:, 0], pos[:, 1]) <= 3.0 * d)
            starts.append((tested[-1], in_e, pos[in_e]))
            return population

        monkeypatch.setattr(flooding, "init_population", recording_population)
        report = lower_bound_experiment(params, d, trials=400, flood_cap=2)
        assert len(tested) == 400
        assert len(starts) >= report.floods > 0
        for (agents, pos), in_e, start in starts:
            assert len(agents) > 0
            assert np.array_equal(agents, in_e)
            assert np.array_equal(pos.view(np.uint64), start.view(np.uint64))

    @pytest.mark.parametrize("source_in_f", [True, False])
    def test_a_source_in_f_runs_no_conditional_flood(self, monkeypatch, source_in_f):
        # on a corner event every agent in E is in F; a flood from one of
        # them is not counted, a flood from any other agent is
        tested = record_corner_trials(monkeypatch)

        def flood(params, **kwargs):
            agents = tested[-1][0]
            source = agents[0] if source_in_f else agents[-1] + 1
            return SimpleNamespace(
                source_agent=int(source), flooding_time=9, timed_out=False
            )

        monkeypatch.setattr(experiments, "run_flood", flood)
        params, d = lower_bound_params(n=1000)
        report = lower_bound_experiment(params, d, trials=400)
        assert report.hits > 0
        assert report.floods == (0 if source_in_f else report.hits)

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

    def test_no_snapshot_rejected(self):
        # no snapshot would pool an empty histogram into NaN distances
        with pytest.raises(ValueError, match="snapshots"):
            stationarity_report(make_params(400), bins=5, snapshots=0)
