"""Parameter validation, envelope checks and RNG substream derivation."""

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mrwpflood import core, experiments
from mrwpflood.core import (
    INIT_STREAM_INDEX,
    MONITOR_STREAM_INDEX,
    RADIUS_ENVELOPE_DEFAULT,
    SOURCE_STREAM_INDEX,
    SPEED_ENVELOPE_DEFAULT,
    WorldParams,
    check_assumptions,
    derive_substream,
    derived_seed,
    substream_state,
    substream_words,
    trip_draws,
)
from mrwpflood.experiments import lower_bound_params
from mrwpflood.flooding import run_flood
from mrwpflood.zones import build_zone_map, check_expansion


def make(n=100, L=10.0, R=2.0, v=0.1, **kw):
    return WorldParams(n=n, L=L, R=R, v=v, **kw)


class TestWorldParams:
    def test_valid_construction(self):
        p = make(seed=7, c1=2.5, eta=0.05)
        assert p.n == 100 and p.seed == 7 and p.eta == 0.05

    @pytest.mark.parametrize(
        "kw",
        [
            {"n": 0},
            {"L": 0.0},
            {"L": -1.0},
            {"R": 0.0},
            {"v": -0.1},
            {"c1": 0.0},
            {"c2": -1.0},
            {"eta": -0.01},
            {"L": math.nan},
            {"L": math.inf},
            {"R": math.inf},
            {"v": math.nan},
            {"v": math.inf},
            {"c1": math.inf},
            {"c2": math.nan},
            {"eta": math.nan},
            {"eta": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            make(**kw)

    def test_immutable(self):
        p = make()
        with pytest.raises(Exception):
            p.n = 5

    def test_radius_threshold_formula(self):
        p = make(n=400, L=20.0, c1=3.0)
        expected = 3.0 * 20.0 * math.sqrt(math.log(400) / 400)
        assert p.radius_threshold == pytest.approx(expected, rel=1e-15)

    def test_speed_limit_formula(self):
        p = make(R=5.0, c2=10.0)
        assert p.speed_limit == 0.5

    def test_natural_log_in_threshold(self):
        # distinguishes ln from log10: at n = e the threshold is exactly c1*L/sqrt(e)
        n = 3  # closest integer domain check: use exact formula comparison
        p = make(n=n, L=1.0, c1=1.0)
        assert p.radius_threshold == pytest.approx(
            math.sqrt(math.log(3) / 3), rel=1e-15
        )

    def test_to_dict_round_trip(self):
        p = make(seed=42)
        d = p.to_json_dict()
        assert WorldParams(**d) == p
        assert set(d) == {"n", "L", "R", "v", "seed", "c1", "c2", "eta"}

    def test_defaults(self):
        p = make()
        assert p.c1 == RADIUS_ENVELOPE_DEFAULT
        assert p.c2 == SPEED_ENVELOPE_DEFAULT
        assert p.c2 == pytest.approx(3.0 * (1.0 + math.sqrt(5.0)))
        assert p.seed == 0
        assert p.eta == 0.02


@dataclass
class _Inner:
    x: float

    JSON_EXTRA = ("double",)

    @property
    def double(self) -> float:
        return 2.0 * self.x


@dataclass
class _Outer:
    inner: _Inner
    pair: tuple
    table: dict
    hidden: np.ndarray

    JSON_SKIP = ("hidden",)


class TestJsonDict:
    def test_converts_values_and_honours_skip_and_extra(self):
        report = _Outer(
            inner=_Inner(1.5),
            pair=(math.inf, 2),
            table={"a": math.nan, "b": [(1, -math.inf)]},
            hidden=np.zeros(3),
        )
        got = core.json_dict(report)
        assert got == {
            "inner": {"x": 1.5, "double": 3.0},
            "pair": [None, 2],
            "table": {"a": None, "b": [[1, None]]},
        }
        json.dumps(got, allow_nan=False)  # strict JSON: no NaN or Infinity

    def test_every_report_keeps_its_keys(self):
        # key sets of each artifact's JSON, including the nested ones
        p = experiments.make_params(400, seed=3)
        record = run_flood(p).to_json_dict()
        sweep = experiments.lemma_sweep(
            settings=[p],
            include_expansion=False,
            include_density=False,
            include_turns=False,
        ).to_json_dict()
        got = {
            "WorldParams": p.to_json_dict(),
            "ZoneMap": build_zone_map(p).to_json_dict(),
            "RunRecord": record,
            "RunRecord.assumptions": record["assumptions"],
            "TurnReport": experiments.turn_statistics(p, windows=20).to_json_dict(),
            "ScalingReport": experiments.scaling_experiment(
                scales=(400,), replicas=1
            ).to_json_dict(),
            "LowerBoundReport": experiments.lower_bound_experiment(
                *lower_bound_params(400), trials=20, flood_cap=1
            ).to_json_dict(),
            "StationarityReport": experiments.stationarity_report(
                p, bins=4, snapshots=2
            ).to_json_dict(),
            "LemmaSweepReport": sweep,
            "ExpansionReport": check_expansion(
                build_zone_map(p), samples=100
            ).to_json_dict(),
            "LemmaSweepReport.settings[0]": sweep["settings"][0],
        }
        params = "L R c1 c2 eta n seed v"
        want = {
            "WorldParams": params,
            "ZoneMap": "L R cz_size ell extended_suburb_size m n prob_threshold "
            "suburb_diameter suburb_size",
            "RunRecord": "assumptions bound_constants cz_spread_time flooding_time "
            "init_mode max_steps params progress rng_algorithm source_agent "
            "source_rule theoretical_bound timed_out violations warmup_steps",
            "RunRecord.assumptions": "radius_ok radius_slack speed_ok speed_slack",
            "TurnReport": "fraction horizon max_ratio max_turns params tau_max "
            "tau_min violations windows",
            "ScalingReport": "c1 constants init_mode max_ratio replicas rows scales "
            "seed slopes source_rules spread_constant",
            "LowerBoundReport": "all_satisfied annulus_empty conditional_satisfied "
            "conditional_times d f_occupied floods hits max_steps params "
            "probability threshold trials",
            "StationarityReport": "bins params snapshots spacing tv_init tv_model "
            "warmup_steps",
            "LemmaSweepReport": "density_violations deterministic_violations "
            "eta_override ok seed settings suburb_scale turn_fraction "
            "turn_violations turn_windows",
            "ExpansionReport": "cz_size mode subsets_checked violations "
            "worst_margin",
            "LemmaSweepReport.settings[0]": "coverage_columns coverage_ok "
            "coverage_rows cz_size density_checked density_violations "
            "expansion_checked expansion_violations m name params "
            "suburb_allowance suburb_size suburb_violations suburb_worst "
            "turn_violations turn_windows",
        }
        assert {name: sorted(d) for name, d in got.items()} == {
            name: keys.split() for name, keys in want.items()
        }
        assert sorted(got["RunRecord"]["params"]) == params.split()
        assert got["RunRecord"]["rng_algorithm"] == core.RNG_ALGORITHM_ID


class TestAssumptions:
    def test_both_hold_just_above_threshold(self):
        n, L = 10_000, 100.0
        R = 1.01 * RADIUS_ENVELOPE_DEFAULT * L * math.sqrt(math.log(n) / n)
        p = WorldParams(n=n, L=L, R=R, v=R / SPEED_ENVELOPE_DEFAULT)
        rep = check_assumptions(p)
        assert rep.radius_ok and rep.speed_ok and rep.all_ok
        assert rep.radius_slack > 0
        assert rep.speed_slack == 0.0
        assert check_assumptions(p).all_ok

    def test_half_threshold_radius_fails(self):
        n, L = 10_000, 100.0
        R = 0.5 * RADIUS_ENVELOPE_DEFAULT * L * math.sqrt(math.log(n) / n)
        p = WorldParams(n=n, L=L, R=R, v=0.0)
        rep = check_assumptions(p)
        assert not rep.radius_ok
        assert rep.radius_slack < 0
        assert not rep.all_ok
        assert not check_assumptions(p).all_ok

    def test_zero_speed_always_speed_ok(self):
        p = make(v=0.0)
        assert check_assumptions(p).speed_ok

    def test_exact_boundary_counts_as_ok(self):
        # comparisons are exact >=, <=: equality passes
        p = make(n=100, L=10.0, c1=2.0)
        q = WorldParams(
            n=100, L=10.0, R=p.radius_threshold, v=0.0, c1=2.0
        )
        rep = check_assumptions(q)
        assert rep.radius_ok and rep.radius_slack == 0.0
        r = make(R=4.0, c2=8.0, v=0.5)
        rep2 = check_assumptions(r)
        assert rep2.speed_ok and rep2.speed_slack == 0.0

    def test_too_fast_fails(self):
        p = make(R=4.0, c2=8.0, v=0.5000001)
        rep = check_assumptions(p)
        assert not rep.speed_ok and rep.speed_slack < 0


class TestSubstreams:
    def test_same_key_same_stream(self):
        a = derive_substream(123, 45).random(8)
        b = derive_substream(123, 45).random(8)
        assert np.array_equal(a, b)

    def test_different_index_different_stream(self):
        a = derive_substream(123, 45).random(8)
        b = derive_substream(123, 46).random(8)
        assert not np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = derive_substream(123, 45).random(8)
        b = derive_substream(124, 45).random(8)
        assert not np.array_equal(a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_substream(1, -1)

    def test_reserved_indices_distinct(self):
        idx = {INIT_STREAM_INDEX, SOURCE_STREAM_INDEX, MONITOR_STREAM_INDEX}
        assert len(idx) == 3
        # one-word indices, clear of the small ones callers draw from
        assert 2**31 <= min(idx) and max(idx) < 2**32

    def test_seed_wraps_at_64_bits(self):
        a = derive_substream(5, 0).random(4)
        b = derive_substream(5 + 2**64, 0).random(4)
        assert np.array_equal(a, b)

    def test_no_collisions_across_agent_streams(self):
        # first draws of many (seed, index) pairs should all differ
        draws = {derive_substream(0, i).random() for i in range(2000)}
        assert len(draws) == 2000

    @given(st.integers(min_value=0, max_value=2**63), st.integers(0, 2**20))
    def test_derivation_total_on_valid_keys(self, seed, index):
        gen = derive_substream(seed, index)
        x = gen.random()
        assert 0.0 <= x < 1.0


# the extremes of the one-word index range, plus 1000 indices below 2**32
GATE_INDICES = np.concatenate(
    [[0, 1, 2**32 - 1], np.random.default_rng(17).integers(0, 2**32, 1000)]
)


def generator_at(words):
    """A ``Generator`` on numpy's PCG64 at the state of one row of
    substream words."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = substream_state(words)
    return np.random.Generator(bit_generator)


class TestSubstreamSeeds:
    @pytest.mark.parametrize("seed", [0, 2**32, 5 + 2**64])
    def test_generators_draw_the_derived_streams(self, seed):
        # the words of many seeds in one array pass, as the corner trials
        # take them, equal those of each seed alone, and load generators
        # that draw what derive_substream draws
        seeds = [(seed + j) % 2**64 for j in range(60)]
        for index in GATE_INDICES[:3].tolist():
            words = substream_words(np.array(seeds, dtype=np.uint64), index)
            assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
            for row, s in zip(words, [seed + j for j in range(60)]):
                assert np.array_equal(row, substream_words(s, index)), (s, index)
                want = derive_substream(s, index).random(9)
                assert np.array_equal(bits(generator_at(row).random(9)), bits(want))

    @pytest.mark.parametrize("indices", [[2**32], [0, 2**32 + 5], [2**64], [-1]])
    def test_indices_outside_one_word_rejected(self, indices):
        with pytest.raises(ValueError):
            for index in indices:
                derive_substream(0, index)


def corner_trial_streams(monkeypatch, seed, trials):
    """Each trial's seed and init-stream draws as ``lower_bound_experiment``
    makes them, with its sampler and flood replaced: every trial records
    its stream's state, its first 8 draws and the 8 after 12 000 more (the
    first sampler batch at n = 2000), and reports a corner event, whose
    flood records its seed."""
    streams, seeds = [], []

    def sampler(rng):
        state = rng.bit_generator.state
        first = rng.random(8)
        rng.random(12_000)
        streams.append((state, first, rng.random(8)))
        return np.array([0]), np.zeros((1, 2))  # agent 0 alone in the corner

    def flood(params, **kwargs):
        seeds.append(params.seed)
        return SimpleNamespace(source_agent=1, flooding_time=0, timed_out=False)

    monkeypatch.setattr(experiments, "corner_sampler", lambda count, L, side: sampler)
    monkeypatch.setattr(experiments, "run_flood", flood)
    params, d = lower_bound_params(n=1000)
    report = experiments.lower_bound_experiment(params, d, trials=trials, seed=seed)
    assert report.hits == report.floods == len(seeds) == len(streams) == trials
    return seeds, streams


class TestTrialStreams:
    # trial k of the corner experiment draws from
    # derive_substream(derived_seed(seed, 2, k), INIT_STREAM_INDEX)
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 5 + 2**64, 2**100]
    )
    def test_match_the_derived_streams_bitwise(self, monkeypatch, seed):
        # seeds past 64 bits wrap, as derived_seed reads seed mod 2**64
        trials = 1200 if seed < 2**64 else 50
        seeds, streams = corner_trial_streams(monkeypatch, seed, trials)
        for k, (trial_seed, (state, first, later)) in enumerate(zip(seeds, streams)):
            assert trial_seed == derived_seed(seed, 2, k), k
            want = derive_substream(trial_seed, INIT_STREAM_INDEX)
            assert state == want.bit_generator.state, k
            assert np.array_equal(bits(first), bits(want.random(8))), k
            want.random(12_000)
            assert np.array_equal(bits(later), bits(want.random(8))), k

    def test_one_word_trial_seeds(self):
        # a trial seed below 2**32 is hashed like any other; such a derived
        # seed turns up about once in 2**32 trials, so the seeds are
        # chosen, among others of two words
        chosen = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        words = substream_words(np.array(chosen, dtype=np.uint64), INIT_STREAM_INDEX)
        for row, seed in zip(words, chosen):
            want = derive_substream(seed, INIT_STREAM_INDEX)
            got = generator_at(row)
            assert got.bit_generator.state == want.bit_generator.state, seed
            assert np.array_equal(bits(got.random(9)), bits(want.random(9))), seed

    def test_no_trials(self, monkeypatch):
        assert corner_trial_streams(monkeypatch, 3, 0) == ([], [])


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestArrayPCG64:
    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1, 5 + 2**64])
    def test_draws_match_the_derived_streams_bitwise(self, seed):
        # one generator reloaded from rows of array-held words, in shuffled
        # order and with rows revisited, as the corner trials reuse theirs,
        # draws each row's derived stream from its start every time
        indices = GATE_INDICES[:64].tolist()
        words = np.stack([substream_words(seed, i) for i in indices])
        gen = generator_at(words[0])
        rng = np.random.default_rng(3)
        for r in rng.integers(0, len(indices), 200).tolist():
            gen.bit_generator.state = substream_state(words[r])
            want = derive_substream(seed, indices[r]).random(3)
            assert np.array_equal(bits(gen.random(3)), bits(want)), indices[r]

    def test_chosen_seed_words_match_numpy_pcg64(self):
        # a row's first two words are the 128-bit state and its last two
        # the increment, made odd: even and odd increments, all ones and
        # all zeros
        M64 = 2**64 - 1
        words = np.array(
            [
                [M64, M64, M64, M64],
                [0, 0, 0, 0],
                [0, 1, 0, 2**63 - 1],
                [0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F0F0F0F0F0F0F0F, 2**63],
                *np.random.default_rng(5).integers(0, 2**64, (11, 4), dtype=np.uint64),
            ],
            dtype=np.uint64,
        )
        for row in words.tolist():
            state = generator_at(row).bit_generator.state["state"]
            assert state["state"] == row[0] << 64 | row[1], row
            assert state["inc"] == (row[2] << 64 | row[3]) | 1, row
            bit_generator = np.random.PCG64(1)
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": state,
                "has_uint32": 0,
                "uinteger": 0,
            }
            want = np.random.Generator(bit_generator).random(12)
            assert np.array_equal(bits(generator_at(row).random(12)), bits(want)), row


def pair_chi_square_z(u, w, bins=10):
    """Standard scores of the chi-squares of the pairs ``(u[i], w[i])`` of
    uniforms over ``bins x bins`` equal cells (``bins**2 - 1`` degrees of
    freedom): of the pairs as they are, and of ``(u, w - u mod 1)``.  The
    map is a bijection of the unit torus that keeps area, so independent
    uniform pairs are uniform either way; the second sees additive ties."""
    z = []
    for v in (w, (w - u) % 1.0):
        cells = (u * bins).astype(np.int64) * bins + (v * bins).astype(np.int64)
        counts = np.bincount(cells, minlength=bins * bins)
        expected = len(u) / bins**2
        df = bins * bins - 1
        z.append((((counts - expected) ** 2).sum() / expected - df) / math.sqrt(2.0 * df))
    return max(z)


def substream_uniforms(seed, indices):
    """The first word of each substream ``(seed, i)`` as a uniform."""
    words = np.array([substream_words(seed, i)[0] for i in indices], dtype=np.uint64)
    return (words >> np.uint64(11)) * 2.0**-53


class TestKeyedStreams:
    # Pairs of hash outputs whose counters differ by one step of each kind
    # must look independent: chi-squares of 20 000 pairs over 10 x 10
    # cells, each bounded by z <= 4 (a one-sided false alarm of about 3e-5).
    # A hash of one xor-shift-multiply round, not the finalizer's two,
    # reads z of 18 to 33 on adjacent agents, whose counters differ only
    # above bit 34.
    PAIRS = 20_000

    def test_draws_of_adjacent_agents(self):
        agents = np.arange(self.PAIRS + 1)
        d = trip_draws(7, agents, np.zeros(agents.size, dtype=np.uint32))
        for k in range(3):
            assert pair_chi_square_z(d[:-1, k], d[1:, k]) <= 4.0, k

    def test_draws_of_adjacent_trips(self):
        agents, trips = np.divmod(np.arange(self.PAIRS + 200), 101)
        d = trip_draws(7, agents, trips).reshape(-1, 101, 3)
        for k in range(3):
            assert pair_chi_square_z(d[:, :-1, k].ravel(), d[:, 1:, k].ravel()) <= 4.0, k

    def test_adjacent_draws_of_a_trip(self):
        d = trip_draws(7, np.arange(self.PAIRS), np.full(self.PAIRS, 5, dtype=np.uint32))
        assert pair_chi_square_z(d[:, 0], d[:, 1]) <= 4.0
        assert pair_chi_square_z(d[:, 1], d[:, 2]) <= 4.0

    def test_words_of_adjacent_substream_indices(self):
        u = substream_uniforms(7, range(self.PAIRS + 1))
        assert pair_chi_square_z(u[:-1], u[1:]) <= 4.0

    def test_draws_of_adjacent_seeds(self):
        agents = np.arange(self.PAIRS)
        a, b = (trip_draws(s, agents, np.zeros(agents.size, dtype=np.uint32)) for s in (7, 8))
        assert pair_chi_square_z(a[:, 0], b[:, 0]) <= 4.0

    def test_a_trip_depends_only_on_seed_agent_and_trip(self):
        # any order and grouping of rows draws the same, and seeds agree
        # mod 2**64
        rng = np.random.default_rng(9)
        agents = rng.integers(0, 2**29, 500)
        trips = rng.integers(0, 2**32, 500).astype(np.uint32)
        whole = trip_draws(3, agents, trips)
        order = rng.permutation(500)
        assert np.array_equal(bits(trip_draws(3 + 2**64, agents[order], trips[order])), bits(whole[order]))
        for r in range(0, 500, 50):
            assert np.array_equal(bits(trip_draws(3, agents[r:r + 1], trips[r:r + 1])), bits(whole[r:r + 1]))
        assert 0.0 <= whole.min() and whole.max() < 1.0

    def test_derived_seeds_are_hash_words(self):
        # an array word derives each seed as the scalar word does
        ks = np.arange(50)
        seeds = derived_seed(11, 2, ks)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derived_seed(11, 2, k) for k in ks.tolist()]
        assert len(set(seeds.tolist())) == 50
        with pytest.raises(ValueError):
            derived_seed(11, -1)
        with pytest.raises(ValueError):
            derived_seed(11, 2**62)
