"""Parameter validation, envelope checks and RNG substream derivation."""

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random.bit_generator import ISeedSequence

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
    entropy_words,
    pcg64_random3,
    pcg64_states,
    seedseq_words,
    substream_seeds,
    substream_states,
)
from mrwpflood.experiments import derived_seed, lower_bound_params
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
        assert min(idx) >= 2**48  # clear of any realistic agent id

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


def seed_sequence_words(seed, indices):
    """Reference for ``substream_seeds``: numpy's own SeedSequence, one
    index at a time."""
    entropy = [(seed & (2**64 - 1), int(i)) for i in indices]
    return np.array([np.random.SeedSequence(e).generate_state(4, np.uint64) for e in entropy])


# the extremes of the one-word index range, plus 1000 indices below 2**32
GATE_INDICES = np.concatenate(
    [[0, 1, 2**32 - 1], np.random.default_rng(17).integers(0, 2**32, 1000)]
)


class TestSubstreamSeeds:
    # one- and two-word seeds, the 64-bit edge and a seed that wraps past it
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 5 + 2**64])
    def test_matches_seed_sequence(self, seed):
        words = substream_seeds(seed, GATE_INDICES)
        assert words.dtype == np.uint64 and words.shape == (GATE_INDICES.size, 4)
        assert np.array_equal(words, seed_sequence_words(seed, GATE_INDICES))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=-(2**70), max_value=2**70))
    def test_matches_seed_sequence_on_drawn_seeds(self, seed):
        words = substream_seeds(seed, GATE_INDICES)
        assert np.array_equal(words, seed_sequence_words(seed, GATE_INDICES))

    @pytest.mark.parametrize("seed", [0, 2**32, 5 + 2**64])
    def test_generators_draw_the_derived_streams(self, seed):
        indices = GATE_INDICES[:60]
        states = pcg64_states(substream_seeds(seed, indices))
        rows = np.arange(indices.size)
        draws = np.concatenate([pcg64_random3(states, rows) for _ in range(3)], axis=1)
        for row, i in zip(draws, indices.tolist()):
            assert np.array_equal(row, derive_substream(seed, i).random(9)), i

    @pytest.mark.parametrize("indices", [[2**32], [0, 2**32 + 5], [2**64], [-1]])
    def test_indices_outside_one_word_rejected(self, indices):
        with pytest.raises(ValueError):
            substream_seeds(0, indices)


def generator_at(states, row):
    """A ``Generator`` on numpy's PCG64 started from ``states[row]``."""
    (s_hi, s_lo), (inc_hi, inc_lo) = states[row].tolist()
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": s_hi << 64 | s_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


class TestSeedSequenceWords:
    # one entropy integer of one, two, three and four words, and entropy
    # longer than the four-word pool, which numpy mixes in after the pool
    @pytest.mark.parametrize(
        "entropy",
        [(), (0,), (5, 2**32), (2**64 - 1, 2), (2**64 + 5, 2), (2**100, 3, 1, 4, 1, 5)],
    )
    def test_matches_seed_sequence(self, entropy):
        column = np.arange(0, 2**32, 2**22, dtype=np.uint64).astype(np.uint32)
        words = [w for e in entropy for w in entropy_words(e)]
        got = seedseq_words([*words, column], 7)
        assert got.dtype == np.uint32 and got.shape == (column.size, 7)
        for row, c in zip(got, column.tolist()):
            want = np.random.SeedSequence((*entropy, c)).generate_state(7)
            assert np.array_equal(row, want), c

    def test_entropy_words(self):
        for value in (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 3**70):
            want = np.random.SeedSequence(value).generate_state(5)
            assert np.array_equal(seedseq_words(entropy_words(value), 5)[0], want)
        assert entropy_words(np.uint64(2**64 - 1)) == entropy_words(2**64 - 1)
        assert entropy_words(np.int64(7)) == [7]
        with pytest.raises(ValueError):
            entropy_words(-1)
        with pytest.raises(TypeError):
            entropy_words(2.0)


def corner_trial_streams(monkeypatch, seed, trials):
    """Each trial's seed and init-stream draws as ``lower_bound_experiment``
    makes them, with its sampler and flood replaced: every trial records
    its stream's state, its first 8 draws and the 8 after 12 000 more (the
    first sampler batch at n = 2000), and reports a corner event, whose
    flood records its seed."""
    streams, seeds = [], []

    def sampler(rng, count, L):
        state = rng.bit_generator.state
        first = rng.random(8)
        rng.random(12_000)
        streams.append((state, first, rng.random(8)))
        pos = np.full((count, 2), L / 2)
        pos[0] = 0.0  # alone in the corner square
        return pos

    def flood(params, **kwargs):
        seeds.append(params.seed)
        return SimpleNamespace(source_agent=1, flooding_time=0, timed_out=False)

    monkeypatch.setattr(experiments, "sample_stationary_positions", sampler)
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
        # seeds past 64 bits are not wrapped by derived_seed: their three or
        # four words make entropy longer than the pool
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
        # a trial seed below 2**32 is one entropy word, not two; such a
        # derived seed turns up about once in 2**32 trials, so the seeds are
        # chosen, among others of two words
        chosen = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        states = substream_states(np.array(chosen, dtype=np.uint64), INIT_STREAM_INDEX)
        for row, seed in enumerate(chosen):
            sequence = np.random.SeedSequence((seed, INIT_STREAM_INDEX))
            want = np.random.Generator(np.random.PCG64(sequence))
            got = generator_at(states, row)
            assert got.bit_generator.state == want.bit_generator.state, seed
            assert np.array_equal(bits(got.random(9)), bits(want.random(9))), seed

    def test_no_trials(self, monkeypatch):
        assert corner_trial_streams(monkeypatch, 3, 0) == ([], [])


class SeedWords(ISeedSequence):
    """Seed sequence that hands numpy's PCG64 four chosen seed words, so
    its own seeding is the reference for :func:`pcg64_states`."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words


PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
M64 = 2**64 - 1


def seeding_carries(words):
    """Whether the low-word sums of ``inc + initstate`` and of ``a * (inc
    + initstate) + inc`` carry, for one row of seed words (Python ints)."""
    w0, w1, w2, w3 = map(int, words)
    inc = ((w2 << 64 | w3) << 1 | 1) & (2**128 - 1)
    start = (inc + (w0 << 64 | w1)) & (2**128 - 1)
    product = PCG_MULT * start & (2**128 - 1)
    return (inc & M64) + w1 > M64, (product & M64) + (inc & M64) > M64


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestArrayPCG64:
    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1, 5 + 2**64])
    def test_draws_match_the_derived_streams_bitwise(self, seed):
        # every agent draws at least four trips, some more, in shuffled
        # subsets; rows left out of a draw must not move
        indices = GATE_INDICES[:64]
        states = pcg64_states(substream_seeds(seed, indices))
        rng = np.random.default_rng(3)
        drawn = [[] for _ in indices]
        for k in range(8):
            rows = rng.permutation(indices.size)
            if k >= 4:
                rows = rows[: rng.integers(1, indices.size)]
            before = states.copy()
            for r, row in zip(rows.tolist(), pcg64_random3(states, rows)):
                drawn[r].append(row)
            left = np.setdiff1d(np.arange(indices.size), rows)
            assert np.array_equal(states[left], before[left])
        for r, i in enumerate(indices.tolist()):
            want = derive_substream(seed, i).random(3 * len(drawn[r]))
            assert np.array_equal(bits(np.concatenate(drawn[r])), bits(want)), i

    def test_seeding_matches_numpy_pcg64_across_chunks(self):
        # more rows than one seeding chunk holds, so chunk edges are covered
        words = substream_seeds(11, np.arange(5000))
        states = pcg64_states(words)
        for row, w in enumerate(words):
            state = np.random.PCG64(SeedWords(w)).state["state"]
            assert int(states[row, 0, 0]) << 64 | int(states[row, 0, 1]) == state["state"]
            assert int(states[row, 1, 0]) << 64 | int(states[row, 1, 1]) == state["inc"]

    def test_many_states_match_numpy_pcg64(self):
        # random states, with every one of 300 000 whose draws need the
        # carry from the lowest 32-bit chunk of the limb sums into the next
        # (about one draw in 60 000; see core._advance)
        rng = np.random.default_rng(7)
        pool = rng.integers(0, 2**64, (300_000, 2, 2), dtype=np.uint64)
        pool[:, 1, 1] |= np.uint64(1)  # PCG64 increments are odd
        d = (pool.view("<u2").reshape(-1, 16) @ core._STEP3.T).astype(np.uint64)
        low, next_ = d[:, :3], d[:, 3:6]
        carried = (low >> np.uint64(32)) + (next_ & np.uint64(M64 >> 32)) > M64 >> 32
        assert carried.any(axis=1).sum() >= 5
        states = np.concatenate([pool[carried.any(axis=1)], pool[:2000]])
        start = states.copy()
        draws = pcg64_random3(states, np.arange(len(states)))
        bit_generator = np.random.PCG64()
        gen = np.random.Generator(bit_generator)
        for row, (s, inc) in enumerate(start.tolist()):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": s[0] << 64 | s[1], "inc": inc[0] << 64 | inc[1]},
                "has_uint32": 0,
                "uinteger": 0,
            }
            assert np.array_equal(bits(draws[row]), bits(gen.random(3))), row
            state = bit_generator.state["state"]["state"]
            assert int(states[row, 0, 0]) << 64 | int(states[row, 0, 1]) == state, row

    def test_chosen_seed_words_match_numpy_pcg64(self):
        # the seeding's two 128-bit additions (inc + initstate, then
        # a * (inc + initstate) + inc) each carry out of the low word in
        # some rows and not in others; the all-ones row also wraps at 2**128,
        # and the rows of long 16-bit runs make large limb sums
        words = np.array(
            [
                [M64, M64, M64, M64],
                [0, 1, 0, 2**63 - 1],
                [0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F0F0F0F0F0F0F0F, 2**63 - 1],
                [0, 0, 0, 0],
                [1, M64, 2**63, 2**62],
                [M64, 0, M64, 0],
                [0xFFFF0000FFFF0000, 0x0000FFFF0000FFFF] * 2,
                [0x0000FFFF0000FFFF, 0xFFFF0000FFFF0000] * 2,
                *np.random.default_rng(5).integers(0, 2**64, (11, 4), dtype=np.uint64),
            ],
            dtype=np.uint64,
        )
        carries = np.array([seeding_carries(row) for row in words])
        assert carries.any(axis=0).all() and (~carries).any(axis=0).all()
        assert carries.all(axis=1).any()
        states = pcg64_states(words)
        rows = np.arange(len(words))
        draws = np.concatenate([pcg64_random3(states, rows) for _ in range(4)], axis=1)
        for row, w, got in zip(rows.tolist(), words, draws):
            gen = np.random.Generator(np.random.PCG64(SeedWords(w)))
            assert np.array_equal(bits(got), bits(gen.random(12))), row
            state = gen.bit_generator.state["state"]
            assert int(states[row, 0, 0]) << 64 | int(states[row, 0, 1]) == state["state"]
            assert int(states[row, 1, 0]) << 64 | int(states[row, 1, 1]) == state["inc"]
