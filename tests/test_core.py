"""Parameter validation, envelope checks and RNG substream derivation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrwpflood.core import (
    INIT_STREAM_INDEX,
    MONITOR_STREAM_INDEX,
    RADIUS_ENVELOPE_DEFAULT,
    SOURCE_STREAM_INDEX,
    SPEED_ENVELOPE_DEFAULT,
    WorldParams,
    check_assumptions,
    derive_substream,
    seeded_substream,
    substream_seeds,
)


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
        d = p.to_dict()
        assert WorldParams(**d) == p
        assert set(d) == {"n", "L", "R", "v", "seed", "c1", "c2", "eta"}

    def test_defaults(self):
        p = make()
        assert p.c1 == RADIUS_ENVELOPE_DEFAULT
        assert p.c2 == SPEED_ENVELOPE_DEFAULT
        assert p.c2 == pytest.approx(3.0 * (1.0 + math.sqrt(5.0)))
        assert p.seed == 0
        assert p.eta == 0.02


class TestAssumptions:
    def test_both_hold_just_above_threshold(self):
        n, L = 10_000, 100.0
        R = 1.01 * RADIUS_ENVELOPE_DEFAULT * L * math.sqrt(math.log(n) / n)
        p = WorldParams(n=n, L=L, R=R, v=R / SPEED_ENVELOPE_DEFAULT)
        rep = check_assumptions(p)
        assert rep.radius_ok and rep.speed_ok and rep.all_ok
        assert rep.radius_slack > 0
        assert rep.speed_slack == 0.0
        assert p.assumptions_hold

    def test_half_threshold_radius_fails(self):
        n, L = 10_000, 100.0
        R = 0.5 * RADIUS_ENVELOPE_DEFAULT * L * math.sqrt(math.log(n) / n)
        p = WorldParams(n=n, L=L, R=R, v=0.0)
        rep = check_assumptions(p)
        assert not rep.radius_ok
        assert rep.radius_slack < 0
        assert not rep.all_ok
        assert not p.assumptions_hold

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
        words = substream_seeds(seed, indices)
        for row, i in zip(words, indices.tolist()):
            expected = derive_substream(seed, i).random(7)
            assert np.array_equal(seeded_substream(row).random(7), expected), i

    @pytest.mark.parametrize("indices", [[2**32], [0, 2**32 + 5], [2**64], [-1]])
    def test_indices_outside_one_word_rejected(self, indices):
        with pytest.raises(ValueError):
            substream_seeds(0, indices)
