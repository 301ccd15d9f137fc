"""Tests of the benchmark's own machinery: output checks that bite, span
self times that add up, and a BENCHMARK.json that names what run.py prints."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mrwpflood import flooding  # noqa: E402


@pytest.fixture
def small_flood(monkeypatch):
    """A flood-32k repetition shrunk to n = 2000."""
    monkeypatch.setattr(workloads, "FLOOD_N", 2000)

    def run_once(seed=5):
        world = workloads.flood_setup(seed)
        outcome = workloads.flood_body(world, [])
        return workloads.flood_checks(world, outcome, seed)

    return run_once


def test_exchange_check_passes_on_the_real_exchange(small_flood):
    assert small_flood() == {"flood_completed": True, "exchange_matches_brute_force": True}


def test_broken_any_within_trips_the_exchange_check(small_flood, monkeypatch):
    real = flooding.NeighborIndex.any_within

    def shrunk(self, pts, mask, radius):
        return real(self, pts, mask, 0.9 * radius)

    monkeypatch.setattr(flooding.NeighborIndex, "any_within", shrunk)
    assert small_flood()["exchange_matches_brute_force"] is False


def test_self_times_add_up_to_the_root_span():
    t = tracer.Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = t.wrap("inner", busy)
    outer = t.wrap("outer", lambda: (busy(0.002), inner(0.003), inner(0.001)))
    with t.span("root"):
        outer()
    self_s = t.self_times()
    name, parent, start, end = t.spans[0]
    assert name == "root" and parent == -1
    assert [s[1] for s in t.spans[1:]] == [0, 1, 1]
    assert sum(self_s.values()) == pytest.approx(end - start, abs=1e-9)
    assert self_s["inner"] >= 0.004 and self_s["outer"] >= 0.002
    assert t.counts["inner.calls"] == 2


def test_traced_entry_points_are_restored():
    import mrwpflood

    originals = (flooding.run_flood, flooding.NeighborIndex.any_within, mrwpflood.run_flood)
    with tracer.traced_entry_points(tracer.Tracer()):
        assert flooding.run_flood is not originals[0]
        assert mrwpflood.run_flood is flooding.run_flood
    assert (
        flooding.run_flood,
        flooding.NeighborIndex.any_within,
        mrwpflood.run_flood,
    ) == originals


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
