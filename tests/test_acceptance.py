"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py`` — each criterion appears as a
separate test; the printed ``[criterion NN]`` lines carry the measured values
(visible with ``-s`` or ``-rA``).
"""

import json
import math

import numpy as np
import pytest

from mrwpflood.cli import main as cli_main
from mrwpflood.core import derive_substream
from mrwpflood.experiments import (
    lemma_sweep,
    lower_bound_experiment,
    lower_bound_params,
    make_params,
    scaling_experiment,
    stationarity_report,
    turn_statistics,
)
from mrwpflood.flooding import NeighborIndex
from mrwpflood.stationary import (
    cell_probability,
    cell_probability_quadrature,
    destination_law,
)
from mrwpflood.zones import ZoneMap, build_zone_map, check_expansion, cz_row_column_counts
from oracle import brute_force_pairs, pairs_within, total_mass

def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def scaling():
    """Shared three-scale sweep: 20 seeded replicas per scale and source rule."""
    return scaling_experiment(scales=(1000, 2000, 4000), replicas=20, seed=0)


def test_criterion_01_analytic_identities():
    worst_norm = 0.0
    for L in (1.0, 10.0, 44.72135954999579, 1000.0):
        worst_norm = max(worst_norm, abs(cell_probability(0.0, 0.0, L, L) - 1.0))
    rng = derive_substream(99, 0)
    L = 10.0
    worst_cross = 0.0
    worst_total = 0.0
    for _ in range(1000):
        x0, y0 = rng.uniform(0.0, L, 2)
        law = destination_law((x0, y0), L)
        worst_cross = max(worst_cross, abs(law.cross.total - 0.5))
        worst_total = max(worst_total, abs(total_mass(law) - 1.0))
    ok = worst_norm <= 1e-12 and worst_cross <= 1e-12 and worst_total <= 1e-9
    report(
        1,
        "analytic identities",
        ok,
        f"normalization err {worst_norm:.2e}, cross err {worst_cross:.2e}, "
        f"total-mass err {worst_total:.2e}",
    )


def test_criterion_02_oracle_equivalence():
    rng = derive_substream(99, 1)
    worst_rel = 0.0
    for _ in range(100):
        L = float(rng.uniform(1.0, 100.0))
        side = float(rng.uniform(0.01, 1.0)) * L
        x0 = float(rng.uniform(0.0, L - side))
        y0 = float(rng.uniform(0.0, L - side))
        exact = cell_probability(x0, y0, side, L)
        quad = cell_probability_quadrature(x0, y0, side, L)
        worst_rel = max(worst_rel, abs(quad - exact) / exact)

    mismatches = 0
    configs = 0
    for _ in range(100):
        n = int(rng.integers(2, 101))
        L = float(rng.uniform(5.0, 50.0))
        R = float(rng.uniform(0.05, 0.5)) * L
        positions = rng.uniform(0.0, L, (n, 2))
        index = NeighborIndex(positions, L, R)
        for radius in (R, 0.75 * R):
            configs += 1
            got = pairs_within(index, radius)
            expected = brute_force_pairs(positions, radius)
            if got.shape != expected.shape or not np.array_equal(got, expected):
                mismatches += 1
    ok = worst_rel <= 1e-9 and mismatches == 0
    report(
        2,
        "oracle equivalence",
        ok,
        f"quadrature rel err {worst_rel:.2e} on 100 cells; "
        f"{mismatches}/{configs} neighbor mismatches",
    )


def test_criterion_03_stationarity():
    params = make_params(2000)
    rep = stationarity_report(params, bins=20, snapshots=200)
    ok = rep.tv_model <= 0.02 and rep.tv_init is not None and rep.tv_init <= 0.03
    report(
        3,
        "stationarity",
        ok,
        f"pooled TV {rep.tv_model:.4f} <= 0.02, "
        f"approx-init TV {rep.tv_init:.4f} <= 0.03",
    )


def test_criterion_04_expansion():
    exhaustive_total = 0
    exhaustive_violations = 0
    sizes = []
    for R in (30.0, 17.0, 14.0):
        zone_map = build_zone_map(make_params(500, R=R))
        assert zone_map.cz_size <= 16
        sizes.append(zone_map.cz_size)
        rep = check_expansion(zone_map, mode="exhaustive")
        assert rep.subsets_checked == 2**zone_map.cz_size - 2
        exhaustive_total += rep.subsets_checked
        exhaustive_violations += rep.violations
    desk = build_zone_map(make_params(2000))
    rand = check_expansion(desk, mode="random", samples=100_000)
    ok = exhaustive_violations == 0 and rand.violations == 0
    report(
        4,
        "boundary expansion",
        ok,
        f"exhaustive |CZ|={sizes} ({exhaustive_total} subsets) + "
        f"{rand.subsets_checked} random on |CZ|={desk.cz_size}: "
        f"{exhaustive_violations + rand.violations} violations",
    )


def test_criterion_05_deterministic_zone_lemmas():
    sweep = lemma_sweep(
        include_expansion=False, include_density=False, include_turns=False
    )
    assert len(sweep.settings) == 20
    coverage_bad = sum(0 if s.coverage_ok else 1 for s in sweep.settings)
    suburb_bad = sum(s.suburb_violations for s in sweep.settings)

    # negative control 1: shrinking the diameter allowance twenty-fold fires
    control = lemma_sweep(
        suburb_scale=1.0 / 20.0,
        include_expansion=False,
        include_density=False,
        include_turns=False,
    )
    control_fired = any(s.suburb_violations > 0 for s in control.settings)

    # negative control 2: a map whose central zone sits in one column
    # cannot reach the row/column floor
    m = 6
    central = np.zeros((m, m), dtype=bool)
    central[2, :] = True
    ell = 10.0 / m
    lopsided = ZoneMap(
        n=1000,
        L=10.0,
        R=ell * math.sqrt(5.0),
        m=m,
        ell=ell,
        prob_threshold=0.0,
        probs=np.full((m, m), 1.0 / (m * m)),
        central=central,
        extended_suburb=~central,
        suburb_diameter=1.0,
    )
    coverage_fired = not cz_row_column_counts(lopsided).ok

    ok = (
        coverage_bad == 0 and suburb_bad == 0 and control_fired and coverage_fired
    )
    report(
        5,
        "deterministic zone lemmas",
        ok,
        f"20-point sweep: {coverage_bad} coverage + {suburb_bad} suburb "
        f"violations; controls fired: allowance/20 {control_fired}, "
        f"single-column {coverage_fired}",
    )


def test_criterion_06_density_condition():
    setting = make_params(2000, R=35.0, c1=12.0, eta=0.02)
    horizon = min(setting.n, 5000)
    sweep = lemma_sweep(
        [setting],
        density_horizon=horizon,
        include_expansion=False,
        include_turns=False,
    )
    s = sweep.settings[0]
    assert s.density_checked

    control = lemma_sweep(
        [setting],
        eta_override=10.0,
        density_horizon=50,
        include_expansion=False,
        include_turns=False,
    )
    fired = control.settings[0].density_violations > 0
    ok = s.density_violations == 0 and fired
    report(
        6,
        "density condition",
        ok,
        f"eta=0.02 over {horizon} steps: {s.density_violations} violations; "
        f"eta=10 control fired: {fired}",
    )


def test_criterion_07_spreading(scaling):
    in_cz = [r for r in scaling.runs if r.source_rule == "in_cz"]
    assert len(in_cz) == 60 and not any(r.timed_out for r in in_cz)
    fitted = scaling.spread_constant
    ok = 0.0 < fitted <= 18.0
    report(
        7,
        "central-zone spreading",
        ok,
        f"fitted spread constant {fitted:.3f} vs reference 18 "
        f"over {len(in_cz)} runs",
    )


def test_criterion_08_main_bound(scaling):
    C = max(row["ratio"] for row in scaling.rows)
    slopes = scaling.slopes
    ok = 0.0 < C <= 5.0 and all(abs(s) <= 0.15 for s in slopes.values())
    report(
        8,
        "flooding-time bound",
        ok,
        f"sweep-wide C {C:.3g} <= 5; log-ratio slopes "
        + ", ".join(f"{rule} {slope:+.3f}" for rule, slope in sorted(slopes.items())),
    )


@pytest.fixture(scope="module")
def corner_report():
    """Criterion 09's corner experiment, run once for both of its tests."""
    params, d = lower_bound_params(n=2000)
    return lower_bound_experiment(params, d, trials=10_000)


def test_criterion_09_lower_bound(corner_report):
    rep = corner_report
    ok = rep.probability >= 0.01 and rep.floods > 0 and rep.all_satisfied
    report(
        9,
        "corner lower bound",
        ok,
        f"P(B)={rep.probability:.4f} >= 0.01 over {rep.trials} draws; "
        f"{rep.conditional_satisfied}/{rep.floods} conditional floods "
        f"at or above threshold {rep.threshold:.2f}",
    )


def test_criterion_09_corner_probabilities(corner_report):
    # each trial draws n i.i.d. stationary positions, so each count is
    # binomial over the trials, with its probability from the exact masses
    # e of E = [0, 3d]^2 and f of F = [0, d]^2
    rep = corner_report
    n, L, d = rep.params.n, rep.params.L, rep.d
    e = cell_probability(0.0, 0.0, 3.0 * d, L)
    f = cell_probability(0.0, 0.0, d, L)
    a = e - f  # the annulus E - F
    laws = {
        "hits": (1.0 - a) ** n - (1.0 - e) ** n,
        "f_occupied": 1.0 - (1.0 - f) ** n,
        "annulus_empty": (1.0 - a) ** n,
    }
    z = {
        name: (getattr(rep, name) - rep.trials * p) / math.sqrt(rep.trials * p * (1.0 - p))
        for name, p in laws.items()
    }
    report(
        9,
        "corner probabilities",
        all(abs(v) <= 4.0 for v in z.values()),
        ", ".join(
            f"{name} {getattr(rep, name)}/{rep.trials} vs {laws[name]:.4f} (z {z[name]:+.2f})"
            for name in laws
        ),
    )


def test_criterion_10_turn_counts():
    params = make_params(2000)
    rep = turn_statistics(params, windows=10_000, agents=50)
    ok = rep.fraction <= 0.01
    report(
        10,
        "turn counts",
        ok,
        f"{rep.violations}/{rep.windows} windows exceed the bound "
        f"({100 * rep.fraction:.3f}% <= 1%), tau in [{rep.tau_min}, {rep.tau_max}]",
    )


def test_criterion_11_determinism(tmp_path):
    outs = [tmp_path / name for name in ("run_a", "run_b", "run_c")]
    for out in outs:
        assert cli_main(["flood", "--output-dir", str(out), "-q"]) == 0
    identical = all(
        (outs[0] / name).read_bytes() == (other / name).read_bytes()
        for other in outs[1:]
        for name in ("flood_summary.json", "flood_progress.csv")
    )
    payload = json.loads((outs[0] / "flood_summary.json").read_text())
    report(
        11,
        "byte-identical reruns",
        identical,
        f"n={payload['config']['n']} flood run {len(outs)} times: "
        f"files identical {identical}",
    )
