"""Command-line interface.

Every subcommand reads an optional JSON config (``--config``), applies
``--set key=value`` overrides (dotted keys reach into ``constants``),
resolves defaults (``L = sqrt(n)``, radius at its admissibility threshold,
speed at its cap), and writes deterministic artifacts — JSON, CSV, SVG —
into the output directory (``--output-dir`` flag, else the
``MRWPFLOOD_OUTPUT_DIR`` environment variable, else the working directory).

Every output embeds the resolved config, the seed, the RNG algorithm
identifier, and the artifact version; no wall-clock data is written, so
identical configurations produce byte-identical files.  Every JSON
artifact goes through ``core.json_value``, so a non-finite float is written
as ``null``.

Exit codes: 0 success, 1 validation or violation failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import RNG_ALGORITHM_ID, SPEED_ENVELOPE_DEFAULT, WorldParams, json_value
from .experiments import (
    SCENARIO_C1,
    lemma_sweep,
    lower_bound_experiment,
    lower_bound_params,
    make_params,
    scaling_experiment,
    stationarity_report,
)
from .flooding import (
    DEFAULT_BOUND_CONSTANTS,
    SOURCE_RANDOM,
    SourcePlacementError,
    run_flood,
)
from .mobility import APPROX_STATIONARY, Heading, Leg, init_population
from .stationary import destination_law, spatial_density
from .zones import (
    build_zone_map,
    check_expansion,
    gray,
    grid_svg,
    svg_canvas,
    zone_map_svg,
    zone_map_to_csv,
)

OUTPUT_DIR_ENV = "MRWPFLOOD_OUTPUT_DIR"

DEFAULT_CONFIG: dict = {
    "n": 2000,
    "L": None,
    "R": None,
    "v": None,
    "seed": 0,
    "init": APPROX_STATIONARY,
    "warmup_steps": None,
    "eta": 0.02,
    "constants": {
        "a": DEFAULT_BOUND_CONSTANTS[0],
        "b": DEFAULT_BOUND_CONSTANTS[1],
        "c1": SCENARIO_C1,
        "c2": SPEED_ENVELOPE_DEFAULT,
    },
    "max_steps": None,
}


class ConfigError(Exception):
    """Malformed or inconsistent configuration."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _set_config(config: dict, key: str, value) -> None:
    """Set one top-level config key; ``constants`` takes an object whose
    every key names a known constant."""
    if key not in config:
        raise ConfigError(f"unknown config key {key!r}")
    if key != "constants":
        config[key] = value
        return
    if not isinstance(value, dict):
        raise ConfigError("'constants' must be a JSON object")
    for name, constant in value.items():
        if name not in config["constants"]:
            raise ConfigError(f"unknown constant {name!r}")
        config["constants"][name] = constant


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Resolve the configuration: defaults, then file, then overrides."""
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            _set_config(config, key, value)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        value = _parse_value(raw)
        if key == "constants":
            raise ConfigError(f"unknown config key {key!r}")
        if key.startswith("constants."):
            key, value = "constants", {key[len("constants."):]: value}
        _set_config(config, key, value)
    return config


def config_integer(config: dict, key: str) -> int:
    """The config's integer ``key``; a boolean or a fractional number is a
    ``ConfigError``."""
    value = config[key]
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def world_values(config: dict) -> dict:
    """The config's typed world values, the keyword arguments of
    ``make_params``: n, L, R, v (None where unset), c1, c2, eta and seed."""
    try:
        values = {key: config_integer(config, key) for key in ("n", "seed")}
        for key in ("L", "R", "v"):
            values[key] = None if config[key] is None else float(config[key])
        for key in ("c1", "c2"):
            values[key] = float(config["constants"][key])
        values["eta"] = float(config["eta"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc
    return values


def resolve_params(config: dict) -> WorldParams:
    """The config's world: ``make_params`` of its world values."""
    try:
        return make_params(**world_values(config))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def bound_constants(config: dict) -> tuple[float, float]:
    return float(config["constants"]["a"]), float(config["constants"]["b"])


def _metadata(config: dict) -> dict:
    return {
        "artifact_version": __version__,
        "rng_algorithm": RNG_ALGORITHM_ID,
        "config": config,
    }


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_result(path: Path, config: dict, result) -> None:
    """Write ``result`` (a report or a dict) under ``"result"``, beside the
    metadata, converted by ``json_value``."""
    payload = json_value({**_metadata(config), "result": result})
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def write_csv(path: Path, config: dict, header: list[str], rows: list[list]) -> None:
    meta = _csv_meta(config)
    lines = [f"# {key}={_fmt(value)}" for key, value in sorted(meta.items())]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_meta(config: dict) -> dict:
    return {**_metadata(config), "config": json.dumps(config, sort_keys=True)}


def _svg_meta_comment(config: dict) -> str:
    blob = json.dumps(_metadata(config), sort_keys=True)
    return f"<!-- {blob} -->\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _out_dir(args) -> Path:
    chosen = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(chosen)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_simulate(args, config: dict) -> int:
    params = resolve_params(config)
    out = _out_dir(args)
    population = init_population(params, config["init"], config["warmup_steps"])
    watched = list(range(min(args.agents, params.n)))

    def snapshot(step: int) -> list[list]:
        return [
            [
                step,
                agent,
                float(population.pos[agent, 0]),
                float(population.pos[agent, 1]),
                Heading(int(population.heading[agent])).name,
                Leg(int(population.leg[agent])).name,
            ]
            for agent in watched
        ]

    rows = snapshot(0)
    for step in range(1, args.steps + 1):
        population.step()
        rows += snapshot(step)
    path = out / "trajectories.csv"
    write_csv(path, config, ["step", "agent", "x", "y", "heading", "leg"], rows)
    _say(args, f"wrote {path} ({len(watched)} agents, {args.steps} steps)")
    return 0


def cmd_flood(args, config: dict) -> int:
    params = resolve_params(config)
    out = _out_dir(args)
    record = run_flood(
        params,
        source_rule=args.source,
        init_mode=config["init"],
        warmup_steps=config["warmup_steps"],
        max_steps=config["max_steps"],
        bound_constants=bound_constants(config),
        check_stability=args.check_stability,
        collect_progress=True,
    )
    write_result(out / "flood_summary.json", config, record)
    write_csv(
        out / "flood_progress.csv",
        config,
        ["step", "informed_count", "cz_cells_informed", "suburb_informed_count"],
        [list(row) for row in record.progress],
    )
    status = "TIMEOUT" if record.timed_out else f"T={record.flooding_time}"
    _say(args, f"wrote {out / 'flood_summary.json'} ({status})")
    violation_total = sum(record.violations.values())
    return 1 if violation_total > 0 else 0


def cmd_zones(args, config: dict) -> int:
    params = resolve_params(config)
    out = _out_dir(args)
    zone_map = build_zone_map(params)
    write_result(out / "zones.json", config, zone_map)
    (out / "zones.csv").write_text(
        f"# {json.dumps(_csv_meta(config), sort_keys=True)}\n"
        + zone_map_to_csv(zone_map),
        encoding="utf-8",
    )
    (out / "zones.svg").write_text(
        _svg_meta_comment(config) + zone_map_svg(zone_map), encoding="utf-8"
    )
    _say(
        args,
        f"wrote {out / 'zones.svg'} (m={zone_map.m}, central {zone_map.cz_size}"
        f"/{zone_map.m ** 2})",
    )
    return 0


def cmd_validate_stationary(args, config: dict) -> int:
    params = resolve_params(config)
    out = _out_dir(args)
    report = stationarity_report(
        params,
        bins=args.bins,
        snapshots=args.snapshots,
        spacing=args.spacing,
        warmup_steps=config["warmup_steps"],
        compare_approx=not args.skip_approx,
    )
    result = report.to_json_dict()
    result.update(tv_limit=args.tv_limit, init_tv_limit=args.init_tv_limit)
    write_result(out / "stationarity.json", config, result)
    ok = report.tv_model <= args.tv_limit and (
        report.tv_init is None or report.tv_init <= args.init_tv_limit
    )
    _say(
        args,
        f"wrote {out / 'stationarity.json'} (tv_model={report.tv_model:.4f}, "
        f"tv_init={report.tv_init if report.tv_init is None else round(report.tv_init, 4)}, "
        f"{'OK' if ok else 'VIOLATION'})",
    )
    return 0 if ok else 1


def cmd_expansion_check(args, config: dict) -> int:
    params = resolve_params(config)
    out = _out_dir(args)
    zone_map = build_zone_map(params)
    report = check_expansion(zone_map, mode=args.mode, samples=args.samples)
    witness = report.witness
    result = report.to_json_dict()
    result["witness"] = None if witness is None else np.argwhere(witness).tolist()
    write_result(out / "expansion.json", config, result)
    _say(
        args,
        f"wrote {out / 'expansion.json'} ({report.subsets_checked} subsets, "
        f"{report.violations} violations)",
    )
    return 0 if report.ok else 1


def cmd_lemma_sweep(args, config: dict) -> int:
    out = _out_dir(args)
    report = lemma_sweep(
        eta_override=args.eta_override,
        suburb_scale=args.suburb_scale,
        expansion_samples=args.expansion_samples,
        density_horizon=args.density_horizon,
        turn_windows=args.turn_windows,
        include_expansion=not args.skip_expansion,
        include_density=not args.skip_density,
        include_turns=not args.skip_turns,
        seed=config_integer(config, "seed"),
    )
    result = report.to_json_dict()
    write_result(out / "lemma_sweep.json", config, result)
    header = [
        "name",
        "n",
        "R",
        "m",
        "cz_size",
        "suburb_size",
        "coverage_ok",
        "expansion_checked",
        "expansion_violations",
        "suburb_violations",
        "density_checked",
        "density_violations",
        "turn_windows",
        "turn_violations",
    ]
    rows = [{**s["params"], **s} for s in result["settings"]]
    write_csv(
        out / "lemma_sweep.csv",
        config,
        header,
        [[row[key] for key in header] for row in rows],
    )
    _say(
        args,
        f"wrote {out / 'lemma_sweep.json'} "
        f"(deterministic={report.deterministic_violations}, "
        f"density={report.density_violations}, "
        f"turn_fraction={report.turn_fraction:.4f})",
    )
    return 0 if report.ok else 1


def cmd_scaling(args, config: dict) -> int:
    """n, L, R and v follow ``--scales``; c1, c2, eta and seed the config."""
    world = world_values(config)
    out = _out_dir(args)
    report = scaling_experiment(
        scales=args.scales,
        replicas=args.replicas,
        constants=bound_constants(config),
        init_mode=config["init"],
        **{key: world[key] for key in ("c1", "c2", "eta", "seed")},
    )
    write_result(out / "scaling.json", config, report)
    rows = [list(row.values()) for row in report.rows]
    write_csv(out / "scaling.csv", config, list(report.rows[0]), rows)
    runs_dir = out / "runs"
    runs_dir.mkdir(exist_ok=True)
    for k, record in enumerate(report.runs):
        write_result(runs_dir / f"run_{k:04d}.json", config, record)
    _say(
        args,
        f"wrote {out / 'scaling.csv'} (C={report.max_ratio:.4g}, "
        f"spread constant={report.spread_constant:.4g})",
    )
    return 0


def cmd_lower_bound(args, config: dict) -> int:
    """The corner scenario of ``lower_bound_params`` in the config's world:
    its corner side scales with L, and an unset R is 0.9 of it."""
    out = _out_dir(args)
    try:
        params, d = lower_bound_params(d_factor=args.d_factor, **world_values(config))
        report = lower_bound_experiment(
            params, d, trials=args.trials, flood_cap=args.flood_cap
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_result(out / "lower_bound.json", config, report)
    _say(
        args,
        f"wrote {out / 'lower_bound.json'} (P={report.probability:.4f}, "
        f"floods={report.floods}, all_satisfied={report.all_satisfied})",
    )
    return 0 if report.all_satisfied else 1


def cmd_heatmap(args, config: dict) -> int:
    params = resolve_params(config)
    out = _out_dir(args)
    L = params.L
    k = args.bins
    centers = (np.arange(k) + 0.5) * (L / k)
    xs, ys = np.meshgrid(centers, centers, indexing="ij")
    density = spatial_density(xs, ys, L)
    spatial_path = out / "heatmap_spatial.svg"
    spatial_path.write_text(
        _svg_meta_comment(config) + grid_svg(density), encoding="utf-8"
    )
    if args.origin is not None:
        try:
            x0, y0 = (float(part) for part in args.origin.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"origin must be 'x,y', got {args.origin!r}"
            ) from exc
    else:
        x0, y0 = L / 3.0, L / 4.0
    try:
        law = destination_law((x0, y0), L)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    size = 512
    scale = size / L
    densities = [law.density_sw, law.density_nw, law.density_ne, law.density_se]
    top = max(densities)
    quads = [
        (0.0, 0.0, x0, y0, law.density_sw),
        (0.0, y0, x0, L - y0, law.density_nw),
        (x0, y0, L - x0, L - y0, law.density_ne),
        (x0, 0.0, L - x0, y0, law.density_se),
    ]
    shapes = [
        f'<rect x="{qx * scale:.2f}" y="{(L - qy - qh) * scale:.2f}" '
        f'width="{qw * scale:.2f}" height="{qh * scale:.2f}" fill="{gray(dens, top)}"/>'
        for qx, qy, qw, qh, dens in quads
    ]
    # the axis-aligned cross through the origin carries the atomic mass:
    # stroke width scales with each arm's share
    cross = law.cross
    arms = [
        (x0, 0.0, x0, y0, cross.south),
        (x0, y0, x0, L, cross.north),
        (0.0, y0, x0, y0, cross.west),
        (x0, y0, L, y0, cross.east),
    ]
    for ax0, ay0, ax1, ay1, mass in arms:
        width = 1.0 + 16.0 * mass
        shapes.append(
            f'<line x1="{ax0 * scale:.2f}" y1="{(L - ay0) * scale:.2f}" '
            f'x2="{ax1 * scale:.2f}" y2="{(L - ay1) * scale:.2f}" '
            f'stroke="black" stroke-width="{width:.2f}"/>'
        )
    dest_path = out / "heatmap_destination.svg"
    dest_path.write_text(
        _svg_meta_comment(config) + svg_canvas(size, shapes), encoding="utf-8"
    )
    _say(args, f"wrote {spatial_path} and {dest_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrwpflood",
        description=(
            "Discrete-time flooding simulator for Manhattan random "
            "way-point networks"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (dotted keys reach constants.*)",
    )
    common.add_argument("--output-dir", help="directory for output artifacts")
    common.add_argument(
        "-q", "--quiet", action="store_true", help="suppress progress lines"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="dump agent trajectories")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--agents", type=int, default=10, help="number of agents to dump")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("flood", parents=[common], help="run one flood")
    p.add_argument("--source", default=SOURCE_RANDOM, help="source rule")
    p.add_argument(
        "--check-stability",
        action="store_true",
        help="attach the density and cell-stability monitors",
    )
    p.set_defaults(func=cmd_flood)

    p = sub.add_parser("zones", parents=[common], help="export the zone map")
    p.set_defaults(func=cmd_zones)

    p = sub.add_parser(
        "validate-stationary",
        parents=[common],
        help="compare pooled histograms against the exact law",
    )
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--snapshots", type=int, default=200)
    p.add_argument("--spacing", type=int, default=None)
    p.add_argument("--tv-limit", type=float, default=0.02)
    p.add_argument("--init-tv-limit", type=float, default=0.03)
    p.add_argument("--skip-approx", action="store_true")
    p.set_defaults(func=cmd_validate_stationary)

    p = sub.add_parser(
        "expansion-check", parents=[common], help="check boundary expansion"
    )
    p.add_argument("--mode", default="auto", choices=["auto", "exhaustive", "random"])
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=cmd_expansion_check)

    p = sub.add_parser(
        "lemma-sweep", parents=[common], help="run all checkers across the sweep"
    )
    p.add_argument("--eta-override", type=float, default=None)
    p.add_argument("--suburb-scale", type=float, default=1.0)
    p.add_argument("--expansion-samples", type=int, default=2000)
    p.add_argument("--density-horizon", type=int, default=300)
    p.add_argument("--turn-windows", type=int, default=200)
    p.add_argument("--skip-expansion", action="store_true")
    p.add_argument("--skip-density", action="store_true")
    p.add_argument("--skip-turns", action="store_true")
    p.set_defaults(func=cmd_lemma_sweep)

    p = sub.add_parser(
        "scaling", parents=[common], help="flooding times across arena scales"
    )
    p.add_argument("--scales", type=int, nargs="+", default=[1000, 2000, 4000])
    p.add_argument("--replicas", type=int, default=20)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser(
        "lower-bound", parents=[common], help="corner-event lower bound"
    )
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--d-factor", type=float, default=0.23)
    p.add_argument("--flood-cap", type=int, default=None)
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser(
        "heatmap", parents=[common], help="density and destination-law figures"
    )
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--origin", default=None, help="destination-law origin 'x,y'")
    p.set_defaults(func=cmd_heatmap)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        return args.func(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SourcePlacementError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
