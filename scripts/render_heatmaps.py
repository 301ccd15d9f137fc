#!/usr/bin/env python3
"""Render the stationary-density heatmap and the zone map for one network
size as standalone SVG files.  The destination-law figure comes from
`mrwpflood heatmap`."""

import argparse
from pathlib import Path

import numpy as np

from mrwpflood.experiments import make_params
from mrwpflood.stationary import spatial_density
from mrwpflood.zones import build_zone_map, grid_svg, zone_map_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--bins", type=int, default=100)
    parser.add_argument("--output-dir", type=Path, default=Path("figures"))
    args = parser.parse_args()

    params = make_params(args.n)
    args.output_dir.mkdir(parents=True, exist_ok=True)

    centers = (np.arange(args.bins) + 0.5) * (params.L / args.bins)
    xs, ys = np.meshgrid(centers, centers, indexing="ij")
    density_path = args.output_dir / "stationary_density.svg"
    density_path.write_text(grid_svg(spatial_density(xs, ys, params.L)))

    zone_map = build_zone_map(params)
    zones_path = args.output_dir / "zone_map.svg"
    zones_path.write_text(zone_map_svg(zone_map))

    print(
        f"n={params.n}: L={params.L:.2f}, R={params.R:.3f}, "
        f"m={zone_map.m}, central {zone_map.cz_size}/{zone_map.m ** 2} cells"
    )
    print(f"wrote {density_path} and {zones_path}")


if __name__ == "__main__":
    main()
