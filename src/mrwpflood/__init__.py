"""Discrete-time flooding simulator and analysis toolkit for networks of
agents moving by the Manhattan random way-point model on a square arena.

The package is organised bottom-up:

- :mod:`mrwpflood.core` — scenario parameters, assumption checks, and the
  keyed hash behind every seed, stream and trip draw;
- :mod:`mrwpflood.stationary` — exact stationary position and destination
  laws, their samplers, and a quadrature oracle;
- :mod:`mrwpflood.mobility` — the kinematic engine, population stepping,
  and way-point event recording;
- :mod:`mrwpflood.zones` — the cell grid, central/suburb classification,
  and structural checkers;
- :mod:`mrwpflood.flooding` — neighbour index, synchronous flooding,
  density monitoring, run records;
- :mod:`mrwpflood.experiments` — scenario runners (scaling, lower bound,
  lemma sweep, stationarity validation);
- :mod:`mrwpflood.cli` — the ``mrwpflood`` command-line tool.
"""

__version__ = "0.1.0"

from .core import (
    RNG_ALGORITHM_ID,
    AssumptionReport,
    Point,
    WorldParams,
    check_assumptions,
    derive_substream,
)
from .experiments import (
    LemmaSweepReport,
    LowerBoundReport,
    ScalingReport,
    StationarityReport,
    TurnReport,
    default_sweep,
    lemma_sweep,
    lower_bound_experiment,
    lower_bound_params,
    make_params,
    scaling_experiment,
    stationarity_report,
    turn_statistics,
)
from .flooding import (
    FloodState,
    NeighborIndex,
    RunRecord,
    density_monitor,
    flood_step,
    flood_time_budget,
    run_flood,
)
from .mobility import (
    Heading,
    Leg,
    Population,
    TripEvent,
    init_population,
)
from .stationary import (
    CrossMasses,
    DestinationLaw,
    cell_probability,
    cell_probability_quadrature,
    destination_law,
    grid_cell_masses,
    peak_spatial_density,
    sample_destinations,
    sample_stationary_positions,
    spatial_density,
)
from .zones import (
    ZoneMap,
    boundary,
    build_zone_map,
    check_expansion,
    check_suburb_diameter,
    cz_row_column_counts,
    zone_map_svg,
    zone_map_to_csv,
)

__all__ = [
    "RNG_ALGORITHM_ID",
    "AssumptionReport",
    "Point",
    "WorldParams",
    "check_assumptions",
    "derive_substream",
    "LemmaSweepReport",
    "LowerBoundReport",
    "ScalingReport",
    "StationarityReport",
    "TurnReport",
    "default_sweep",
    "lemma_sweep",
    "lower_bound_experiment",
    "lower_bound_params",
    "make_params",
    "scaling_experiment",
    "stationarity_report",
    "turn_statistics",
    "FloodState",
    "NeighborIndex",
    "RunRecord",
    "density_monitor",
    "flood_step",
    "flood_time_budget",
    "run_flood",
    "Heading",
    "Leg",
    "Population",
    "TripEvent",
    "init_population",
    "CrossMasses",
    "DestinationLaw",
    "cell_probability",
    "cell_probability_quadrature",
    "grid_cell_masses",
    "destination_law",
    "peak_spatial_density",
    "sample_destinations",
    "sample_stationary_positions",
    "spatial_density",
    "ZoneMap",
    "boundary",
    "build_zone_map",
    "check_expansion",
    "check_suburb_diameter",
    "cz_row_column_counts",
    "zone_map_svg",
    "zone_map_to_csv",
    "__version__",
]
