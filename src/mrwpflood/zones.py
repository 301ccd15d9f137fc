"""Zone decomposition of the arena into central and suburb cells.

The square is cut into an ``m x m`` grid of cells whose side fits inside
the communication radius (``m = ceil(sqrt(5) L / R)``, so any two points in
the same or adjacent cells are within ``R``).  A cell is *central* when its
stationary occupancy probability reaches ``(3/8) ln(n) / n``; the remaining
*suburb* cells hug the four corners, and cells within Manhattan distance
``2 S`` of a suburb cell form the *extended suburb*, read off an exact
two-pass L1 distance transform of the suburb mask in O(m^2).

The module owns the cell grid rules: the coordinate-to-cell rule
(``grid_index``, which ``ZoneMap.cell_index`` applies with side ``ell`` on
both axes, and the exchange's neighbour index on a lattice of its own) and
the 4-neighbour rule (``dilate``, which ``cz_neighborhood`` keeps within
the central zone).  ``grid_index`` truncates, and clips only an array
whose truncated cells one max finds outside the grid: points off the
arena, NaN, and the far edge where ``L / side`` reaches the number of
cells, as ``L / ell`` can reach ``m``.  Every cell set is an ``m x m``
boolean mask.  The module also provides the combinatorial
checkers used by the analysis: row/column coverage of the central zone,
vertex-boundary expansion of central subsets, and the suburb diameter
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import WorldParams, json_dict
from .stationary import grid_cell_masses

Cell = tuple[int, int]


def grid_index(coords: np.ndarray, side: float, m: int) -> np.ndarray:
    """Index of the cell holding each coordinate, on a line of ``m`` cells
    of side ``side`` starting at 0.  Coordinates are truncated by ``side``
    and clipped into ``[0, m - 1]``: the far edge maps to the last cell,
    coordinates outside the line to the nearest end cell, and NaN to cell
    0.  The clip runs only when some truncated cell lies outside ``[0, m -
    1]``; for coordinates in ``[0, L]``, whose quotients grow with them,
    only ``L / side >= m`` takes it."""
    i = (coords / side).astype(np.int64)
    # a negative cell reads as 2^63 or more unsigned: one max checks both ends
    if i.size and i.view(np.uint64).max() >= m:
        np.minimum(i, m - 1, out=i)
        np.maximum(i, 0, out=i)
    return i


def dilate(cells: np.ndarray) -> np.ndarray:
    """A 2-D mask grown by one step of the 4-neighbour rule: every cell of
    ``cells`` plus the cells that share a grid edge with one."""
    grown = cells.copy()
    grown[1:, :] |= cells[:-1, :]
    grown[:-1, :] |= cells[1:, :]
    grown[:, 1:] |= cells[:, :-1]
    grown[:, :-1] |= cells[:, 1:]
    return grown


@dataclass(frozen=True, eq=False)
class ZoneMap:
    """Cell grid with occupancy probabilities and the central/suburb split.

    ``probs[i, j]`` is the stationary probability of the cell with
    south-west corner ``(i * ell, j * ell)``; ``central`` is its boolean
    mask and ``extended_suburb`` marks cells within Manhattan distance
    ``2 * suburb_diameter`` of some suburb cell (corner to corner), computed
    by ``manhattan_distance`` on the suburb mask in O(m^2).
    ``suburb_diameter`` is the reference length
    ``(3/2) L^3 ln(n) / (ell^2 n)`` that bounds how far suburb cells reach
    from their corner.
    """

    n: int
    L: float
    R: float
    m: int
    ell: float
    prob_threshold: float
    probs: np.ndarray
    central: np.ndarray
    extended_suburb: np.ndarray
    suburb_diameter: float

    def __post_init__(self):
        self.probs.setflags(write=False)
        self.central.setflags(write=False)
        self.extended_suburb.setflags(write=False)

    @property
    def cz_size(self) -> int:
        return int(self.central.sum())

    @property
    def suburb_empty(self) -> bool:
        return self.cz_size == self.m * self.m

    def cell_index(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid cell ``(i, j)`` of each row of a ``(k, 2)`` position array,
        by ``grid_index`` with side ``ell`` on each axis (so
        ``mask[zone_map.cell_index(pos)]`` reads a cell mask per point)."""
        return (
            grid_index(positions[:, 0], self.ell, self.m),
            grid_index(positions[:, 1], self.ell, self.m),
        )

    @property
    def suburb_size(self) -> int:
        return self.m * self.m - self.cz_size

    @property
    def extended_suburb_size(self) -> int:
        return int(self.extended_suburb.sum())

    JSON_SKIP = ("probs", "central", "extended_suburb")
    JSON_EXTRA = ("cz_size", "suburb_size", "extended_suburb_size")
    to_json_dict = json_dict


def cell_side_bracket(L: float, R: float) -> tuple[float, float]:
    """Admissible range for the cell side: between ``R / (1 + sqrt(5))``
    and ``R / sqrt(5)``."""
    return R / (1.0 + math.sqrt(5.0)), R / math.sqrt(5.0)


def _l1_scan(f: np.ndarray) -> np.ndarray:
    """``d[k] = min_j f[j] + |k - j|`` down axis 0, as the minimum of a
    forward scan ``k + min_{j<=k} (f[j] - j)`` and its mirror."""
    k = np.arange(f.shape[0], dtype=float)[:, None]
    down = k + np.minimum.accumulate(f - k, axis=0)
    up = np.minimum.accumulate((f + k)[::-1], axis=0)[::-1] - k
    return np.minimum(down, up)


def manhattan_distance(mask: np.ndarray) -> np.ndarray:
    """Manhattan distance, in cells, from every cell of a 2-D grid to the
    nearest ``True`` cell of ``mask`` (``inf`` everywhere when there is
    none).

    The L1 distance transform is separable: one scan down the columns and
    one along the rows, O(m^2) in all.  The distances are small integers,
    so they are exact in float64.
    """
    f = np.where(mask, 0.0, np.inf)
    return _l1_scan(_l1_scan(f).T).T


def build_zone_map(params: WorldParams) -> ZoneMap:
    """Cut the arena into cells and classify them.

    Raises when ``R > sqrt(2) L`` (a cell construction needs the radius to
    fit the arena) or when the resulting side escapes its admissible
    bracket, which can only happen for ``R > L``.
    """
    n, L, R = params.n, params.L, params.R
    if R > math.sqrt(2.0) * L:
        raise ValueError(
            "communication radius exceeds the arena diagonal; "
            "the cell construction needs R <= sqrt(2) L"
        )
    m = math.ceil(math.sqrt(5.0) * L / R)
    ell = L / m
    lo, hi = cell_side_bracket(L, R)
    if not (lo <= ell <= hi):
        raise ValueError(
            f"cell side {ell} escapes its admissible range [{lo}, {hi}]"
        )
    threshold = (3.0 / 8.0) * math.log(n) / n
    probs = grid_cell_masses(L, m)
    central = probs >= threshold
    suburb_diameter = 1.5 * L**3 * math.log(n) / (ell**2 * n)
    extended = manhattan_distance(~central) * ell <= 2.0 * suburb_diameter
    return ZoneMap(
        n=n,
        L=L,
        R=R,
        m=m,
        ell=ell,
        prob_threshold=threshold,
        probs=probs,
        central=central,
        extended_suburb=extended,
        suburb_diameter=suburb_diameter,
    )


# ---------------------------------------------------------------------------
# structural checks on the central zone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    """How many grid rows and columns contain at least one central cell,
    against the floor ``m / sqrt(2)`` both counts must reach."""

    m: int
    rows_with_central: int
    columns_with_central: int
    floor: float

    @property
    def ok(self) -> bool:
        return min(self.rows_with_central, self.columns_with_central) >= self.floor


def cz_row_column_counts(zone_map: ZoneMap) -> CoverageReport:
    """Count grid rows and columns that intersect the central zone."""
    central = zone_map.central
    return CoverageReport(
        m=zone_map.m,
        rows_with_central=int(central.any(axis=0).sum()),  # rows: fixed j
        columns_with_central=int(central.any(axis=1).sum()),  # columns: fixed i
        floor=zone_map.m / math.sqrt(2.0),
    )


def cz_neighborhood(cells: np.ndarray, zone_map: ZoneMap) -> np.ndarray:
    """Mask of the cells plus their central grid neighbours (``dilate``
    of an ``m x m`` mask, kept within ``zone_map.central``)."""
    return cells | (dilate(cells) & zone_map.central)


def boundary(cells: np.ndarray, zone_map: ZoneMap) -> np.ndarray:
    """Vertex boundary of a central subset, given as an ``m x m`` mask:
    central cells outside the subset that share a grid edge with a cell
    inside it."""
    if cells.shape != zone_map.central.shape or (cells & ~zone_map.central).any():
        raise ValueError("boundary is defined for subsets of the central zone")
    return cz_neighborhood(cells, zone_map) & ~cells


@dataclass(frozen=True, eq=False)
class ExpansionReport:
    """Result of checking ``|boundary(B)| >= sqrt(min(|B|, |CZ| - |B|))``
    over proper nonempty central subsets.  ``witness`` is the ``m x m`` mask
    of the first checked subset with the smallest margin."""

    cz_size: int
    mode: str
    subsets_checked: int
    violations: int
    worst_margin: float  # min over checked subsets of |∂B| - sqrt(min(...))
    witness: np.ndarray | None = field(default=None)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    JSON_SKIP = ("witness",)
    to_json_dict = json_dict


EXHAUSTIVE_LIMIT = 20
# Subsets one margin evaluation holds at once.
_SUBSET_BATCH = 512
# Rows of uniforms a random subset batch draws at once.
_DRAW_ROWS = 64


def _neighbor_table(central: np.ndarray) -> np.ndarray:
    """``(|CZ|, 4)`` indices of each central cell's grid neighbours, central
    cells numbered in ``np.argwhere`` order; a neighbour that is off the
    grid or not central gets the sentinel ``|CZ|``."""
    cz = int(central.sum())
    index = np.full((central.shape[0] + 2, central.shape[1] + 2), cz, dtype=np.int64)
    index[1:-1, 1:-1][central] = np.arange(cz)
    shifted = [index[2:, 1:-1], index[:-2, 1:-1], index[1:-1, 2:], index[1:-1, :-2]]
    return np.stack(shifted, axis=-1)[central]


def _margins(rows: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Expansion margin of each subset in a ``(b, |CZ|)`` boolean array."""
    b, cz = rows.shape
    # cell-major layout: each neighbour gather copies whole rows of b flags
    padded = np.zeros((cz + 1, b), dtype=bool)  # the sentinel row stays off
    padded[:cz] = rows.T
    touched = np.zeros((cz, b), dtype=bool)
    for column in neighbors.T:
        touched |= padded[column]
    sizes = rows.sum(axis=1)
    bounds = (touched & ~padded[:cz]).sum(axis=0)
    return bounds - np.sqrt(np.minimum(sizes, cz - sizes))


def _exhaustive_subsets(cz: int):
    """Bit rows of ``s = 1 .. 2^cz - 2`` in increasing batches."""
    bits = np.arange(cz, dtype=np.int64)
    stop = (1 << cz) - 1
    for start in range(1, stop, _SUBSET_BATCH):
        s = np.arange(start, min(start + _SUBSET_BATCH, stop), dtype=np.int64)
        yield ((s[:, None] >> bits) & 1) == 1


def _random_subsets(cz: int, samples: int, rng: np.random.Generator):
    """``samples`` uniform subset draws, empty and full ones dropped.

    Each batch is the rows of one ``rng.random((b, cz)) < 0.5`` draw.  The
    uniforms are drawn ``_DRAW_ROWS`` rows at a time into one reused
    buffer, which takes the stream in the same order, so only a fraction
    of the batch's float64 values is held at once."""
    buf = np.empty((min(_DRAW_ROWS, samples), cz))
    drawn = 0
    while drawn < samples:
        b = min(_SUBSET_BATCH, samples - drawn)
        drawn += b
        rows = np.empty((b, cz), dtype=bool)
        for a in range(0, b, _DRAW_ROWS):
            part = buf[: min(_DRAW_ROWS, b - a)]
            rng.random(out=part)
            np.less(part, 0.5, out=rows[a : a + len(part)])
        sizes = rows.sum(axis=1)
        yield rows[(sizes > 0) & (sizes < cz)]


def check_expansion(
    zone_map: ZoneMap,
    mode: str = "auto",
    samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> ExpansionReport:
    """Verify the boundary-expansion inequality on central subsets.

    A subset is a boolean row over the central cells in ``np.argwhere``
    order.  ``exhaustive`` enumerates every proper nonempty subset as the
    bits of ``s = 1 .. 2^|CZ| - 2`` (only feasible for small central
    zones); ``random`` draws uniform subsets with a fixed generator,
    skipping the empty and full draws.  ``auto`` picks exhaustive when
    ``|CZ| <= 20``.  Subsets are checked ``_SUBSET_BATCH`` at a time
    against a ``(|CZ|, 4)`` neighbour table, so memory grows linearly in
    ``|CZ|``.
    """
    central = zone_map.central
    cz = zone_map.cz_size
    if cz < 2:
        return ExpansionReport(cz, "exhaustive", 0, 0, math.inf)
    if mode == "auto":
        mode = "exhaustive" if cz <= EXHAUSTIVE_LIMIT else "random"
    if mode == "exhaustive":
        if cz > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"exhaustive expansion check limited to {EXHAUSTIVE_LIMIT} "
                f"central cells, got {cz}"
            )
        batches = _exhaustive_subsets(cz)
    elif mode == "random":
        batches = _random_subsets(
            cz, samples, np.random.default_rng(0) if rng is None else rng
        )
    else:
        raise ValueError(f"unknown expansion mode: {mode!r}")
    neighbors = _neighbor_table(central)
    worst = math.inf
    best: np.ndarray | None = None
    violations = checked = 0
    for rows in batches:
        if rows.shape[0] == 0:
            continue
        margins = _margins(rows, neighbors)
        checked += rows.shape[0]
        violations += int((margins < 0).sum())
        low = int(np.argmin(margins))
        if margins[low] < worst:
            worst, best = float(margins[low]), rows[low]
    witness = None
    if best is not None:
        witness = np.zeros_like(central)
        witness[central] = best
    return ExpansionReport(cz, mode, checked, violations, worst, witness)


# ---------------------------------------------------------------------------
# suburb diameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuburbDiameterReport:
    """Worst folded corner coordinate over suburb cells, against the
    allowance ``scale * suburb_diameter`` both coordinates must respect."""

    allowance: float
    worst_distance: float
    worst_cell: Cell | None
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_suburb_diameter(
    zone_map: ZoneMap, scale: float = 1.0
) -> SuburbDiameterReport:
    """Check both corner coordinates of every suburb cell stay within
    ``scale * suburb_diameter``.

    A suburb cell's coordinates are measured from its nearest arena corner
    to the cell corner facing it: for the south-west quadrant these are the
    cell's south-west corner coordinates, with the mirrored rule in the
    other quadrants.  A cell violates when either coordinate exceeds the
    allowance.
    """
    allowance = scale * zone_map.suburb_diameter
    m, ell = zone_map.m, zone_map.ell
    i, j = np.nonzero(~zone_map.central)  # row-major, i.e. sorted (i, j)
    if i.size == 0:
        return SuburbDiameterReport(allowance, 0.0, None, 0)
    k = np.arange(m)
    fold = np.minimum(k, m - 1 - k) * ell
    far = np.maximum(fold[i], fold[j])
    first = int(np.argmax(far))  # the first maximum in (i, j) order
    worst = float(far[first])
    worst_cell = (int(i[first]), int(j[first]))
    violations = int((far > allowance).sum())
    return SuburbDiameterReport(allowance, worst, worst_cell, violations)


# ---------------------------------------------------------------------------
# core sub-cells (the middle ninth of every cell)
# ---------------------------------------------------------------------------

def core_bounds(zone_map: ZoneMap, cell: Cell) -> tuple[float, float, float, float]:
    """(x0, x1, y0, y1) of the middle-ninth core of a cell."""
    ell = zone_map.ell
    x0 = (cell[0] + 1.0 / 3.0) * ell
    y0 = (cell[1] + 1.0 / 3.0) * ell
    return x0, x0 + ell / 3.0, y0, y0 + ell / 3.0


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def zone_map_to_csv(zone_map: ZoneMap) -> str:
    """CSV of all cells (one row each) prefixed by ``#`` metadata lines."""
    lines = [
        f"# n={zone_map.n} L={zone_map.L!r} R={zone_map.R!r}",
        f"# m={zone_map.m} ell={zone_map.ell!r}",
        f"# prob_threshold={zone_map.prob_threshold!r}",
        f"# suburb_diameter={zone_map.suburb_diameter!r}",
        "i,j,probability,label,core_x0,core_x1,core_y0,core_y1",
    ]
    for i in range(zone_map.m):
        for j in range(zone_map.m):
            label = "CENTRAL" if zone_map.central[i, j] else "SUBURB"
            cx0, cx1, cy0, cy1 = core_bounds(zone_map, (i, j))
            lines.append(
                f"{i},{j},{zone_map.probs[i, j]!r},{label},"
                f"{cx0!r},{cx1!r},{cy0!r},{cy1!r}"
            )
    return "\n".join(lines) + "\n"


def svg_canvas(size: int, shapes: list[str]) -> str:
    """A ``size`` x ``size`` SVG document on a white background holding
    ``shapes``, one element per line."""
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">',
            f'<rect width="{size}" height="{size}" fill="white"/>',
            *shapes,
            "</svg>",
        ]
    ) + "\n"


def gray(value: float, top: float) -> str:
    """Fill colour of ``value`` on a grayscale where ``top`` is black and
    zero is white."""
    shade = value / top if top > 0 else 0.0
    level = int(round(255 * (1.0 - shade)))
    return f"#{level:02x}{level:02x}{level:02x}"


def grid_svg(
    values: np.ndarray, size: int = 512, outline: np.ndarray | None = None
) -> str:
    """Deterministic grayscale SVG of a value grid (black = the largest
    value, white = zero).

    ``values[i, j]`` covers the cell with south-west corner at grid position
    (i, j); the south row is drawn at the bottom.  Cells where ``outline``
    is true get a thin red outline.
    """
    k = values.shape[0]
    cell = size / k
    top = float(values.max())
    shapes = []
    for i in range(k):
        for j in range(values.shape[1]):
            x = i * cell
            y = (values.shape[1] - 1 - j) * cell
            stroke = (
                ' stroke="#cc0000" stroke-width="1"'
                if outline is not None and outline[i, j]
                else ""
            )
            shapes.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell:.2f}" '
                f'height="{cell:.2f}" fill="{gray(values[i, j], top)}"{stroke}/>'
            )
    return svg_canvas(size, shapes)


def zone_map_svg(zone_map: ZoneMap, size: int = 512) -> str:
    """The probability grid as a :func:`grid_svg`, central cells outlined."""
    return grid_svg(zone_map.probs, size, outline=zone_map.central)
