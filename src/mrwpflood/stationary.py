"""Closed-form stationary laws of the Manhattan random way-point process.

An agent repeatedly picks a destination uniformly at random in the square
[0, L]^2 and walks there along one of the two axis-aligned two-leg paths
(vertical-then-horizontal or horizontal-then-vertical, fair coin), at
constant speed.  Run forever, the position of the agent is described by an
explicit density, and the destination seen from a stationary position obeys
an explicit mixed law.  This module provides both laws, exact rectangle
integrals of the position density, a numerical-quadrature twin used as an
independent cross-check, and samplers for each law.

Position density (normalised over the square, peak 1.5/L^2 at the centre):

    f(x, y) = (3/L^3) (x + y) - (3/L^4) (x^2 + y^2)

Destination law from origin (x0, y0): with probability 1/2 the destination
falls on the axis-aligned cross through the origin (four segments with the
masses below), otherwise in one of the four open quadrants with a constant
density per quadrant.  With W = x0(L-x0) + y0(L-y0):

    quadrant densities (per unit area, denominator 4 L W)
        south-west  (2L - x0 - y0)     north-east  (x0 + y0)
        north-west  (L - x0 + y0)      south-east  (L + x0 - y0)
    cross masses (denominator 4 W)
        south = north = y0 (L - y0)    west = east = x0 (L - x0)

The four corners of the square make W = 0 and are rejected as origins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Point

#: Least number of proposals the rejection sampler draws before giving up.
REJECTION_CAP = 10**6


# ---------------------------------------------------------------------------
# position density and its rectangle integrals
# ---------------------------------------------------------------------------

def _density_raw(x, y, L: float):
    """Stationary position density, no domain checks (array-aware)."""
    return (3.0 / L**3) * (x + y) - (3.0 / L**4) * (x * x + y * y)


def spatial_density(x, y, L: float):
    """Stationary position density f(x, y); accepts scalars or arrays.

    Raises ValueError if any point lies outside the closed square.
    """
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if np.any(xa < 0) or np.any(xa > L) or np.any(ya < 0) or np.any(ya > L):
        raise ValueError("density evaluated outside the closed square")
    out = _density_raw(xa, ya, L)
    if np.isscalar(x) and np.isscalar(y):
        return float(out)
    return out


def peak_spatial_density(L: float) -> float:
    """Maximum of the position density, attained at the centre: 1.5/L^2."""
    return 1.5 / (L * L)


def _cell_probability_raw(x0, y0, side, L: float):
    """Exact integral of the density over [x0,x0+side]x[y0,y0+side]."""
    s = side
    return (3.0 * s * s / L**4) * (
        (s / 3.0) * (3.0 * L - 2.0 * s)
        + x0 * (L - s - x0)
        + y0 * (L - s - y0)
    )


def cell_probability(x0: float, y0: float, side: float, L: float) -> float:
    """Stationary probability mass of the axis-aligned square cell whose
    south-west corner is (x0, y0) and whose side is ``side``.

    Rejects cells that extend outside the arena.
    """
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    if not side > 0:
        raise ValueError(f"cell side must be positive, got {side}")
    if x0 < 0 or y0 < 0 or x0 + side > L or y0 + side > L:
        raise ValueError(
            f"cell ({x0}, {y0}) side {side} extends outside the square [0, {L}]^2"
        )
    return float(_cell_probability_raw(x0, y0, side, L))


def grid_cell_masses(L: float, cells: int) -> np.ndarray:
    """Exact stationary masses of the uniform ``cells x cells`` grid over
    the arena; entry (i, j) holds the cell with south-west corner
    ``(i, j) * L / cells``.

    Uses the closed form directly: the grid tiles the square exactly, so no
    per-cell containment rounding checks apply.
    """
    if cells < 1:
        raise ValueError("the grid needs at least one cell per side")
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    side = L / cells
    corners = np.arange(cells) * side
    return _cell_probability_raw(
        corners[:, None], corners[None, :], side, L
    )


def cell_probability_quadrature(
    x0: float, y0: float, side: float, L: float, intervals: int = 64
) -> float:
    """Numerical twin of :func:`cell_probability` via composite Simpson.

    Integrates the density function pointwise instead of using the closed
    form, so the two routes are independent.  Simpson's rule is exact for
    polynomials up to degree three, hence exact for the quadratic density
    up to float rounding at any interval count.
    """
    if intervals < 2 or intervals % 2:
        raise ValueError("intervals must be an even number >= 2")
    if x0 < 0 or y0 < 0 or x0 + side > L or y0 + side > L or not side > 0:
        raise ValueError("cell outside the square")
    nodes = intervals + 1
    xs = np.linspace(x0, x0 + side, nodes)
    ys = np.linspace(y0, y0 + side, nodes)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = side / intervals
    grid = _density_raw(xs[:, None], ys[None, :], L)
    return float((h / 3.0) ** 2 * (w[:, None] * w[None, :] * grid).sum())


# ---------------------------------------------------------------------------
# destination law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossMasses:
    """Probability masses of the four cross segments through the origin."""

    south: float
    north: float
    west: float
    east: float

    @property
    def total(self) -> float:
        return self.south + self.north + self.west + self.east


@dataclass(frozen=True)
class DestinationLaw:
    """Mixed destination distribution seen from a stationary origin.

    ``density_*`` are constant per-unit-area densities on the four open
    quadrants cut by the cross through the origin; ``cross`` holds the
    probability masses of the four cross segments.
    """

    origin: Point
    L: float
    density_sw: float
    density_nw: float
    density_ne: float
    density_se: float
    cross: CrossMasses


def destination_law(origin: Point | tuple[float, float], L: float) -> DestinationLaw:
    """Destination law from ``origin``; rejects the four arena corners.

    The denominators vanish exactly when x0(L-x0) + y0(L-y0) = 0, which on
    the closed square happens at the four corners only.
    """
    x0, y0 = origin
    if not (0.0 <= x0 <= L and 0.0 <= y0 <= L):
        raise ValueError(f"origin ({x0}, {y0}) outside the square")
    w = x0 * (L - x0) + y0 * (L - y0)
    if w == 0.0:
        raise ValueError(
            f"origin ({x0}, {y0}) is a corner of the square; "
            "the destination law is degenerate there"
        )
    area_den = 4.0 * L * w
    cross_den = 4.0 * w
    return DestinationLaw(
        origin=Point(float(x0), float(y0)),
        L=L,
        density_sw=(2.0 * L - x0 - y0) / area_den,
        density_nw=(L - x0 + y0) / area_den,
        density_ne=(x0 + y0) / area_den,
        density_se=(L + x0 - y0) / area_den,
        cross=CrossMasses(
            south=y0 * (L - y0) / cross_den,
            north=y0 * (L - y0) / cross_den,
            west=x0 * (L - x0) / cross_den,
            east=x0 * (L - x0) / cross_den,
        ),
    )


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_stationary_positions(
    rng: np.random.Generator, count: int, L: float
) -> np.ndarray:
    """Draw ``count`` i.i.d. positions from the stationary density.

    Rejection sampling with a uniform proposal against the peak density;
    the expected acceptance ratio is 2/3.  Batch sizes are a deterministic
    function of the remaining deficit, so draws are reproducible.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    out = np.empty((count, 2), dtype=float)
    filled = 0
    attempts = 0
    cap = max(REJECTION_CAP, 10 * count)
    fmax = peak_spatial_density(L)
    while filled < count:
        batch = max(64, 2 * (count - filled))
        attempts += batch
        if attempts > cap:
            raise RuntimeError("rejection sampler exceeded its iteration cap")
        cand = rng.random((batch, 2))
        cand *= L
        u = rng.random(batch)
        u *= fmax
        keep = np.flatnonzero(u <= _density_raw(*cand.T, L))[: count - filled]
        out[filled : filled + len(keep)] = np.take(cand, keep, axis=0)
        filled += len(keep)
    return out


# Destination categories, in the fixed order used by the samplers:
# 0..3 cross segments (S, N, W, E), 4..7 quadrants (SW, NW, NE, SE).
CROSS_SOUTH, CROSS_NORTH, CROSS_WEST, CROSS_EAST = 0, 1, 2, 3
QUAD_SW, QUAD_NW, QUAD_NE, QUAD_SE = 4, 5, 6, 7


def _category_masses(x0, y0, L: float):
    """(k, 8) array of category masses for origins (x0, y0) (array-aware)."""
    w = x0 * (L - x0) + y0 * (L - y0)
    cross_den = 4.0 * w
    area_den = 4.0 * L * w
    ns = y0 * (L - y0) / cross_den
    we = x0 * (L - x0) / cross_den
    return np.stack(
        [
            ns,
            ns,
            we,
            we,
            (2.0 * L - x0 - y0) / area_den * x0 * y0,
            (L - x0 + y0) / area_den * x0 * (L - y0),
            (x0 + y0) / area_den * (L - x0) * (L - y0),
            (L + x0 - y0) / area_den * (L - x0) * y0,
        ],
        axis=-1,
    )


def _place_destinations(
    origins: np.ndarray, cats: np.ndarray, u1: np.ndarray, u2: np.ndarray, L: float
) -> np.ndarray:
    """Map category draws plus two uniforms per agent to destination points."""
    x0 = origins[:, 0]
    y0 = origins[:, 1]
    dest = np.empty_like(origins)
    dest[:, 0] = x0
    dest[:, 1] = y0
    sel = cats == CROSS_SOUTH
    dest[sel, 1] = u1[sel] * y0[sel]
    sel = cats == CROSS_NORTH
    dest[sel, 1] = y0[sel] + u1[sel] * (L - y0[sel])
    sel = cats == CROSS_WEST
    dest[sel, 0] = u1[sel] * x0[sel]
    sel = cats == CROSS_EAST
    dest[sel, 0] = x0[sel] + u1[sel] * (L - x0[sel])
    sel = cats == QUAD_SW
    dest[sel, 0] = u1[sel] * x0[sel]
    dest[sel, 1] = u2[sel] * y0[sel]
    sel = cats == QUAD_NW
    dest[sel, 0] = u1[sel] * x0[sel]
    dest[sel, 1] = y0[sel] + u2[sel] * (L - y0[sel])
    sel = cats == QUAD_NE
    dest[sel, 0] = x0[sel] + u1[sel] * (L - x0[sel])
    dest[sel, 1] = y0[sel] + u2[sel] * (L - y0[sel])
    sel = cats == QUAD_SE
    dest[sel, 0] = x0[sel] + u1[sel] * (L - x0[sel])
    dest[sel, 1] = u2[sel] * y0[sel]
    return dest


def sample_destinations(
    origins: np.ndarray, rng: np.random.Generator, L: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised destination draws for a batch of origins.

    Returns ``(destinations, categories)`` where categories are the codes
    above.  Cross destinations are placed uniformly along their segment,
    which is exact (Palm calculus: given a position on the second leg, the
    destination's coordinate along that leg is uniform over the part ahead).
    """
    origins = np.asarray(origins, dtype=float)
    masses = _category_masses(origins[:, 0], origins[:, 1], L)
    cum = np.cumsum(masses, axis=-1)
    cum /= cum[:, -1:]
    u = rng.random(len(origins))
    cats = (u[:, None] > cum).sum(axis=1)
    u1 = rng.random(len(origins))
    u2 = rng.random(len(origins))
    return _place_destinations(origins, cats, u1, u2, L), cats

