"""Quantitative orbit certificates.

Four kinds of evidence about an orbit or an invariant set, all finite-time
stand-ins for asymptotic statements:

* `coverage` bins orbit samples into a grid and reports the fraction of
  cells visited, the desk-scale proxy for density of an orbit.
* `fiber_variation` measures how far a single coordinate strays from its
  initial value, certifying that a flow stays inside one fibre.
* `minimal_set_residual` pushes points of a distinguished invariant set
  around by group elements and upper triangular steps and reports the worst
  distance back to the set.
* `duality_project` and `kset_distance` translate frames into the two dual
  coordinate systems (boundary circle for the triangular subgroup, punctured
  plane for the unipotent one) where invariant sets become graphs.

Coverage marks the cell containing each sample; nothing is interpolated
between samples.  Circle-valued coordinates are binned by their angle, so
the point at infinity of the boundary circle sits in an ordinary cell.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from horoflow.flows import OrbitSegment, flow_label
from horoflow.groups import word_ball
from horoflow.moebius import BoundaryPoint, MoebiusElement, canonical_entries
from horoflow.models.base import QuotientPoint
from horoflow.models.product import ProductModel, minimal_set_distance
from horoflow.models.t3a import TorusBundleModel

_TAU = 2.0 * math.pi

# Periods of the circle-valued canonical coordinates, keyed by the name the
# models publish.  Torus coordinates wrap at 1, angles at 2*pi; everything
# else (half-plane position, affine fibre, colatitude) is a line segment.
COORD_PERIODS = {
    "x": 1.0,
    "y": 1.0,
    "t": 1.0,
    "direction": _TAU,
    "xi_theta": _TAU,
    "pole_azimuth": _TAU,
}

# Rows coverage bins per pass: its column lists hold this many rows at once.
BIN_CHUNK_ROWS = 4096

DEFAULT_GAMMA_COUNT = 50
DEFAULT_GRID_COUNT = 50


@dataclass(frozen=True)
class BinningSpec:
    """Uniform grid over a box: one (low, high) range and cell count per axis."""

    ranges: tuple
    counts: tuple

    def __post_init__(self):
        if not self.ranges:
            raise ValueError("binning needs at least one axis")
        if len(self.ranges) != len(self.counts):
            raise ValueError(
                "%d ranges but %d counts" % (len(self.ranges), len(self.counts))
            )
        for (lo, hi), n in zip(self.ranges, self.counts):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("bad range (%r, %r)" % (lo, hi))
            if not isinstance(n, int) or n < 1:
                raise ValueError("cell counts must be positive integers")

    @property
    def total(self):
        cells = 1
        for n in self.counts:
            cells *= n
        return cells

    def indices(self, values):
        """Cell index tuple for one value per axis, or None if out of the box.

        Values on the closed upper edge are folded into the last cell so the
        box is closed, not half-open, at its far corner.
        """
        out = []
        for value, (lo, hi), n in zip(values, self.ranges, self.counts):
            if not lo <= value <= hi:
                return None
            k = int((value - lo) / (hi - lo) * n)
            out.append(min(k, n - 1))
        return tuple(out)


@dataclass(frozen=True)
class DensityReport:
    """Grid coverage of one orbit segment, with enough provenance to rerun it."""

    model: str
    flow: str
    steps: int
    seed: object
    ranges: tuple
    bins: tuple
    visited: int
    total: int
    fraction: float
    samples: int


def coverage(orbit, binning, axes=None):
    """Fraction of grid cells visited by the orbit's samples.

    The first len(binning.ranges) coordinates of each sample are binned
    unless `axes` picks an explicit coordinate subset.  Samples outside the
    box are skipped, so the fraction is monotone in orbit length.  The flat
    sample buffer is binned column by column, BIN_CHUNK_ROWS rows at a
    time, so the memory it takes beyond the visited cells does not grow
    with the orbit.
    """
    if binning.total < 1:
        raise ValueError("empty binning")
    k = len(binning.ranges)
    if axes is None:
        axes = tuple(range(k))
    elif len(axes) != k:
        raise ValueError("%d axes for %d binning ranges" % (len(axes), k))
    top = max(axes)
    if len(orbit) and top >= orbit.width:
        raise ValueError(
            "sample has %d coordinates, axes need %d" % (orbit.width, top + 1)
        )
    # BinningSpec.indices by column, over BIN_CHUNK_ROWS rows at a time:
    # the same closed box test and cell arithmetic, None for a row outside
    # the box on that axis.  Only the distinct index tuples are kept; they
    # are clamped to the closed upper edge and flattened at the end.
    bins = [
        (a, lo, hi, hi - lo, n)
        for a, (lo, hi), n in zip(axes, binning.ranges, binning.counts)
    ]
    values, w = orbit.values, orbit.width
    keys = set()
    for first in range(0, len(orbit), BIN_CHUNK_ROWS):
        chunk = values[first * w:(first + BIN_CHUNK_ROWS) * w]
        cols = [
            [int((v - lo) / span * n) if lo <= v <= hi else None
             for v in chunk[a::w]]
            for a, lo, hi, span, n in bins
        ]
        keys.update(zip(*cols))
    visited = set()
    for key in keys:
        if None in key:
            continue
        cell = 0
        for k, n in zip(key, binning.counts):
            cell = cell * n + (k if k < n else n - 1)
        visited.add(cell)
    total = binning.total
    return DensityReport(
        model=orbit.model,
        flow=flow_label(orbit.flow),
        steps=orbit.steps,
        seed=orbit.seed,
        ranges=binning.ranges,
        bins=binning.counts,
        visited=len(visited),
        total=total,
        fraction=len(visited) / total,
        samples=len(orbit),
    )


def _circle_gap(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


def fiber_variation(orbit, coordinate):
    """Largest distance of one coordinate from its initial value.

    `coordinate` is an index into the sample coordinates, or one of the
    names the orbit carries in coord_names.  Circle-valued coordinates are
    measured by circular distance, everything else by plain distance.
    """
    names = tuple(orbit.coord_names)
    if isinstance(coordinate, str):
        if coordinate not in names:
            raise ValueError(
                "no coordinate %r in %r" % (coordinate, names)
            )
        index = names.index(coordinate)
    else:
        index = coordinate
    if not len(orbit):
        return 0.0
    width = orbit.width
    if not -width <= index < width:
        raise IndexError("no coordinate %d in rows of %d" % (index, width))
    column = orbit.values[index % width::width]
    first = column[0]
    period = COORD_PERIODS.get(names[index])
    worst = 0.0
    for value in column:
        if period is None:
            gap = abs(value - first)
        else:
            gap = _circle_gap(value, first, period)
        if gap > worst:
            worst = gap
    return worst


def borel_grid(count, log_alpha_span=(-0.7, 0.7), beta_span=(-1.0, 1.0)):
    """Deterministic grid of upper triangular elements b_el(alpha, beta).

    Dilations log-spaced, shears linear, row-major, truncated to `count`.
    """
    if count < 1:
        raise ValueError("grid needs at least one element")
    rows = max(1, math.isqrt(count))
    cols = (count + rows - 1) // rows
    out = []
    for i in range(rows):
        s = i / max(1, rows - 1) if rows > 1 else 0.5
        alpha = math.exp(log_alpha_span[0] + s * (log_alpha_span[1] - log_alpha_span[0]))
        for j in range(cols):
            u = j / max(1, cols - 1) if cols > 1 else 0.5
            beta = beta_span[0] + u * (beta_span[1] - beta_span[0])
            out.append(MoebiusElement.b_el(alpha, beta))
            if len(out) == count:
                return tuple(out)
    return tuple(out)


def _sample_gammas(ball, count, rng):
    elements = [pe for _, pe in ball.elements]
    if len(elements) <= count:
        return elements
    picks = rng.sample(range(len(elements)), count)
    return [elements[i] for i in sorted(picks)]


def minimal_set_residual(model, sample_count, group_radius, action_grid=None,
                         seed=0, gamma_count=DEFAULT_GAMMA_COUNT):
    """Worst distance from the invariant set after moving points off it.

    Points are sampled on the model's distinguished minimal set, pushed by
    random group elements from the word ball of the given radius and by the
    upper triangular grid, and measured with minimal_set_distance.  A small
    residual certifies the set's invariance at working precision.

    For the torus bundle the dual coordinates already quotient out the
    triangular direction (right triangular steps fix every dual pair), so
    the grid plays no role there and only the holonomy ball moves points.
    """
    rng = random.Random(seed)
    if action_grid is None:
        action_grid = borel_grid(DEFAULT_GRID_COUNT)
    if isinstance(model, TorusBundleModel):
        ball = word_ball(model.dual_group(), group_radius)
        gammas = _sample_gammas(ball, gamma_count, rng)
        infinity = BoundaryPoint.infinity()
        worst = 0.0
        for _ in range(sample_count):
            pair = (infinity, rng.uniform(-2.0, 2.0))
            for gamma in gammas:
                moved = gamma.apply_pair(pair)
                worst = max(worst, minimal_set_distance(model, moved))
        return worst
    if isinstance(model, ProductModel) and model.diagonal():
        gammas = _sample_gammas(
            word_ball(model.base.group(), group_radius), gamma_count, rng
        )
        grid = [b.entries for b in action_grid]
        # The loop is minimal_set_distance(model, (pushed.mul(b), xi)) on raw
        # floats, with the same bits: the canonical entries of pushed * b,
        # boundary_angle(a, b, c, d, pi) written out (sin(pi/2) is exactly
        # 1.0; cos(pi/2) is 6.1e-17, not 0, and stays) and the chordal
        # distance to xi.
        q_inf = math.cos(0.5 * math.pi)
        half_pi = 0.5 * math.pi
        atan2, sin = math.atan2, math.sin
        worst = 0.0
        for _ in range(sample_count):
            frame = model.base.sample_point(rng).frame
            on_set = model.graph_point(frame)
            for gamma in gammas:
                pa, pb, pc, pd = gamma.m.mul(on_set.frame).entries
                theta = gamma.m.apply_boundary(on_set.transverse).theta
                for ba, bb, bc, bd in grid:
                    a, b, c, d = canonical_entries(
                        pa * ba + pb * bc, pa * bb + pb * bd,
                        pc * ba + pd * bc, pc * bb + pd * bd,
                    )
                    phi = atan2(a + b * q_inf, c + d * q_inf)
                    if phi <= -half_pi:
                        phi += math.pi
                    elif phi > half_pi:
                        phi -= math.pi
                    dist = abs(2.0 * sin(0.5 * (theta - 2.0 * phi)))
                    if dist > worst:
                        worst = dist
        return worst
    raise ValueError("no distinguished minimal set wired up for this model")


def _frame_and_transverse(x):
    if isinstance(x, QuotientPoint):
        return x.frame, x.transverse
    if isinstance(x, MoebiusElement):
        return x, None
    frame, y = x
    return frame, y


def duality_project(x, subgroup):
    """Quotient a frame by the right action of one structure subgroup.

    "B" sends the frame to its boundary image of infinity (the triangular
    subgroup is the stabiliser of infinity); "U" sends it to its first
    column in the punctured plane (the unipotent subgroup stabilises that
    vector).  The transverse part rides along unchanged, so invariant sets
    of the right action become subsets of (dual coordinate, transverse)
    pairs.
    """
    frame, y = _frame_and_transverse(x)
    if subgroup == "B":
        return frame.boundary_image_of_infinity(), y
    if subgroup == "U":
        a, b, c, d = frame.entries
        return (a, c), y
    raise ValueError("subgroup must be 'U' or 'B', not %r" % (subgroup,))


def _as_boundary(xi):
    if isinstance(xi, BoundaryPoint):
        return xi
    if isinstance(xi, (int, float)):
        if math.isinf(xi):
            return BoundaryPoint.infinity()
        return BoundaryPoint.from_real(xi)
    raise TypeError("expected a boundary point, got %r" % (xi,))


def kset_distance(x):
    """Sine of the angle between the plane-dual vector and its graph partner.

    `x` pairs a frame (or directly a plane vector) with a boundary point.
    The boundary point xi is matched with the vector (xi, 1), or (1, 0) at
    infinity; the value is zero exactly when the frame's first column is
    collinear with that vector, which characterises the graph set relating
    the two dual pictures.
    """
    left, xi = x if not isinstance(x, QuotientPoint) else (x.frame, x.transverse)
    if isinstance(left, MoebiusElement):
        v, _ = duality_project(left, "U")
    else:
        v = left
    xi = _as_boundary(xi)
    if xi.is_infinity():
        w = (1.0, 0.0)
    else:
        w = (xi.value, 1.0)
    cross = abs(v[0] * w[1] - v[1] * w[0])
    return cross / (math.hypot(*v) * math.hypot(*w))
