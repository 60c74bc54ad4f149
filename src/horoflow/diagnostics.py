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

import math
import random

from horoflow._kernels import bin_cells, boundary_residual
from horoflow._record import FrozenRecord
from horoflow.flows import OrbitSegment, flow_label
from horoflow.groups import word_ball
from horoflow.moebius import (
    BoundaryPoint,
    MoebiusElement,
    boundary_angle,
    canonical_entries,
)
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

DEFAULT_GAMMA_COUNT = 50
DEFAULT_GRID_COUNT = 50


class BinningSpec(FrozenRecord):
    """Uniform grid over a box: one (low, high) range and cell count per axis."""

    _fields = ("ranges", "counts")

    def __init__(self, ranges, counts):
        if not ranges:
            raise ValueError("binning needs at least one axis")
        if len(ranges) != len(counts):
            raise ValueError("%d ranges but %d counts" % (len(ranges), len(counts)))
        for (lo, hi), n in zip(ranges, counts):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi
                    and math.isfinite(hi - lo)):
                raise ValueError("bad range (%r, %r)" % (lo, hi))
            if not isinstance(n, int) or n < 1:
                raise ValueError("cell counts must be positive integers")
        self._store(ranges, counts)

    @property
    def total(self):
        cells = 1
        for n in self.counts:
            cells *= n
        return cells


class DensityReport(FrozenRecord):
    """Grid coverage of one orbit segment, with enough provenance to rerun it."""

    _fields = ("model", "flow", "steps", "seed", "ranges", "bins", "visited",
               "total", "fraction", "samples")

    def __init__(self, model, flow, steps, seed, ranges, bins, visited, total,
                 fraction, samples):
        self._store(model, flow, steps, seed, ranges, bins, visited, total,
                    fraction, samples)


def coverage(orbit, binning, axes=None):
    """Fraction of grid cells visited by the orbit's samples.

    `orbit` is an OrbitSegment or the chunks of a stream
    (flows.orbit_chunks), read once in order; the visited cells carry over
    from chunk to chunk.  The first len(binning.ranges) coordinates of each
    sample are binned unless `axes` picks an explicit coordinate subset.  A
    value v in the closed range [lo, hi] of an axis with n cells falls in
    cell min(int((v - lo) / span * n), n - 1), span = hi - lo; samples
    outside the box, NaN included, are skipped, so the fraction is monotone
    in orbit length.  The kernel backend's bin_cells adds the flat index of
    each segment's samples' cells to one set of visited cells.  Beyond that
    set, the memory it takes does not grow with the orbit: _native.c reads
    the flat sample buffer in place, and the pure backend bins it
    BIN_CHUNK_ROWS rows at a time.
    """
    if binning.total < 1:
        raise ValueError("empty binning")
    k = len(binning.ranges)
    if axes is None:
        axes = tuple(range(k))
    elif len(axes) != k:
        raise ValueError("%d axes for %d binning ranges" % (len(axes), k))
    bins = tuple((a, lo, hi, n)
                 for a, (lo, hi), n in zip(axes, binning.ranges, binning.counts))
    visited = set()
    first = None
    samples = 0
    for segment in (orbit,) if isinstance(orbit, OrbitSegment) else orbit:
        if first is None:
            first = segment
        samples += len(segment)
        bin_cells(segment.values, segment.width, bins, visited)
    total = binning.total
    return DensityReport(
        model=first.model,
        flow=flow_label(first.flow),
        steps=first.steps,
        seed=first.seed,
        ranges=binning.ranges,
        bins=binning.counts,
        visited=len(visited),
        total=total,
        fraction=len(visited) / total,
        samples=samples,
    )


def fiber_variation(orbit, coordinate):
    """Largest distance of one coordinate from its initial value.

    `orbit` is an OrbitSegment or the chunks of a stream
    (flows.orbit_chunks), read once in order.  `coordinate` is an index
    into the sample coordinates, or one of the names the orbit carries in
    coord_names.  Circle-valued coordinates are measured by circular
    distance, everything else by plain distance.
    """
    watch = FiberWatch(coordinate)
    for _ in watch.passing(orbit):
        pass
    return watch.worst


class FiberWatch:
    """fiber_variation measured on chunks as they pass to another reader.

    `passing(orbit)` yields the segments of `orbit`, an OrbitSegment or the
    chunks of a stream, unchanged and in order, measuring each on its way,
    so that a reader such as coverage can take the same single pass.  Once
    they are all read, `worst` is fiber_variation(orbit, coordinate).
    """

    def __init__(self, coordinate):
        self.coordinate = coordinate
        self.worst = 0.0

    def passing(self, orbit):
        index, first, period = self.coordinate, None, None
        for segment in (orbit,) if isinstance(orbit, OrbitSegment) else orbit:
            if isinstance(index, str):
                names = tuple(segment.coord_names)
                if index not in names:
                    raise ValueError("no coordinate %r in %r" % (index, names))
                index = names.index(index)
            if len(segment):
                width = segment.width
                if first is None:
                    if not -width <= index < width:
                        raise IndexError(
                            "no coordinate %d in rows of %d" % (index, width)
                        )
                    first = segment.values[index % width]
                    period = COORD_PERIODS.get(segment.coord_names[index])
                self.worst = _column_gap(
                    segment.values[index % width::width], first, period,
                    self.worst,
                )
            yield segment


def _column_gap(column, first, period, worst):
    """The larger of `worst` and each value's distance from `first`."""
    if period is None:
        for value in column:
            gap = abs(value - first)
            if gap > worst:
                worst = gap
        return worst
    for value in column:
        # the circular gap min(d, period - d)
        d = abs(value - first) % period
        gap = period - d if period - d < d else d
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
        moves = [gamma.m.entries for gamma in gammas]
        grid = [v for b in action_grid for v in b.entries]
        # The pushes are gamma.m.mul(frame) and gamma.m.apply_boundary(xi)
        # on raw floats, with the same bits; one boundary_residual call per
        # on-set point then takes minimal_set_distance(model,
        # (pushed.mul(b), pushed xi)) over the grid.
        worst = 0.0
        for _ in range(sample_count):
            frame = model.base.sample_point(rng).frame
            on_set = model.graph_point(frame)
            fa, fb, fc, fd = on_set.frame.entries
            theta = on_set.transverse.theta
            pushed = []
            for ga, gb, gc, gd in moves:
                pushed += canonical_entries(
                    ga * fa + gb * fc, ga * fb + gb * fd,
                    gc * fa + gd * fc, gc * fb + gd * fd,
                )
                pushed.append(boundary_angle(ga, gb, gc, gd, theta))
            dist = boundary_residual(pushed, grid)
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
