"""Coverage, fiber variation, invariant-set residuals, duality projections."""

import math
import random
import struct
import tracemalloc
from array import array
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horoflow._kernels._pure import BIN_CHUNK_ROWS
from horoflow.diagnostics import (
    BinningSpec,
    DensityReport,
    borel_grid,
    coverage,
    duality_project,
    fiber_variation,
    kset_distance,
    minimal_set_residual,
)
from horoflow.flows import (
    GeodesicD,
    HorocycleU,
    OrbitSegment,
    Sol3U,
    integrate_orbit,
)
from horoflow.groups import BOUNDARY_CIRCLE
from horoflow.models import build_modular, build_octagon, build_product, build_t3a
from horoflow.models.base import QuotientPoint
from horoflow.moebius import BoundaryPoint, MoebiusElement


@pytest.fixture(scope="module")
def t3a():
    return build_t3a(((2, 1), (1, 1)))


@pytest.fixture(scope="module")
def diagonal():
    return build_product(build_octagon(), BOUNDARY_CIRCLE)


def segment_of(coords_list, names=None):
    """A segment of the given rows, with columns c1, c2, ... unless named."""
    if names is None:
        width = len(coords_list[0]) if coords_list else 1
        names = tuple("c%d" % (i + 1) for i in range(width))
    values = array("d", [v for coords in coords_list for v in coords])
    return OrbitSegment("synthetic", HorocycleU(1.0), values, None,
                        max(0, len(coords_list) - 1), names, 1,
                        partial(QuotientPoint, "synthetic"))


# -- binning spec -------------------------------------------------------------


def test_binning_validation():
    with pytest.raises(ValueError):
        BinningSpec((), ())
    with pytest.raises(ValueError):
        BinningSpec(((0.0, 1.0),), (4, 4))
    with pytest.raises(ValueError):
        BinningSpec(((1.0, 0.0),), (4,))
    with pytest.raises(ValueError):
        BinningSpec(((0.0, 1.0),), (0,))
    with pytest.raises(ValueError):
        BinningSpec(((0.0, math.inf),), (4,))
    # hi - lo overflows to inf: every sample would land in cell 0, and one
    # at 1e308 would make the cell NaN
    with pytest.raises(ValueError, match="bad range"):
        BinningSpec(((-1e308, 1e308),), (4,))
    BinningSpec(((-8e307, 8e307),), (4,))


def test_binning_indices():
    spec = BinningSpec(((0.0, 1.0), (-2.0, 2.0)), (4, 8))
    assert spec.total == 32

    def visited(*rows):
        return coverage(segment_of(list(rows)), spec).visited

    assert visited((0.1, -1.9), (0.0, -2.0)) == 1
    # the far corner folds into the last cell instead of falling out
    assert visited((1.0, 2.0), (0.99, 1.99)) == 1
    assert visited((0.1, -1.9), (1.0, 2.0)) == 2
    assert visited((1.01, 0.0), (0.5, -2.5)) == 0


# -- cell boundaries ----------------------------------------------------------


def reference_cell_of(lo, hi, n, v):
    """The cell of one value by the closed-range formula, or None outside."""
    if not lo <= v <= hi:
        return None
    return min(int((v - lo) / (hi - lo) * n), n - 1)


def _ordinal(x):
    """The place of a double in their order, +0.0 and -0.0 both at 0."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return -(bits & ~(1 << 63)) if bits >> 63 else bits


def _double(k):
    return struct.unpack("<d", struct.pack("<Q", -k | 1 << 63 if k < 0 else k))[0]


def cell_boundaries(lo, hi, n):
    """The smallest double of cell k or above, for k = 1 .. n - 1.

    The formula's cell never falls as the value grows, so each boundary is
    bracketed by steps that double away from the guess lo + span * (k / n),
    then bisected in the order of doubles.  The bracket can reach far: near
    0 inside a range with lo < 0, v - lo rounds up to a boundary from up to
    2**62 doubles below it.
    """
    bottom, top = _ordinal(lo), _ordinal(hi)

    def cell(k):
        return reference_cell_of(lo, hi, n, _double(k))

    out = []
    for k in range(1, n):
        # cell(below) < k <= cell(above); cell(bottom) is 0, cell(top) n - 1
        guess = min(max(_ordinal(lo + (hi - lo) * (k / n)), bottom), top)
        below = above = guess
        step = 1
        if cell(guess) >= k:
            while cell(below) >= k:
                above, below = below, max(below - step, bottom)
                step *= 2
        else:
            while cell(above) < k:
                below, above = above, min(above + step, top)
                step *= 2
        while above - below > 1:
            mid = (below + above) // 2
            if cell(mid) >= k:
                above = mid
            else:
                below = mid
        out.append(_double(above))
    return out


SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  -2.2250738585072014e-308, 1e-300, -1e-300, math.inf,
                  -math.inf, math.nan, 1.7976931348623157e308,
                  -1.7976931348623157e308)


def probe_values(lo, hi, n):
    """Each cell boundary and one ulp either side, lo, hi and the special
    values."""
    out = [lo, hi, *SPECIAL_VALUES]
    for e in cell_boundaries(lo, hi, n):
        out += [math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)]
    return out


def tagged_visits(lo, hi, n, groups):
    """The cells coverage visits when each group of values is binned on the
    axis (lo, hi) of n cells beside a tag of its own on a second axis: one
    per group whose values share a cell, none for a group it skips."""
    tags = max(len(groups), 1)
    rows = [(v, i + 0.5) for i, group in enumerate(groups) for v in group]
    spec = BinningSpec(((lo, hi), (0.0, float(tags))), (n, tags))
    return coverage(segment_of(rows), spec).visited


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=5e-324, max_value=1e300)


@st.composite
def axis_ranges(draw):
    kind = draw(st.sampled_from(("finite", "straddle", "tiny")))
    if kind == "finite":
        lo, hi = sorted((draw(finite), draw(finite)))
    elif kind == "straddle":
        lo, hi = -draw(positive), draw(positive)
    else:
        # a span of a few ulps, anywhere from subnormal to huge
        lo = draw(finite)
        hi = lo
        for _ in range(draw(st.integers(1, 40))):
            hi = math.nextafter(hi, math.inf)
    if not (lo < hi and math.isfinite(hi - lo)):
        lo, hi = -1.0, 1.0
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(axis_ranges(),
       st.one_of(st.integers(1, 64), st.integers(65, 3000)))
@example((-1.0, 1.0), 2)  # a boundary at -2**-54, 2**62 doubles below 0.0
@example((0.0, 1.0), 1)
@example((-3.0, 1e-300), 1000)
@example((1e6, 1e6 + 1e-4), 3000)
def test_coverage_bins_each_value_by_the_closed_range_formula(bounds, n):
    """coverage reports how many cells it visits, not which, so it is held
    to the formula's partition of the probes: the same values skipped, and
    neighbours in value order in one cell exactly where the formula puts
    them in one."""
    lo, hi = bounds
    probes = probe_values(lo, hi, n)
    cells = [reference_cell_of(lo, hi, n, v) for v in probes]
    spec = BinningSpec(((lo, hi),), (n,))
    assert (coverage(segment_of([(v,) for v in probes]), spec).visited
            == len(set(cells) - {None}))
    outside = [[v] for v, c in zip(probes, cells) if c is None]
    inside = sorted(v for v, c in zip(probes, cells) if c is not None)
    assert tagged_visits(lo, hi, n, outside) == 0
    assert tagged_visits(lo, hi, n, [[v] for v in inside]) == len(inside)
    same, split = [], []
    for pair in zip(inside, inside[1:]):
        a, b = (reference_cell_of(lo, hi, n, v) for v in pair)
        (same if a == b else split).append(pair)
    assert tagged_visits(lo, hi, n, same) == len(same)
    assert tagged_visits(lo, hi, n, split) == 2 * len(split)


@pytest.mark.parametrize("xcells", [29, 97])
def test_coverage_across_a_chunk_boundary_on_both_binning_paths(xcells):
    # boundary neighbours of a range straddling 0 and of a span of a few
    # ulps, on the rows either side of the first chunk boundary, at a cell
    # count below and one above 32
    ranges = ((-1.0, 0.7), (1e6, math.nextafter(math.nextafter(1e6, 2e6), 2e6)))
    spec = BinningSpec(ranges, (xcells, 5))
    xs = probe_values(-1.0, 0.7, xcells)
    ys = probe_values(*ranges[1], 5)
    rows = [(x, ys[i % len(ys)]) for i, x in enumerate(xs)]
    pad = BIN_CHUNK_ROWS - len(rows) // 2
    seg = segment_of([(2.0, 0.0)] * pad + rows)
    assert pad < BIN_CHUNK_ROWS < len(seg)
    cells = set()
    for x, y in rows:
        cx = reference_cell_of(-1.0, 0.7, xcells, x)
        cy = reference_cell_of(*ranges[1], 5, y)
        if cx is not None and cy is not None:
            cells.add((cx, cy))
    assert len(cells) > xcells
    assert coverage(seg, spec).visited == len(cells)


def test_coverage_of_many_cells_holds_no_edge_list():
    """An axis of a million cells costs coverage nothing per cell: a list of
    its cell boundaries would hold a float and a list slot per cell, about
    31 MiB."""
    n = 10**6
    rows = [(0.0,), (1.0,), (0.5,), (math.nextafter(0.5, 0.0),), (2.0,),
            (math.nan,), (1e-300,)]
    seg = segment_of(rows)
    spec = BinningSpec(((0.0, 1.0),), (n,))
    coverage(seg, spec)  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = coverage(seg, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    expected = {reference_cell_of(0.0, 1.0, n, x) for (x,) in rows} - {None}
    assert report.visited == len(expected) == 4
    assert peak < 64 * 1024


# -- coverage -----------------------------------------------------------------


def test_coverage_empty_orbit_is_zero():
    report = coverage(segment_of([]), BinningSpec(((0.0, 1.0),), (5,)))
    assert report.fraction == 0.0
    assert report.visited == 0
    assert report.samples == 0


def test_coverage_full_grid_is_one():
    spec = BinningSpec(((0.0, 1.0), (0.0, 1.0)), (4, 4))
    centers = [
        ((i + 0.5) / 4, (j + 0.5) / 4) for i in range(4) for j in range(4)
    ]
    report = coverage(segment_of(centers), spec)
    assert report.fraction == 1.0
    assert report.visited == report.total == 16


def test_coverage_skips_out_of_box_samples():
    spec = BinningSpec(((0.0, 1.0),), (2,))
    report = coverage(segment_of([(0.25,), (7.0,), (-3.0,)]), spec)
    assert report.visited == 1
    assert report.fraction == 0.5


def test_coverage_monotone_in_prefix(t3a):
    seg = integrate_orbit(t3a, None, Sol3U(0.037), 20_000, seed=8)
    spec = BinningSpec(((0.0, 1.0), (0.0, 1.0)), (30, 30))
    prefix = OrbitSegment(seg.model, seg.flow, seg.values[:4000 * seg.width],
                          seg.seed, 4000, seg.coord_names, 1,
                          partial(QuotientPoint, seg.model))
    assert coverage(prefix, spec).fraction <= coverage(seg, spec).fraction


def test_coverage_torus_fiber_dense(t3a):
    # irrational-slope winding: 1e5 unipotent steps fill the 50x50 torus grid
    seg = integrate_orbit(t3a, None, Sol3U(0.037), 100_000, seed=5)
    report = coverage(seg, BinningSpec(((0.0, 1.0), (0.0, 1.0)), (50, 50)))
    assert report.fraction >= 0.99
    assert report.model == "t3a"
    assert report.bins == (50, 50)


def test_coverage_axis_validation(t3a):
    seg = integrate_orbit(t3a, None, Sol3U(0.1), 10, seed=1)
    spec = BinningSpec(((0.0, 1.0),) * 4, (2, 2, 2, 2))
    with pytest.raises(ValueError):
        coverage(seg, spec)
    with pytest.raises(ValueError):
        coverage(seg, BinningSpec(((0.0, 1.0),), (2,)), axes=(0, 1))


def test_coverage_explicit_axes(t3a):
    seg = integrate_orbit(t3a, None, GeodesicD(0.01), 2000, seed=2)
    t_only = coverage(seg, BinningSpec(((0.0, 1.0),), (10,)), axes=(2,))
    assert t_only.fraction == 1.0  # geodesic time sweeps the suspension circle


# -- fiber variation ----------------------------------------------------------


def test_fiber_variation_unipotent_keeps_t(t3a):
    seg = integrate_orbit(t3a, None, Sol3U(0.037), 5000, seed=3)
    assert fiber_variation(seg, "t") == 0.0
    assert fiber_variation(seg, 2) == 0.0
    assert fiber_variation(seg, "x") > 0.3


def test_fiber_variation_geodesic_moves_t(t3a):
    seg = integrate_orbit(t3a, None, GeodesicD(0.01), 1000, seed=3)
    assert fiber_variation(seg, "t") > 0.1


def test_fiber_variation_constant_orbit():
    seg = segment_of([(0.3, 0.7)] * 5, names=("x", "y"))
    assert fiber_variation(seg, 0) == 0.0
    assert fiber_variation(seg, "y") == 0.0


def test_fiber_variation_wraps_circular_coordinates():
    seg = segment_of([(0.0, 0.0, 0.95), (0.0, 0.0, 0.05)], names=("x", "y", "t"))
    assert fiber_variation(seg, "t") == pytest.approx(0.1)
    plain = segment_of([(0.95,), (0.05,)], names=("fibre",))
    assert fiber_variation(plain, "fibre") == pytest.approx(0.9)


def test_fiber_variation_bad_coordinate():
    seg = segment_of([(0.0,)], names=("x",))
    with pytest.raises(ValueError):
        fiber_variation(seg, "q")
    with pytest.raises(IndexError):
        fiber_variation(seg, 5)
    # a stride past the row width would read the next rows' coordinates
    wide = segment_of([(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)], names=("a", "b"))
    with pytest.raises(IndexError):
        fiber_variation(wide, 2)
    assert fiber_variation(wide, -1) == fiber_variation(wide, 1) == 4.0


# -- minimal set residual -----------------------------------------------------


def test_borel_grid_shape():
    grid = borel_grid(50)
    assert len(grid) == 50
    keys = {g.key() for g in grid}  # distinct on the KEY_QUANTUM grid
    assert len(keys) == 50
    for g in grid:
        a, b, c, d = g.entries
        assert abs(c) < 1e-15  # upper triangular
    with pytest.raises(ValueError):
        borel_grid(0)


def test_graph_set_survives_identity_moves(diagonal):
    residual = minimal_set_residual(
        diagonal, 10, 0, (MoebiusElement.identity(),), seed=4
    )
    # identity boundary action still runs the half-angle fold, so the
    # residual is the tan/atan round trip error, not literally zero
    assert residual <= 1e-15


def test_graph_set_invariance(diagonal):
    residual = minimal_set_residual(diagonal, 25, 2, borel_grid(12), seed=4)
    assert residual <= 1e-8


def test_infinity_set_invariance(t3a):
    residual = minimal_set_residual(t3a, 40, 3, seed=4)
    assert residual <= 1e-8


def test_residual_needs_supported_model():
    with pytest.raises(ValueError):
        minimal_set_residual(build_modular(), 5, 1)


# -- duality projections ------------------------------------------------------


def test_duality_of_identity():
    v, y = duality_project(MoebiusElement.identity(), "U")
    assert v == (1.0, 0.0)
    assert y is None
    xi, _ = duality_project(MoebiusElement.identity(), "B")
    assert xi.is_infinity()


def test_duality_of_integer_frame():
    f = MoebiusElement(2.0, 1.0, 1.0, 1.0)
    assert duality_project(f, "U")[0] == (2.0, 1.0)
    xi, _ = duality_project(f, "B")
    assert abs(xi.value - 2.0) < 1e-12


def test_duality_rejects_unknown_subgroup():
    with pytest.raises(ValueError):
        duality_project(MoebiusElement.identity(), "D")


def test_duality_right_invariance():
    rng = random.Random(7)
    for _ in range(40):
        f = (
            MoebiusElement.u(rng.uniform(-2, 2))
            .mul(MoebiusElement.geo(math.exp(rng.uniform(-1, 1))))
            .mul(MoebiusElement.rot(rng.uniform(-2, 2)))
        )
        v0, _ = duality_project(f, "U")
        xi0, _ = duality_project(f, "B")
        for t in (-1.5, -0.2, 0.4, 2.0):
            v, _ = duality_project(f.mul(MoebiusElement.u(t)), "U")
            assert math.hypot(v[0] - v0[0], v[1] - v0[1]) < 1e-9
        for alpha in (0.3, 1.0, 2.7):
            for beta in (-1.0, 0.0, 1.3):
                moved = f.mul(MoebiusElement.b_el(alpha, beta))
                xi, _ = duality_project(moved, "B")
                assert xi.chordal(xi0) < 1e-9


def test_duality_transverse_rides_along(diagonal):
    point = diagonal.graph_point(MoebiusElement.geo(1.5))
    v, y = duality_project(point, "U")
    assert y is point.transverse
    xi, y2 = duality_project((point.frame, point.transverse), "B")
    assert y2 is point.transverse
    assert xi.chordal(point.transverse) < 1e-12


# -- graph set in dual coordinates --------------------------------------------


def test_kset_frozen_values():
    f = MoebiusElement(2.0, 1.0, 1.0, 1.0)
    assert kset_distance((f, 2.0)) < 1e-15
    assert kset_distance((MoebiusElement.identity(), BoundaryPoint.infinity())) == 0.0
    # first column (0, 1) against xi = 0: collinear with (0, 1), distance 0
    quarter_turn = MoebiusElement(0.0, -1.0, 1.0, 0.0)
    assert kset_distance((quarter_turn, 0.0)) == 0.0
    # the perpendicular pairing: column (1, 0) against the vector (0, 1)
    assert kset_distance(((1.0, 0.0), 0.0)) == 1.0


def test_kset_range():
    rng = random.Random(12)
    for _ in range(200):
        v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        if math.hypot(*v) < 1e-3:
            continue
        d = kset_distance((v, rng.uniform(-5, 5)))
        assert 0.0 <= d <= 1.0 + 1e-12


def test_kset_vanishes_along_unipotent_orbit(diagonal):
    # a graph point has first column collinear with (xi, 1); the right
    # unipotent action preserves both the column and xi up to holonomy
    start = diagonal.graph_point(
        MoebiusElement.geo(1.2).mul(MoebiusElement.u(0.7))
    )
    seg = integrate_orbit(diagonal, start, HorocycleU(0.05), 1000, sample_every=10)
    for _, point in seg.samples:
        assert kset_distance(point) <= 1e-8


def test_density_report_is_plain_data(t3a):
    seg = integrate_orbit(t3a, None, Sol3U(0.05), 50, seed=2)
    report = coverage(seg, BinningSpec(((0.0, 1.0), (0.0, 1.0)), (5, 5)))
    assert isinstance(report, DensityReport)
    assert report.flow == "Sol3U(0.05)"
    assert report.seed == 2
    assert 0.0 <= report.fraction <= 1.0
    assert report.visited <= report.total
