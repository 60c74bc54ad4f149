"""Row-based orbit segments against the per-sample loops they replaced.

Orbit segments keep the kernels' coordinate rows in one flat array and
build sample points only when `samples` is read; coverage, fiber variation
and the CSV writer read the rows.  The reference functions below are the per-sample loops the
library ran before, kept here so that every result can be compared exactly.
"""

import math
import random
import tracemalloc
from array import array
from functools import partial

import pytest

from horoflow import _kernels, cli, divergence, flows
from horoflow._kernels import _pure
from horoflow.diagnostics import (
    COORD_PERIODS,
    BinningSpec,
    borel_grid,
    coverage,
    fiber_variation,
    minimal_set_residual,
)
from horoflow.flows import (
    MAX_SAMPLES,
    BorelB,
    DualBoundaryIterate,
    GeodesicD,
    HorocycleU,
    OrbitSegment,
    Sol3U,
    flow_label,
    flow_time_step,
    integrate_orbit,
)
from horoflow.groups import BOUNDARY_CIRCLE, GeneratedGroup, word_ball
from horoflow.models import ProductModel, TorusBundleModel, build_model
from horoflow.models.base import QuotientPoint
from horoflow.models.product import minimal_set_distance
from horoflow.moebius import (
    BoundaryPoint,
    HalfPlanePoint,
    MoebiusElement,
    TangentFrame,
    tangent_to_frame,
)
from horoflow.orbitio import orbit_csv_text

_TAU = 2.0 * math.pi

# Each model with the flow its benchmark workload runs, plus the dual
# boundary iteration; together they cover all three kernels and the three
# transverse kinds.
CASES = (
    ("octagon", HorocycleU(0.11)),
    ("octagon_boundary", BorelB(0.01, 0.01)),
    ("octagon_so3", GeodesicD(0.01)),
    ("modular", HorocycleU(0.01)),
    ("t3a", Sol3U(0.037)),
    ("t3a", DualBoundaryIterate()),
)
STEPS = 900
SAMPLE_EVERY = 3
SEED = 5


def _ranges(model, flow):
    if isinstance(flow, DualBoundaryIterate):
        return ((-math.pi, math.pi), (-2.0, 2.0))
    if isinstance(model, TorusBundleModel):
        return ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    box = model.coverage_box()
    return (box[0], box[1], (0.0, _TAU))


@pytest.fixture(scope="module", params=CASES, ids=lambda c: c[0] + "-" + flow_label(c[1]))
def case(request):
    name, flow = request.param
    model = build_model(name)
    seg = integrate_orbit(model, None, flow, STEPS, seed=SEED,
                          sample_every=SAMPLE_EVERY)
    return model, flow, seg


# -- the per-sample loops -----------------------------------------------------


def reference_csv_text(segment):
    names = tuple(segment.coord_names)
    if segment.samples:
        width = len(segment.samples[0][1].coords)
    else:
        width = len(names)
    lines = [
        "# model = %s" % segment.model,
        "# flow = %s" % flow_label(segment.flow),
        "# seed = %s" % segment.seed,
        "# steps = %d" % segment.steps,
    ]
    for i in range(min(width, len(names))):
        lines.append("# c%d = %s" % (i + 1, names[i]))
    lines.append("time," + ",".join("c%d" % (i + 1) for i in range(width)))
    for time, point in segment.samples:
        cells = ["%.17g" % time]
        cells.extend("%.17g" % value for value in point.coords)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_cell(binning, values):
    """Cell index tuple for one value per axis, or None if out of the box.

    Values on the closed upper edge are folded into the last cell so the
    box is closed, not half-open, at its far corner.
    """
    out = []
    for value, (lo, hi), n in zip(values, binning.ranges, binning.counts):
        if not lo <= value <= hi:
            return None
        k = int((value - lo) / (hi - lo) * n)
        out.append(min(k, n - 1))
    return tuple(out)


def reference_visited(segment, binning, axes):
    visited = set()
    for _, point in segment.samples:
        cell = reference_cell(binning, [point.coords[a] for a in axes])
        if cell is not None:
            visited.add(cell)
    return len(visited)


def reference_fiber_variation(segment, index):
    first = segment.samples[0][1].coords[index]
    names = segment.coord_names
    period = COORD_PERIODS.get(names[index] if index < len(names) else None)
    worst = 0.0
    for _, point in segment.samples:
        value = point.coords[index]
        if period is None:
            gap = abs(value - first)
        else:
            d = abs(value - first) % period
            gap = min(d, period - d)
        worst = max(worst, gap)
    return worst


def reference_samples(model, flow, steps, seed, sample_every):
    """Integrate through the kernels and build every sample point eagerly."""
    rng = random.Random(seed)
    dt = flow_time_step(flow)
    if isinstance(flow, DualBoundaryIterate):
        xi = BoundaryPoint(rng.uniform(-math.pi, math.pi))
        y_prime = rng.uniform(-1.0, 1.0)
        scale = MoebiusElement.geo(math.sqrt(model.lam))
        samples = [(0.0, QuotientPoint("t3a_dual", (xi.theta, y_prime)))]
        for n in range(1, steps + 1):
            xi = scale.apply_boundary(xi)
            y_prime /= model.lam
            if n % sample_every == 0:
                samples.append(
                    (float(n), QuotientPoint("t3a_dual", (xi.theta, y_prime)))
                )
        return samples
    start = model.sample_point(rng)
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        for kernel in ("surface_orbit", "modular_orbit", "t3a_orbit"):
            def record(*args, real=getattr(_kernels, kernel)):
                result = real(*args)
                captured.append(result[0])
                return result

            mp.setattr(_kernels, kernel, record)
        integrate_orbit(model, start, flow, steps, seed=seed,
                        sample_every=sample_every)
    # reductions run the kernels too, one identity step each; the orbit
    # comes last, its samples after the start row
    width = len(model.coord_names())
    raw = list(zip(*[iter(captured[-1][width:])] * width))
    if isinstance(model, TorusBundleModel):
        start_point = model.reduce(start.coords)
        return [(0.0, start_point)] + [
            (dt * sample_every * j, QuotientPoint(model.name, coords))
            for j, coords in enumerate(raw, start=1)
        ]
    if isinstance(model, ProductModel):
        frame, trans = model.reduce_state(start.frame, start.transverse)
        start_point = model.point_from_state(frame, trans)
        boundary = model.space is BOUNDARY_CIRCLE
    else:
        frame = model.reduce_frame(start.frame)
        start_point = model.point_from_frame(frame)
        boundary = False
    samples = [(0.0, start_point)]
    for j, coords in enumerate(raw, start=1):
        transverse = BoundaryPoint(coords[3]) if boundary else None
        frame = tangent_to_frame(
            TangentFrame(HalfPlanePoint(coords[0], coords[1]), coords[2])
        )
        samples.append((
            dt * sample_every * j,
            QuotientPoint(model.name, tuple(coords), frame=frame,
                          transverse=transverse),
        ))
    return samples


def _transverse_value(t):
    return t.theta if isinstance(t, BoundaryPoint) else t


# -- comparisons --------------------------------------------------------------


def test_csv_text_matches_per_cell_formatting(case):
    _, _, seg = case
    assert orbit_csv_text(seg) == reference_csv_text(seg)


def test_coverage_matches_binning_indices(case):
    model, flow, seg = case
    ranges = _ranges(model, flow)
    spec = BinningSpec(ranges, (10, 9, 8)[:len(ranges)])
    picks = (None, (1, 0)) if len(ranges) == 2 else (None, (2, 0))
    for axes in picks:
        used = axes or tuple(range(len(ranges)))
        binning = spec if axes is None else BinningSpec(
            tuple(ranges[a] for a in axes), tuple(spec.counts[a] for a in axes)
        )
        report = coverage(seg, binning, axes=axes)
        expected = reference_visited(seg, binning, used)
        assert expected > 1
        assert report.visited == expected
        assert report.fraction == expected / binning.total
        assert report.samples == len(seg.samples) == STEPS // SAMPLE_EVERY + 1


def test_coverage_matches_binning_indices_on_the_box_edges():
    spec = BinningSpec(((0.0, 1.0), (-2.0, 2.0)), (4, 8))
    rows = [(0.0, -2.0), (1.0, 2.0), (1.0, -2.0), (0.999, 1.999), (0.25, 2.0),
            (1.0000001, 0.0), (0.5, math.nan), (math.inf, 0.0), (-1e-300, 0.0)]
    values = array("d", [v for row in rows for v in row])
    seg = OrbitSegment("edges", HorocycleU(1.0), values, None, len(rows) - 1,
                       ("x", "y"), 1, partial(QuotientPoint, "edges"))
    for axes in ((0, 1), (1, 0)):
        binning = spec if axes == (0, 1) else BinningSpec(spec.ranges[::-1],
                                                         spec.counts[::-1])
        expected = reference_visited(seg, binning, axes)
        assert expected == 4
        assert coverage(seg, binning, axes=axes).visited == expected


def test_coverage_matches_binning_indices_across_chunks():
    """Rows spanning several binning chunks, each chunk in its own band of
    the first axis so that every chunk has cells of its own, with
    out-of-box, NaN and upper-edge rows on both sides of a chunk
    boundary."""
    chunk = _pure.BIN_CHUNK_ROWS
    rng = random.Random(11)
    rows = [((first // chunk) / 4.0 + rng.uniform(0.0, 0.25),
             rng.uniform(-0.1, 2.1), rng.uniform(0.0, 1.0))
            for first in range(3 * chunk + 17)]
    edge = [(0.5, math.nan, 0.5), (-0.01, 1.0, 0.5), (1.0, 2.0, 1.0),
            (math.nan, 1.0, 0.5), (0.3, 2.0000001, 0.5), (1.0, 0.0, 0.0)]
    rows[chunk - 3:chunk + 3] = edge
    values = array("d", [v for row in rows for v in row])
    seg = OrbitSegment("chunks", HorocycleU(1.0), values, None, len(rows) - 1,
                       ("x", "y", "z"), 1, partial(QuotientPoint, "chunks"))
    spec = BinningSpec(((0.0, 1.0), (0.0, 2.0), (0.0, 1.0)), (16, 5, 3))
    for axes in ((0, 1, 2), (2, 0, 1)):
        binning = BinningSpec(tuple(spec.ranges[a] for a in axes),
                              tuple(spec.counts[a] for a in axes))
        expected = reference_visited(seg, binning, axes)
        assert expected > 150
        assert coverage(seg, binning, axes=axes).visited == expected


def test_coverage_holds_one_chunk_not_the_columns():
    """Binning keeps O(BIN_CHUNK_ROWS) memory, not O(rows): whole-orbit
    column lists of 64 chunks would hold 8 B per row per axis, 4 MiB here."""
    chunk = _pure.BIN_CHUNK_ROWS
    rows = 64 * chunk
    values = array("d", [0.1, 0.6, 0.35, 0.85]) * (rows // 2)
    seg = OrbitSegment("wide", HorocycleU(1.0), values, None, rows - 1,
                       ("x", "y"), 1, None)
    spec = BinningSpec(((0.0, 1.0), (0.0, 1.0)), (4, 4))
    coverage(seg, spec)  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = coverage(seg, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.visited == 2
    # a chunk's slice, its column slices and its column lists, twice over
    # while the next chunk replaces the last: about 28 B per coordinate
    assert peak < 2 * 32 * 2 * chunk


def test_fiber_variation_matches_per_sample_loop(case):
    # every case has linear (re, im or x, y) and circular coordinates
    _, _, seg = case
    for index in range(seg.width):
        assert repr(fiber_variation(seg, index)) == repr(
            reference_fiber_variation(seg, index))


def test_lazy_samples_match_eager_construction(case):
    model, flow, _ = case
    seg = integrate_orbit(model, None, flow, STEPS, seed=SEED,
                          sample_every=SAMPLE_EVERY)
    expected = reference_samples(model, flow, STEPS, SEED, SAMPLE_EVERY)
    assert len(seg) == len(expected)
    assert seg.samples is seg.samples  # built once, on first access
    for (t, p), (et, ep) in zip(seg.samples, expected):
        assert repr(t) == repr(et)
        assert p.model == ep.model
        assert p.coords == ep.coords
        if ep.frame is None:
            assert p.frame is None
        else:
            assert p.frame.entries == ep.frame.entries
        assert _transverse_value(p.transverse) == _transverse_value(ep.transverse)
    assert list(seg.times()) == [t for t, _ in expected]
    assert list(seg.rows()) == [p.coords for _, p in expected]


def test_row_segment_times_and_order():
    point = partial(QuotientPoint, "line")
    rows = [(0.0,), (1.0,), (2.0,), (3.0,)]
    values = array("d", [0.0, 1.0, 2.0, 3.0])
    seg = OrbitSegment("line", HorocycleU(0.5), values, None, 3, ("x",), 1, point)
    assert [t for t, _ in seg.samples] == [0.0, 0.5, 1.0, 1.5]
    assert [p.coords for _, p in seg.samples] == rows
    # times that overflow to inf repeat, which a segment rejects
    with pytest.raises(ValueError, match="increase strictly"):
        OrbitSegment("line", HorocycleU(1e308), values, None, 3, ("x",), 1, point)
    single = OrbitSegment("line", HorocycleU(1e308), values[:2], None, 2, ("x",),
                          2, point)
    assert [t for t, _ in single.samples] == [0.0, math.inf]


# -- memory -------------------------------------------------------------------


def test_segment_keeps_eight_bytes_per_coordinate():
    # rows of tuples kept about 134 B per sample; the flat array keeps 8 B
    # per coordinate, 32 B for octagon_boundary's four
    model = build_model("octagon_boundary")
    flow = BorelB(0.01, 0.01)
    integrate_orbit(model, None, flow, 10, seed=1)  # first-call imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        seg = integrate_orbit(model, None, flow, 50_000, seed=1)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(seg) == 50_001
    assert kept <= 8 * 4 * len(seg) + 4096
    assert seg.width == 4


def test_integrate_orbit_holds_its_buffer_once():
    # The kernel allocates the orbit's one buffer, start row included, and
    # integrate_orbit writes the start into it in place.  Joining the start
    # row in front by a copy held two buffers at once.
    model = build_model("octagon")
    flow = HorocycleU(0.11)
    integrate_orbit(model, None, flow, 10, seed=1)  # first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        seg = integrate_orbit(model, None, flow, 50_000, seed=1,
                              sample_every=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(seg) == 50_001
    assert peak < 1.25 * 8 * len(seg.values) + 64 * 1024


def test_a_resumed_integrate_orbit_holds_its_buffer_once():
    # A resumed call drops the kernel's zero row 0 in place, so each chunk
    # of a stream is held once, not copied.
    model = build_model("octagon")
    flow = HorocycleU(0.11)
    first = integrate_orbit(model, None, flow, 10, seed=1)
    integrate_orbit(model, None, flow, 10, resume=first.resume)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        seg = integrate_orbit(model, None, flow, 50_000, resume=first.resume)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(seg) == 50_000 and seg.offset == 11
    assert peak < 1.25 * 8 * len(seg.values) + 64 * 1024


# -- the density path builds no sample points ---------------------------------

# `horoflow density` with the argv below, as written before samples were kept
# as rows.
DENSITY_ARGV = ["density", "--model", "octagon", "--flow", "u", "--dt", "0.11",
                "--steps", "2000", "--seed", "3", "--bins", "10 10 8"]
DENSITY_JSON = """{
  "bins": [
    10,
    10,
    8
  ],
  "flow": "HorocycleU(0.11)",
  "fraction": 0.43125,
  "model": "octagon",
  "seed": 3,
  "steps": 2000,
  "total": 800,
  "visited": 345
}
"""


def test_density_builds_no_sample_points(monkeypatch, tmp_path):
    calls = []
    real = flows._surface_point

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flows, "_surface_point", counting)
    out = tmp_path / "cover.json"
    assert cli.main(DENSITY_ARGV + ["--out", str(out)]) == 0
    assert calls == []
    assert out.read_text(encoding="utf-8") == DENSITY_JSON


def _point_must_not_be_built(*args, **kwargs):
    raise AssertionError("a sample point was built")


def test_divergence_scan_builds_no_sample_points(monkeypatch):
    monkeypatch.setattr(flows, "_surface_point", _point_must_not_be_built)
    modular = build_model("modular")
    start = modular.point_from_frame(MoebiusElement.identity())
    report = divergence.detect_divergence(modular, start, GeodesicD(0.01), 600,
                                          100.0)
    # the report the per-sample scan gave
    assert report == {
        "diverged": True,
        "first_passage": 4.61,
        "max_escape": 403.42879349268134,
    }


# -- the sample limit ---------------------------------------------------------


def _kernel_must_not_run(*args, **kwargs):
    raise AssertionError("the kernel ran")


def test_runs_past_the_sample_limit_fail_before_the_kernel(monkeypatch):
    monkeypatch.setattr(_kernels, "surface_orbit", _kernel_must_not_run)
    octagon = build_model("octagon")
    with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
        integrate_orbit(octagon, None, HorocycleU(0.01), 10 ** 8)
    with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
        integrate_orbit(octagon, None, HorocycleU(0.01), MAX_SAMPLES, sample_every=1)
    # exactly MAX_SAMPLES samples is allowed and reaches the kernel
    with pytest.raises(AssertionError, match="the kernel ran"):
        integrate_orbit(octagon, None, HorocycleU(0.01), MAX_SAMPLES - 1)
    with pytest.raises(AssertionError, match="the kernel ran"):
        integrate_orbit(octagon, None, HorocycleU(0.01), 10 ** 8, sample_every=11)


def _zero_surface_orbit(frame, step, letters, trans_kind, trans_quats,
                        trans_state, steps, sample_every, first_step=0):
    """A surface kernel that leaves every sample row of its buffer zero."""
    values = array("d", [0.0]) * (3 * (steps // sample_every + 1))
    return values, frame, trans_state


def test_a_stream_runs_past_the_sample_limit_one_chunk_at_a_time(monkeypatch):
    # MAX_SAMPLES steps keep MAX_SAMPLES + 1 samples, which no whole-run
    # buffer may hold; a stream holds one 2049-row chunk of 24 B rows at a
    # time, not the 240 MB of the whole run
    monkeypatch.setattr(_kernels, "surface_orbit", _zero_surface_orbit)
    octagon = build_model("octagon")
    chunks = flows.orbit_chunks(octagon, None, HorocycleU(0.01), MAX_SAMPLES,
                                seed=1)
    rows = 0
    tracemalloc.start()
    try:
        for chunk in chunks:
            rows += len(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == MAX_SAMPLES + 1
    assert peak < 256 * 1024


def test_a_stream_keeps_the_step_limit_and_the_sample_times():
    # both are refused before orbit_chunks returns
    octagon = build_model("octagon")
    with pytest.raises(ValueError, match="steps capped at %d" % flows.MAX_STEPS):
        flows.orbit_chunks(octagon, None, HorocycleU(0.01), flows.MAX_STEPS + 1)
    # times of 1e308 per step overflow to inf from row 2 on, which row 3
    # repeats
    with pytest.raises(ValueError, match="increase strictly"):
        flows.orbit_chunks(octagon, None, HorocycleU(1e308), 10)


def test_cli_refuses_steps_past_the_limit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(_kernels, "surface_orbit", _kernel_must_not_run)
    out = tmp_path / "orbit.csv"
    code = cli.main(["flow", "--model", "octagon", "--flow", "u",
                     "--steps", str(flows.MAX_STEPS + 1), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: --steps must be an integer from 0 to %d, got %d\n"
        % (flows.MAX_STEPS, flows.MAX_STEPS + 1))
    assert not out.exists()


# -- criterion 5's residual loop ----------------------------------------------


def reference_graph_residual(model, sample_count, group_radius, grid, seed,
                             gamma_count):
    rng = random.Random(seed)
    group = GeneratedGroup.from_moebius(
        [("a%d" % i, g) for i, g in enumerate(model.base.independent_generators())]
    )
    elements = [pe for _, pe in word_ball(group, group_radius).elements]
    if len(elements) > gamma_count:
        picks = rng.sample(range(len(elements)), gamma_count)
        elements = [elements[i] for i in sorted(picks)]
    worst = 0.0
    for _ in range(sample_count):
        on_set = model.graph_point(model.base.sample_point(rng).frame)
        for gamma in elements:
            pushed = gamma.m.mul(on_set.frame)
            xi = gamma.m.apply_boundary(on_set.transverse)
            for b in grid:
                worst = max(worst, minimal_set_distance(model, (pushed.mul(b), xi)))
    return worst


def test_graph_residual_matches_minimal_set_distance_loop():
    model = build_model("octagon_boundary")
    grid = borel_grid(12)
    expected = reference_graph_residual(model, 6, 2, grid, 9, 10)
    assert expected > 0.0
    assert repr(minimal_set_residual(model, 6, 2, grid, seed=9,
                                     gamma_count=10)) == repr(expected)


def test_graph_residual_keeps_each_distance_bit_for_bit():
    # One point, one gamma and one grid element per call, so the residual
    # is a single distance and no maximum hides a last-bit difference.
    # Off the triangular subgroup the products need a sign flip; far out
    # their determinant drifts past RENORM_TOL, for 28 of the 40 seeds
    # with the last grid.
    model = build_model("octagon_boundary")
    grids = [
        (MoebiusElement.rot(2.5),),
        (MoebiusElement.b_el(3.0, 40.0),),
        (MoebiusElement.rot(1.0).mul(MoebiusElement.geo(30.0)),),
        (MoebiusElement.b_el(1e6, 3e5),),
    ]
    for seed in range(40):
        for grid in grids:
            assert repr(minimal_set_residual(
                model, 1, 2, grid, seed=seed, gamma_count=1
            )) == repr(reference_graph_residual(model, 1, 2, grid, seed, 1))


def test_graph_residual_reports_a_collapsed_determinant_as_the_class_does():
    # entries of 1e20 against 1e-20 cancel the product's determinant to 0
    model = build_model("octagon_boundary")
    grid = (MoebiusElement.b_el(1e20, 1e12),)
    with pytest.raises(ValueError) as want:
        reference_graph_residual(model, 1, 2, grid, 1, 1)
    with pytest.raises(ValueError) as got:
        minimal_set_residual(model, 1, 2, grid, seed=1, gamma_count=1)
    assert "positive determinant" in str(want.value)
    assert str(got.value) == str(want.value)
