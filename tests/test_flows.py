"""Flow integration tests: frozen orbit facts, invariants, limit experiments."""

import math
import random
from array import array
from functools import partial

import pytest

from horoflow import _kernels, acceptance, keylemma
from horoflow._kernels import _pure
from horoflow.divergence import CUSP_ESCAPE, detect_divergence
from horoflow.flows import (
    BorelB,
    DualBoundaryIterate,
    GeodesicD,
    HorocycleU,
    OrbitSegment,
    Sol3U,
    flow_label,
    flow_time_step,
    integrate_orbit,
    surface_step_element,
)
from horoflow.models import (
    build_modular,
    build_model,
    build_octagon,
    build_product,
    build_t3a,
)
from horoflow.models.base import QuotientPoint
from horoflow.groups import BOUNDARY_CIRCLE
from horoflow.keylemma import boundary_grid, keylemma_converge
from horoflow.moebius import BoundaryPoint, MoebiusElement, hyp_dist


@pytest.fixture(scope="module")
def modular():
    return build_modular()


@pytest.fixture(scope="module")
def octagon():
    return build_octagon()


@pytest.fixture(scope="module")
def t3a():
    return build_t3a(((2, 1), (1, 1)))


def identity_start(model):
    return model.point_from_frame(MoebiusElement.identity())


# -- flow kinds ---------------------------------------------------------------


def test_flow_validation():
    with pytest.raises(ValueError):
        HorocycleU(0.0)
    with pytest.raises(ValueError):
        GeodesicD(math.inf)
    with pytest.raises(ValueError):
        Sol3U(float("nan"))
    with pytest.raises(ValueError):
        BorelB(0.0, 0.0)
    BorelB(0.0, 0.3)
    BorelB(-0.2, 0.0)
    HorocycleU(-0.01)


def test_flow_time_step_values():
    assert flow_time_step(HorocycleU(-0.25)) == 0.25
    assert flow_time_step(GeodesicD(0.5)) == 0.5
    assert flow_time_step(BorelB(3.0, 4.0)) == 5.0
    assert flow_time_step(Sol3U(0.037)) == 0.037
    assert flow_time_step(DualBoundaryIterate()) == 1.0


def test_flow_labels_deterministic():
    assert flow_label(HorocycleU(0.01)) == "HorocycleU(0.01)"
    assert flow_label(DualBoundaryIterate()) == "DualBoundaryIterate"
    assert flow_label(BorelB(0.1, -0.2)) == "BorelB(0.1,-0.2)"


def test_borel_step_degenerates_to_neighbors():
    # BorelB(s, 0) is the geodesic step, BorelB(0, t) the horocycle step.
    s, t = 0.4, -0.7
    assert surface_step_element(BorelB(s, 0.0)).close_to(
        surface_step_element(GeodesicD(s)), 1e-15
    )
    assert surface_step_element(BorelB(0.0, t)).close_to(
        surface_step_element(HorocycleU(t)), 1e-15
    )


@pytest.mark.parametrize("name", ["octagon", "octagon_boundary",
                                  "octagon_so3", "modular", "t3a"])
@pytest.mark.parametrize("steps, every", [(0, 1), (1, 1), (5, 7), (300, 3)])
def test_row_zero_is_the_reduced_start_bit_for_bit(name, steps, every):
    """The kernels leave row 0 zero and integrate_orbit writes the reduced
    start there in place, so row 0 repeats the start point's coordinates
    bit for bit.  Each start lies off the fundamental domain, so row 0 is
    not the point that was passed in."""
    model = build_model(name, seed=7)
    start = model.sample_point(random.Random(3))
    if name == "t3a":
        x, y, t = start.coords
        start = QuotientPoint(name, (x + 2.0, y - 3.0, t + 1.0))
        expected = model.reduce(start.coords)
        flow = Sol3U(0.037)
    else:
        frame = MoebiusElement.geo(10.0).mul(MoebiusElement.u(0.4)).mul(
            start.frame)
        if start.transverse is None:
            start = model.point_from_frame(frame)
        else:
            start = model.point_from_state(frame, start.transverse)
        expected = model.kernel_start(start)[0]
        flow = HorocycleU(0.07)
    seg = integrate_orbit(model, start, flow, steps, sample_every=every)
    row0 = seg.values[:seg.width]
    assert row0.tobytes() == array("d", expected.coords).tobytes()
    assert row0.tobytes() != array("d", start.coords).tobytes()
    assert seg.samples[0][1].coords == expected.coords


# -- frozen orbit facts -------------------------------------------------------


def test_modular_horocycle_period_one(modular):
    # u(1) lies in the lattice, so time 1 returns to the start.
    seg = integrate_orbit(modular, identity_start(modular), HorocycleU(0.01), 100)
    assert len(seg) == 101
    assert modular.points_close(seg.samples[100][1], seg.samples[0][1], 1e-9)


def test_sol3u_keeps_suspension_coordinate(t3a):
    seg = integrate_orbit(t3a, None, Sol3U(0.037), 5000, seed=3)
    t0 = seg.samples[0][1].coords[2]
    assert all(p.coords[2] == t0 for _, p in seg.samples)
    # the torus coordinates wind around: both must move
    xs = {round(p.coords[0], 3) for _, p in seg.samples}
    ys = {round(p.coords[1], 3) for _, p in seg.samples}
    assert len(xs) > 100 and len(ys) > 100


def test_octagon_geodesic_stays_in_domain(octagon):
    seg = integrate_orbit(octagon, identity_start(octagon), GeodesicD(0.01), 1000)
    # the Dirichlet domain at i: no side pairing carries i closer to z
    centres = [g.apply(1.0j) for g in octagon.generators]
    for _, p in seg.samples:
        z = complex(p.coords[0], p.coords[1])
        d0 = hyp_dist(z, 1.0j)
        assert all(d0 <= hyp_dist(z, c) + 1e-9 for c in centres)


def test_dual_iteration_reaches_attractor(t3a):
    seg = integrate_orbit(t3a, (BoundaryPoint.from_real(1.0), 1.0),
                          DualBoundaryIterate(), 60)
    inf = BoundaryPoint.infinity()
    gaps = [
        max(BoundaryPoint(p.coords[0]).chordal(inf), abs(p.coords[1]))
        for _, p in seg.samples
    ]
    assert min(gaps[:61]) < 1e-3
    assert seg.model == "t3a_dual"
    assert seg.samples[5][0] == 5.0


def test_orbit_sample_times(octagon):
    seg = integrate_orbit(
        octagon, identity_start(octagon), HorocycleU(0.2), 30, sample_every=7
    )
    times = [t for t, _ in seg.samples]
    assert times == [0.0, 0.2 * 7, 0.2 * 14, 0.2 * 21, 0.2 * 28]


def test_negative_step_times_still_increase(modular):
    seg = integrate_orbit(modular, identity_start(modular), HorocycleU(-0.05), 40)
    times = [t for t, _ in seg.samples]
    assert all(b > a for a, b in zip(times, times[1:]))
    # backward flow: one step back then one forward returns to start
    back = seg.samples[1][1]
    forth = integrate_orbit(modular, back, HorocycleU(0.05), 1)
    assert modular.points_close(forth.samples[-1][1], seg.samples[0][1], 1e-9)


def test_seeded_start_determinism(t3a, octagon):
    for model in (t3a, octagon):
        a = integrate_orbit(model, None, HorocycleU(0.1), 50, seed=9)
        b = integrate_orbit(model, None, HorocycleU(0.1), 50, seed=9)
        c = integrate_orbit(model, None, HorocycleU(0.1), 50, seed=10)
        assert [p.coords for _, p in a.samples] == [p.coords for _, p in b.samples]
        assert [p.coords for _, p in a.samples] != [p.coords for _, p in c.samples]


def test_flow_model_mismatch_errors(modular, octagon):
    with pytest.raises(ValueError):
        integrate_orbit(octagon, None, Sol3U(0.1), 10, seed=1)
    with pytest.raises(ValueError):
        integrate_orbit(modular, None, DualBoundaryIterate(), 10, seed=1)
    with pytest.raises(TypeError):
        integrate_orbit(modular, None, "horocycle", 10, seed=1)


def test_step_count_validation(modular):
    start = identity_start(modular)
    with pytest.raises(ValueError):
        integrate_orbit(modular, start, HorocycleU(0.1), -1)
    with pytest.raises(ValueError):
        integrate_orbit(modular, start, HorocycleU(0.1), 10 ** 8 + 1)
    with pytest.raises(ValueError):
        integrate_orbit(modular, start, HorocycleU(0.1), 10, sample_every=0)


def test_zero_steps_single_sample(modular):
    seg = integrate_orbit(modular, identity_start(modular), HorocycleU(0.1), 0)
    assert len(seg) == 1
    assert seg.samples[0][0] == 0.0


def test_segment_rejects_unordered_times():
    # a time step of 2e308 overflows to inf, so rows 1 and 2 share a time
    rows = array("d", (0.0, 1.0, 0.0) * 3)
    with pytest.raises(ValueError, match="increase strictly"):
        OrbitSegment("modular", HorocycleU(1e308), rows, None, 2,
                     ("re", "im", "direction"), 2,
                     partial(QuotientPoint, "modular"))


def test_product_orbit_keeps_graph_relation(octagon):
    # Diagonal boundary holonomy: a start on the invariant graph stays on it.
    model = build_product(octagon, BOUNDARY_CIRCLE)
    f = MoebiusElement.geo(1.3).mul(MoebiusElement.u(0.4))
    start = model.graph_point(f)
    seg = integrate_orbit(model, start, HorocycleU(0.09), 400, sample_every=40)
    for _, p in seg.samples:
        gap = p.transverse.chordal(p.frame.boundary_image_of_infinity())
        assert gap < 1e-8


# -- invariants ---------------------------------------------------------------


def test_flow_composition_invariant(modular, octagon, t3a):
    models = [modular, octagon, t3a, build_product(octagon, BOUNDARY_CIRCLE)]
    rng = random.Random(20)
    for model in models:
        for trial in range(250):
            start = model.sample_point(rng)
            s = rng.uniform(0.05, 0.6)
            t = rng.uniform(0.05, 0.6)
            mid = integrate_orbit(model, start, HorocycleU(s), 1).samples[-1][1]
            end = integrate_orbit(model, mid, HorocycleU(t), 1).samples[-1][1]
            direct = integrate_orbit(model, start, HorocycleU(s + t), 1).samples[-1][1]
            assert model.points_close(end, direct, 1e-8), (model.name, trial)


def test_geodesic_horocycle_interleaving(octagon):
    # matrix identity: u(t) geo(a) == geo(a) u(t / a^2), exactly
    rng = random.Random(4)
    for _ in range(50):
        t = rng.uniform(-2.0, 2.0) or 0.3
        s = rng.uniform(-1.5, 1.5) or 0.4
        alpha = math.exp(0.5 * s)
        left = MoebiusElement.u(t).mul(MoebiusElement.geo(alpha))
        right = MoebiusElement.geo(alpha).mul(MoebiusElement.u(t * math.exp(-s)))
        assert left.close_to(right, 1e-12)
    # orbit level: U then D equals D then the e^{-s}-scaled U after reduction
    start = identity_start(octagon)
    t, s = 0.8, 0.6
    a = integrate_orbit(octagon, start, HorocycleU(t), 1).samples[-1][1]
    a = integrate_orbit(octagon, a, GeodesicD(s), 1).samples[-1][1]
    b = integrate_orbit(octagon, start, GeodesicD(s), 1).samples[-1][1]
    b = integrate_orbit(octagon, b, HorocycleU(t * math.exp(-s)), 1).samples[-1][1]
    assert octagon.points_close(a, b, 1e-9)


def test_renormalization_over_a_million_steps(octagon):
    letters = []
    for g in octagon.generators:
        letters.extend(g.entries)
    step = MoebiusElement.u(0.07).entries
    _, frame, _ = _kernels.surface_orbit(
        (1.0, 0.0, 0.0, 1.0), step, letters, 0, None, (0.0,) * 4, 10 ** 6, 10 ** 6
    )
    a, b, c, d = frame
    assert abs(a * d - b * c - 1.0) < 1e-6


# -- divergence detection -----------------------------------------------------


def test_modular_geodesic_diverges(modular):
    report = detect_divergence(
        modular, identity_start(modular), GeodesicD(0.01), 600, 100.0
    )
    assert report["diverged"]
    assert report["first_passage"] <= 6.0


@pytest.mark.parametrize("kernel", ["pure", "native"])
def test_a_cusp_escape_is_a_divergence(kernel, modular, monkeypatch,
                                       native_or_none):
    # From the origin, GeodesicD(1.0) climbs the cusp until c^2 + d^2
    # underflows at step 745, where both kernels stop the run.
    if kernel == "native" and native_or_none is None:
        pytest.skip("no C compiler to build _native.c")
    module = _pure if kernel == "pure" else native_or_none
    monkeypatch.setattr(_kernels, "modular_orbit", module.modular_orbit)
    origin = identity_start(modular)
    with pytest.raises(ValueError, match="^%s745$" % CUSP_ESCAPE):
        integrate_orbit(modular, origin, GeodesicD(1.0), 2000)
    report = detect_divergence(modular, origin, GeodesicD(1.0), 2000, 100.0)
    assert report == {
        "diverged": True, "first_passage": 5.0, "max_escape": math.inf}
    # no sample passes an infinite threshold, so the escape step's end
    # stands for the first passage
    report = detect_divergence(modular, origin, GeodesicD(1.0), 2000, math.inf)
    assert report == {
        "diverged": True, "first_passage": 746.0, "max_escape": math.inf}


def test_a_random_start_is_drawn_once_for_the_scan_to_an_escape(
        modular, monkeypatch):
    draws = []

    def sample_point(rng):
        draws.append(rng)
        return identity_start(modular)

    monkeypatch.setattr(modular, "sample_point", sample_point)
    report = detect_divergence(modular, None, GeodesicD(1.0), 2000, 100.0)
    assert report == {
        "diverged": True, "first_passage": 5.0, "max_escape": math.inf}
    assert len(draws) == 1


def test_divergence_detection_raises_any_other_kernel_error(modular,
                                                            monkeypatch):
    def failing(*args):
        raise ValueError("frame escaped nowhere at step 3")

    monkeypatch.setattr(_kernels, "modular_orbit", failing)
    with pytest.raises(ValueError, match="escaped nowhere at step 3"):
        detect_divergence(modular, identity_start(modular), GeodesicD(1.0),
                          10, 100.0)


def test_compact_model_never_diverges(octagon):
    report = detect_divergence(
        octagon, identity_start(octagon), HorocycleU(0.1), 500, 0.5
    )
    assert not report["diverged"]
    assert report["first_passage"] is None
    assert report["max_escape"] == 0.0


def test_dual_iteration_divergence(t3a):
    report = detect_divergence(
        t3a, (BoundaryPoint.from_real(1.0), 1.0), DualBoundaryIterate(), 60, 1000.0
    )
    assert report["diverged"]
    assert report["first_passage"] <= 60.0


# -- boundary limit experiments ----------------------------------------------


def test_boundary_grid_shape():
    grid = boundary_grid(64)
    assert len(grid) == 64
    assert grid[-1].is_infinity()
    assert len({round(x.theta, 12) for x in grid}) == 64
    with pytest.raises(ValueError):
        boundary_grid(0)


def test_keylemma_geodesic_limits():
    report = keylemma_converge(MoebiusElement.geo(2.0), n_max=30)
    assert report["xi_plus"].is_infinity(1e-9)
    assert abs(report["xi_minus"].value) < 1e-9
    single = keylemma_converge(
        MoebiusElement.geo(2.0), grid=(BoundaryPoint.from_real(1.0),), n_max=30
    )
    # f_n(1) = 4^n marches to infinity; residual far below the 1e-6 mark
    assert single["max_residual"] < 1e-6
    assert single["worst_xi"].chordal(BoundaryPoint.from_real(1.0)) == 0.0


def test_keylemma_parabolic_limits():
    report = keylemma_converge(MoebiusElement.u(1.0), n_max=200)
    inf = BoundaryPoint.infinity()
    # parabolic limits converge polynomially; the estimate carries ~sqrt(tol)
    assert report["xi_plus"].chordal(inf) < 1e-3
    assert report["xi_minus"].chordal(inf) < 1e-3
    # f_n(0) = n exactly
    xi = BoundaryPoint.from_real(0.0)
    g = MoebiusElement.u(1.0)
    for n in range(1, 6):
        xi = g.apply_boundary(xi)
        assert xi.chordal(BoundaryPoint.from_real(float(n))) < 1e-12
    zero_grid = keylemma_converge(
        MoebiusElement.u(1.0), grid=(BoundaryPoint.from_real(0.0),), n_max=200
    )
    assert zero_grid["max_residual"] < 0.02


def test_keylemma_integer_hyperbolic_limits():
    g = MoebiusElement(2.0, 1.0, 1.0, 1.0)
    report = keylemma_converge(g, n_max=60)
    golden = 0.5 * (1.0 + math.sqrt(5.0))
    assert report["xi_plus"].chordal(BoundaryPoint.from_real(golden)) < 1e-9
    assert report["xi_minus"].chordal(BoundaryPoint.from_real(1.0 - golden)) < 1e-9
    zero = keylemma_converge(g, grid=(BoundaryPoint.from_real(0.0),), n_max=60)
    assert zero["max_residual"] < 1e-9


def test_keylemma_elliptic_and_identity_error():
    with pytest.raises(ValueError):
        keylemma_converge(MoebiusElement.rot(0.3))
    with pytest.raises(ValueError):
        keylemma_converge(MoebiusElement.identity())


def test_keylemma_explicit_sequence_matches_powers():
    g = MoebiusElement.geo(1.5).mul(MoebiusElement.u(0.3))
    seq = []
    f = g
    for _ in range(40):
        seq.append(f)
        f = f.mul(g)
    by_gen = keylemma_converge(g, n_max=40)
    by_seq = keylemma_converge(seq, n_max=40)
    assert by_gen["xi_plus"].chordal(by_seq["xi_plus"]) < 1e-9
    assert by_gen["xi_minus"].chordal(by_seq["xi_minus"]) < 1e-9
    assert abs(by_gen["max_residual"] - by_seq["max_residual"]) < 1e-7


def test_keylemma_first_passage_reporting():
    report = keylemma_converge(MoebiusElement.geo(2.0), n_max=200, pass_tol=1e-4)
    passages = report["first_passage"]
    assert len(passages) == len(report["tracked_grid"])
    assert all(n is not None and n <= 200 for n in passages)


def reference_keylemma_converge(generator, n_max, exclusion, pass_tol):
    """keylemma_converge as it ran on BoundaryPoint objects, for comparison."""
    grid = boundary_grid()
    explicit = not isinstance(generator, MoebiusElement)
    if explicit:
        seq = tuple(generator)
        n_max = min(n_max, len(seq))
        budget = len(seq)
        forward = iter(seq)
        backward = (f.inv() for f in seq)
    else:
        budget = max(n_max, keylemma.ESTIMATE_FLOOR)
        forward = keylemma._powers(generator)
        backward = keylemma._powers(generator.inv())
    xi_plus, plus_steps = keylemma._limit_on_boundary(forward, 1j, budget, 1e-9)
    xi_minus, minus_steps = keylemma._limit_on_boundary(backward, 1j, budget, 1e-9)
    tracked = [xi for xi in grid if xi.chordal(xi_minus) >= exclusion]
    current = list(tracked)
    history = []
    first_passage = [None] * len(tracked)
    for n in range(1, n_max + 1):
        if explicit:
            current = [seq[n - 1].apply_boundary(xi) for xi in tracked]
        else:
            current = [generator.apply_boundary(xi) for xi in current]
        worst = 0.0
        for idx, xi in enumerate(current):
            residual = xi.chordal(xi_plus)
            if residual > worst:
                worst = residual
            if first_passage[idx] is None and residual < pass_tol:
                first_passage[idx] = n
        history.append(worst)
    max_residual = 0.0
    worst_xi = None
    for start_xi, xi in zip(tracked, current):
        residual = xi.chordal(xi_plus)
        if residual >= max_residual:
            max_residual = residual
            worst_xi = start_xi
    return {
        "xi_plus": xi_plus,
        "xi_minus": xi_minus,
        "max_residual": max_residual,
        "worst_xi": worst_xi,
        "residual_history": tuple(history),
        "plus_steps": plus_steps,
        "minus_steps": minus_steps,
        "tracked_grid": tuple(tracked),
        "first_passage": tuple(first_passage),
    }


def _report_bits(report):
    """The report with boundary points as angles, as one exact string."""
    def angle(value):
        if isinstance(value, BoundaryPoint):
            return value.theta
        if isinstance(value, tuple):
            return tuple(angle(v) for v in value)
        return value
    return repr(sorted((key, angle(value)) for key, value in report.items()))


def test_keylemma_matches_boundary_point_loop():
    # Criterion 1's twenty seeded generators, then an explicit sequence
    # g^n h that is not a power sequence.
    rng = random.Random(acceptance.SUITE_SEED)
    for _ in range(20):
        g = acceptance._random_hyperbolic(rng, 2.1)
        got = keylemma_converge(g, n_max=200, exclusion=0.01, pass_tol=1e-4)
        want = reference_keylemma_converge(g, 200, 0.01, 1e-4)
        assert _report_bits(got) == _report_bits(want)
    # without pass_tol no first passage is tracked or reported
    got = keylemma_converge(g, n_max=200, exclusion=0.01)
    del want["first_passage"]
    assert _report_bits(got) == _report_bits(want)
    g = MoebiusElement.geo(1.5).mul(MoebiusElement.u(0.3))
    h = acceptance._random_frame(rng)
    seq = []
    f = g
    for _ in range(40):
        seq.append(f.mul(h))
        f = f.mul(g)
    got = keylemma_converge(seq, n_max=50, exclusion=0.01, pass_tol=1e-4)
    want = reference_keylemma_converge(seq, 50, 0.01, 1e-4)
    assert got["first_passage"].count(None) < len(got["first_passage"])
    assert _report_bits(got) == _report_bits(want)


def test_keylemma_monotone_for_antipodal_fixed_points():
    # Fixed points a half-turn apart: every tracked point approaches the
    # attractor monotonically, so the grid maximum does too.
    for phi in (0.0, 0.4, 1.1, -0.7):
        r = MoebiusElement.rot(phi)
        g = r.mul(MoebiusElement.geo(1.3)).mul(r.inv())
        history = keylemma_converge(g, n_max=120)["residual_history"]
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_keylemma_eventually_monotone_for_random_hyperbolic():
    rng = random.Random(11)
    for _ in range(15):
        while True:
            f = (
                MoebiusElement.u(rng.uniform(-2, 2))
                .mul(MoebiusElement(1.0, 0.0, rng.uniform(-2, 2), 1.0))
                .mul(MoebiusElement.u(rng.uniform(-2, 2)))
            )
            if f.trace_abs() > 2.1:
                break
        history = keylemma_converge(f, n_max=120)["residual_history"]
        tail = 0
        for i in range(len(history) - 1, 0, -1):
            if history[i] > history[i - 1] + 1e-9:
                tail = i
                break
        assert tail <= 30
        assert history[-1] < 1e-6
