"""Desk-scale acceptance suite: ten numbered, self-timing criteria.

Each criterion is a zero-argument callable returning a CriterionResult with
the measured quantities, the verdict, and the elapsed wall time.  Seeds and
thresholds are fixed constants so a run is reproducible bit for bit; the
runtime budgets assume one modern core and the compiled kernels (the pure
fallback stays within budget everywhere but with less headroom).

The suite is runnable three ways: pytest (tests/test_acceptance.py prints
one verdict line per criterion), the command line (`horoflow check all`),
or directly via run_suite.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from horoflow.diagnostics import (
    BinningSpec,
    borel_grid,
    coverage,
    fiber_variation,
    minimal_set_residual,
)
from horoflow.flows import (
    DualBoundaryIterate,
    GeodesicD,
    HorocycleU,
    Sol3U,
    integrate_orbit,
    keylemma_converge,
)
from horoflow.groups import BOUNDARY_CIRCLE, GeneratedGroup, word_ball
from horoflow.models import build_modular, build_octagon, build_product, build_t3a
from horoflow.models.t3a import b_affine_params, sol3_b_embed, sol3_mul
from horoflow.moebius import BoundaryPoint, MoebiusElement, steer_to_diagonal

SUITE_SEED = 20260818

_TAU = 2.0 * math.pi


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: dict = field(default_factory=dict)

    @property
    def in_budget(self):
        return self.elapsed < self.budget

    def verdict_line(self):
        mark = "PASS" if self.passed and self.in_budget else "FAIL"
        extras = " ".join("%s=%s" % (k, _short(v)) for k, v in self.details.items())
        return "criterion %2d %-28s %s  (%.2fs of %.0fs budget)  %s" % (
            self.number, self.name, mark, self.elapsed, self.budget, extras
        )


def _short(value):
    if isinstance(value, float):
        return "%.3g" % value
    return str(value)


def _random_hyperbolic(rng, min_trace):
    while True:
        f = (
            MoebiusElement.u(rng.uniform(-2.0, 2.0))
            .mul(MoebiusElement(1.0, 0.0, rng.uniform(-2.0, 2.0), 1.0))
            .mul(MoebiusElement.u(rng.uniform(-2.0, 2.0)))
        )
        if f.trace_abs() > min_trace:
            return f


def _random_frame(rng):
    return (
        MoebiusElement.u(rng.uniform(-2.0, 2.0))
        .mul(MoebiusElement.geo(math.exp(rng.uniform(-1.0, 1.0))))
        .mul(MoebiusElement.rot(rng.uniform(-2.0, 2.0)))
    )


def boundary_contraction():
    """1: powers of a hyperbolic element contract the boundary grid."""
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED)
    worst_passage = 0
    tracked_total = 0
    ok = True
    for _ in range(20):
        g = _random_hyperbolic(rng, 2.1)
        report = keylemma_converge(g, n_max=200, exclusion=0.01, pass_tol=1e-4)
        passages = report["first_passage"]
        tracked_total += len(passages)
        if any(n is None for n in passages):
            ok = False
        else:
            worst_passage = max(worst_passage, max(passages))
    elapsed = time.perf_counter() - start
    return CriterionResult(
        1, "boundary_contraction", ok, elapsed, 1.0,
        {"tracked_points": tracked_total, "worst_first_passage": worst_passage},
    )


def steering_identity():
    """2: unipotent steering lands exactly on the target near-diagonal form."""
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED + 1)
    worst = 0.0
    for _ in range(1000):
        f = _random_frame(rng)
        a, b, c, d = f.entries
        if abs(c) <= 1e-3:
            continue
        alpha = rng.uniform(0.1, 10.0)
        u1, u2 = steer_to_diagonal(f, alpha)
        got = u1.mul(f).mul(u2).entries
        target = (alpha, 0.0, c, 1.0 / alpha)
        gap = min(
            max(abs(x - y) for x, y in zip(got, target)),
            max(abs(x + y) for x, y in zip(got, target)),
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        2, "steering_identity", worst < 1e-9, elapsed, 1.0,
        {"max_entry_gap": worst},
    )


def toroidal_fiber_density():
    """3: the unipotent flow keeps the suspension time and fills its torus."""
    start = time.perf_counter()
    model = build_t3a(((2, 1), (1, 1)))
    seg = integrate_orbit(model, None, Sol3U(0.037), 100_000, seed=SUITE_SEED)
    variation = fiber_variation(seg, "t")
    report = coverage(seg, BinningSpec(((0.0, 1.0), (0.0, 1.0)), (50, 50)))
    elapsed = time.perf_counter() - start
    return CriterionResult(
        3, "toroidal_fiber_density",
        variation == 0.0 and report.fraction >= 0.99,
        elapsed, 10.0,
        {"t_variation": variation, "fraction": report.fraction},
    )


def boundary_funneling():
    """4: the dual bundle iteration funnels generic pairs to (infinity, 0)."""
    start = time.perf_counter()
    model = build_t3a(((2, 1), (1, 1)))
    rng = random.Random(SUITE_SEED + 2)
    zero = BoundaryPoint.from_real(0.0)
    infinity = BoundaryPoint.infinity()
    worst_passage = 0
    worst_gap = 0.0
    ok = True
    for _ in range(100):
        while True:
            xi = BoundaryPoint(rng.uniform(-math.pi, math.pi))
            if xi.chordal(zero) > 0.01:
                break
        y = rng.uniform(-1.0, 1.0)
        seg = integrate_orbit(model, (xi, y), DualBoundaryIterate(), 60)
        gaps = [
            max(BoundaryPoint(p.coords[0]).chordal(infinity), abs(p.coords[1]))
            for _, p in seg.samples
        ]
        best = min(gaps)
        worst_gap = max(worst_gap, best)
        if best >= 1e-3:
            ok = False
        else:
            passage = next(i for i, gap in enumerate(gaps) if gap < 1e-3)
            worst_passage = max(worst_passage, passage)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        4, "boundary_funneling", ok, elapsed, 1.0,
        {"worst_gap": worst_gap, "worst_passage": worst_passage},
    )


def graph_minimal_set():
    """5: the diagonal graph set absorbs group moves and triangular steps."""
    start = time.perf_counter()
    model = build_product(build_octagon(), BOUNDARY_CIRCLE)
    residual = minimal_set_residual(
        model, 200, 3, borel_grid(50), seed=SUITE_SEED + 3, gamma_count=50
    )
    elapsed = time.perf_counter() - start
    return CriterionResult(
        5, "graph_minimal_set", residual <= 1e-8, elapsed, 5.0,
        {"max_residual": residual},
    )


def cocompact_trace_gap():
    """6: no near-parabolic traces in the octagon ball; relator collapses."""
    start = time.perf_counter()
    model = build_octagon()
    group = GeneratedGroup.from_moebius(
        [("g%d" % i, g) for i, g in enumerate(model.independent_generators())]
    )
    ball = word_ball(group, 4)
    gap = min(
        abs(pe.m.trace_abs() - 2.0) for word, pe in ball.elements if word != ()
    )
    relator = model.relator_product()
    relator_ok = relator.is_identity(1e-6)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        6, "cocompact_trace_gap", gap > 0.1 and relator_ok, elapsed, 30.0,
        {"ball_size": len(ball), "min_trace_gap": gap,
         "relator_is_identity": relator_ok},
    )


def noncompact_contrast():
    """7: cusped quotient: periodic unipotent orbit, divergent geodesic."""
    start = time.perf_counter()
    model = build_modular()
    origin = model.point_from_frame(MoebiusElement.identity())
    useg = integrate_orbit(model, origin, HorocycleU(0.01), 100)
    periodic = model.points_close(useg.samples[100][1], useg.samples[0][1], 1e-9)
    gseg = integrate_orbit(model, origin, GeodesicD(0.01), 600)
    peak = max(p.coords[1] for t, p in gseg.samples if t <= 6.0 + 1e-12)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        7, "noncompact_contrast", periodic and peak > 100.0, elapsed, 1.0,
        {"periodic": periodic, "peak_height": peak},
    )


def compact_surface_density():
    """8: a long unipotent orbit fills the octagon frame-space grid."""
    start = time.perf_counter()
    model = build_octagon()
    origin = model.point_from_frame(MoebiusElement.identity())
    seg = integrate_orbit(model, origin, HorocycleU(0.11), 200_000)
    xbox, ybox = model.coverage_box()
    spec = BinningSpec((xbox, ybox, (0.0, _TAU)), (10, 10, 8))
    report = coverage(seg, spec)
    elapsed = time.perf_counter() - start
    return CriterionResult(
        8, "compact_surface_density", report.fraction >= 0.9, elapsed, 60.0,
        {"fraction": report.fraction, "samples": report.samples},
    )


def _surface_reduction_trials(model, rng, trials):
    group = GeneratedGroup.from_moebius(
        [("g%d" % i, g) for i, g in enumerate(model.independent_generators())]
    )
    gammas = [pe.m for _, pe in word_ball(group, 2).elements]
    failures = 0
    for _ in range(trials):
        p = model.sample_point(rng)
        gamma = gammas[rng.randrange(len(gammas))]
        again = model.reduce(p.frame)
        moved = model.reduce(gamma.mul(p.frame))
        if not model.points_close(again, p, 1e-9):
            failures += 1
        elif not model.points_close(moved, p, 1e-9):
            failures += 1
    return failures


def _product_reduction_trials(model, rng, trials):
    group = GeneratedGroup.from_moebius(
        [("g%d" % i, g)
         for i, g in enumerate(model.base.independent_generators())]
    )
    gammas = [pe.m for _, pe in word_ball(group, 2).elements]
    failures = 0
    for _ in range(trials):
        p = model.sample_point(rng)
        gamma = gammas[rng.randrange(len(gammas))]
        again = model.reduce(p.frame, p.transverse)
        moved = model.reduce(
            gamma.mul(p.frame), gamma.apply_boundary(p.transverse)
        )
        if not model.points_close(again, p, 1e-9):
            failures += 1
        elif not model.points_close(moved, p, 1e-9):
            failures += 1
    return failures


def _bundle_reduction_trials(model, rng, trials):
    words = [()]
    letters = [(k, inv) for k in range(3) for inv in (False, True)]
    words.extend((l,) for l in letters)
    words.extend((l1, l2) for l1 in letters for l2 in letters)
    failures = 0
    for _ in range(trials):
        p = model.sample_point(rng)
        again = model.reduce(p.coords)
        coords = p.coords
        for k, inv in words[rng.randrange(len(words))]:
            coords = model.apply_torus_gen(k, coords, inverse=inv)
        moved = model.reduce(coords)
        if not model.points_close(again, p, 1e-9):
            failures += 1
        elif not model.points_close(moved, p, 1e-9):
            failures += 1
    return failures


def reduction_correctness():
    """9: reduction is idempotent and blind to deck moves on every model."""
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED + 4)
    octagon = build_octagon()
    failures = {
        "octagon": _surface_reduction_trials(octagon, rng, 1000),
        "modular": _surface_reduction_trials(build_modular(), rng, 1000),
        "t3a": _bundle_reduction_trials(build_t3a(((2, 1), (1, 1))), rng, 1000),
        "product": _product_reduction_trials(
            build_product(octagon, BOUNDARY_CIRCLE), rng, 1000
        ),
    }
    elapsed = time.perf_counter() - start
    return CriterionResult(
        9, "reduction_correctness",
        all(v == 0 for v in failures.values()), elapsed, 5.0, failures,
    )


def _random_anosov_matrix(rng, max_trace):
    lower = ((1, 0), (1, 1))
    upper = ((1, 1), (0, 1))
    while True:
        m = ((1, 0), (0, 1))
        for _ in range(rng.randrange(2, 9)):
            step = lower if rng.random() < 0.5 else upper
            m = (
                (
                    m[0][0] * step[0][0] + m[0][1] * step[1][0],
                    m[0][0] * step[0][1] + m[0][1] * step[1][1],
                ),
                (
                    m[1][0] * step[0][0] + m[1][1] * step[1][0],
                    m[1][0] * step[0][1] + m[1][1] * step[1][1],
                ),
            )
        trace = m[0][0] + m[1][1]
        if 2 < trace <= max_trace:
            return m


def bundle_structure_identities():
    """10: primed-frame unimodularity, chart conjugation, triangular embedding."""
    start = time.perf_counter()
    rng = random.Random(SUITE_SEED + 5)
    worst_det = 0.0
    models = []
    for _ in range(50):
        a_mat = _random_anosov_matrix(rng, 50)
        model = build_t3a(a_mat)
        models.append(model)
        worst_det = max(
            worst_det,
            abs(model.b_prime * model.c_prime - model.a_prime * model.d_prime - 1.0),
        )
    worst_conj = 0.0
    for model in models[:5] + [build_t3a(((2, 1), (1, 1)))]:
        for _ in range(20):
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            for k in range(3):
                x, y, t = model.apply_torus_gen(k, p)
                via_torus = model.primed_from_torus(x, y) + (t,)
                xp, yp = model.primed_from_torus(p[0], p[1])
                via_primed = model.apply_primed_gen(k, (xp, yp, p[2]))
                worst_conj = max(
                    worst_conj,
                    max(abs(a - b) for a, b in zip(via_torus, via_primed)),
                )
    lam = models[0].lam
    worst_hom = 0.0
    for _ in range(1000):
        m1 = MoebiusElement.b_el(math.exp(rng.uniform(-1, 1)), rng.uniform(-2, 2))
        m2 = MoebiusElement.b_el(math.exp(rng.uniform(-1, 1)), rng.uniform(-2, 2))
        direct = sol3_b_embed(*b_affine_params(m1.mul(m2)), lam)
        stepped = sol3_mul(
            sol3_b_embed(*b_affine_params(m1), lam),
            sol3_b_embed(*b_affine_params(m2), lam),
            lam,
        )
        worst_hom = max(
            worst_hom, max(abs(a - b) for a, b in zip(direct, stepped))
        )
    elapsed = time.perf_counter() - start
    return CriterionResult(
        10, "bundle_structure_identities",
        worst_det <= 1e-12 and worst_conj < 1e-9 and worst_hom < 1e-9,
        elapsed, 5.0,
        {"max_det_gap": worst_det, "max_conjugation_gap": worst_conj,
         "max_homomorphism_gap": worst_hom},
    )


ALL_CRITERIA = (
    boundary_contraction,
    steering_identity,
    toroidal_fiber_density,
    boundary_funneling,
    graph_minimal_set,
    cocompact_trace_gap,
    noncompact_contrast,
    compact_surface_density,
    reduction_correctness,
    bundle_structure_identities,
)

SUITES = {
    "all": tuple(range(1, 11)),
    "keylemma": (1,),
    "steering": (2,),
    "t3a": (3, 4),
    "minimal-set": (5,),
    "cocompact": (6,),
    "modular": (7,),
    "density": (8,),
    "reduction": (9,),
    "sol3": (10,),
}


def run_suite(name="all", report=print):
    """Run one named suite; returns the results, emitting a line per criterion."""
    if name not in SUITES:
        raise KeyError("unknown suite %r; choose from %s"
                       % (name, ", ".join(sorted(SUITES))))
    results = []
    for number in SUITES[name]:
        result = ALL_CRITERIA[number - 1]()
        results.append(result)
        if report is not None:
            report(result.verdict_line())
    return results
