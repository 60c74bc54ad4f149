"""Desk-scale acceptance suite: ten numbered, self-timing criteria.

Each criterion is a zero-argument callable returning a CriterionResult with
the measured quantities, the verdict, and the elapsed wall time: a check
returning (passed, details), timed and numbered by _criterion.  Seeds and
thresholds are fixed constants so a run is reproducible bit for bit; the
runtime budgets assume one modern core and the compiled kernels (the pure
fallback stays within budget everywhere but with less headroom).

The suite is runnable three ways: pytest (tests/test_acceptance.py prints
one verdict line per criterion), the command line (`horoflow check all`),
or directly via run_suite.  run_suite shares a suite's criteria among
forked workers, one per usable CPU, while its own process only collects
their results (on one CPU it runs them itself): each criterion's elapsed
time is measured in the process that ran it, and the budgets still assume
one core per criterion.
"""

import math
import os
import pickle
import random
import time
from functools import partial, wraps

from horoflow._fork import portable, reap, spawn, usable_cpus
from horoflow._record import Record
from horoflow.diagnostics import (
    BinningSpec,
    FiberWatch,
    borel_grid,
    coverage,
    minimal_set_residual,
)
from horoflow.divergence import detect_divergence
from horoflow.flows import (
    DualBoundaryIterate,
    GeodesicD,
    HorocycleU,
    Sol3U,
    integrate_orbit,
    orbit_chunks,
)
from horoflow.groups import BOUNDARY_CIRCLE, iter_word_ball, word_ball
from horoflow.keylemma import keylemma_converge
from horoflow.models import build_modular, build_octagon, build_product, build_t3a
from horoflow.models.t3a import (
    b_affine_params,
    mat_mul_int,
    sol3_b_embed,
    sol3_mul,
)
from horoflow.moebius import BoundaryPoint, MoebiusElement, steer_to_diagonal

SUITE_SEED = 20260818

_TAU = 2.0 * math.pi


class CriterionResult(Record):
    _fields = ("number", "name", "passed", "elapsed", "budget", "details")

    def __init__(self, number, name, passed, elapsed, budget, details=None):
        self.number = number
        self.name = name
        self.passed = passed
        self.elapsed = elapsed
        self.budget = budget
        self.details = {} if details is None else details

    @property
    def in_budget(self):
        return self.elapsed < self.budget

    def verdict_line(self):
        mark = "PASS" if self.passed and self.in_budget else "FAIL"
        extras = " ".join("%s=%s" % (k, _short(v)) for k, v in self.details.items())
        return "criterion %2d %-28s %s  (%.2fs of %.0fs budget)  %s" % (
            self.number, self.name, mark, self.elapsed, self.budget, extras
        )


def _criterion(number, budget):
    """Turn a check returning (passed, details) into criterion `number`: a
    zero-argument callable that times the check in the process running it
    and returns its CriterionResult, named after the check."""
    def wrap(check):
        @wraps(check)
        def criterion():
            start = time.perf_counter()
            passed, details = check()
            return CriterionResult(number, check.__name__, passed,
                                   time.perf_counter() - start, budget, details)
        return criterion
    return wrap


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


@_criterion(1, 1.0)
def boundary_contraction():
    """1: powers of a hyperbolic element contract the boundary grid."""
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
    return ok, {"tracked_points": tracked_total,
                "worst_first_passage": worst_passage}


@_criterion(2, 1.0)
def steering_identity():
    """2: unipotent steering lands exactly on the target near-diagonal form."""
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
    return worst < 1e-9, {"max_entry_gap": worst}


@_criterion(3, 10.0)
def toroidal_fiber_density():
    """3: the unipotent flow keeps the suspension time and fills its torus."""
    model = build_t3a(((2, 1), (1, 1)))
    chunks = orbit_chunks(model, None, Sol3U(0.037), 100_000, seed=SUITE_SEED)
    fiber = FiberWatch("t")
    report = coverage(fiber.passing(chunks),
                      BinningSpec(((0.0, 1.0), (0.0, 1.0)), (50, 50)))
    variation = fiber.worst
    return (variation == 0.0 and report.fraction >= 0.99,
            {"t_variation": variation, "fraction": report.fraction})


@_criterion(4, 1.0)
def boundary_funneling():
    """4: the dual bundle iteration funnels generic pairs to (infinity, 0)."""
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
            max(BoundaryPoint(theta).chordal(infinity), abs(y_prime))
            for theta, y_prime in seg.rows()
        ]
        best = min(gaps)
        worst_gap = max(worst_gap, best)
        if best >= 1e-3:
            ok = False
        else:
            passage = next(i for i, gap in enumerate(gaps) if gap < 1e-3)
            worst_passage = max(worst_passage, passage)
    return ok, {"worst_gap": worst_gap, "worst_passage": worst_passage}


@_criterion(5, 5.0)
def graph_minimal_set():
    """5: the diagonal graph set absorbs group moves and triangular steps."""
    model = build_product(build_octagon(), BOUNDARY_CIRCLE)
    residual = minimal_set_residual(
        model, 200, 3, borel_grid(50), seed=SUITE_SEED + 3, gamma_count=50
    )
    return residual <= 1e-8, {"max_residual": residual}


@_criterion(6, 30.0)
def cocompact_trace_gap():
    """6: no near-parabolic traces in the octagon ball; relator collapses."""
    model = build_octagon()
    ball = iter_word_ball(model.group(), 4)
    next(ball)  # the identity
    size = 1
    gap = math.inf
    for _, pe in ball:
        size += 1
        gap = min(gap, abs(pe.m.trace_abs() - 2.0))
    relator = model.relator_product()
    relator_ok = relator.is_identity(1e-6)
    return gap > 0.1 and relator_ok, {
        "ball_size": size, "min_trace_gap": gap,
        "relator_is_identity": relator_ok}


@_criterion(7, 1.0)
def noncompact_contrast():
    """7: cusped quotient: periodic unipotent orbit, divergent geodesic."""
    model = build_modular()
    origin = model.point_from_frame(MoebiusElement.identity())
    useg = integrate_orbit(model, origin, HorocycleU(0.01), 100)
    periodic = model.points_close(useg.samples[100][1], useg.samples[0][1], 1e-9)
    escape = detect_divergence(model, origin, GeodesicD(0.01), 600, 100.0)
    return periodic and escape["diverged"], {
        "periodic": periodic, "peak_height": escape["max_escape"]}


@_criterion(8, 60.0)
def compact_surface_density():
    """8: a long unipotent orbit fills the octagon frame-space grid."""
    model = build_octagon()
    origin = model.point_from_frame(MoebiusElement.identity())
    chunks = orbit_chunks(model, origin, HorocycleU(0.11), 200_000)
    xbox, ybox = model.coverage_box()
    spec = BinningSpec((xbox, ybox, (0.0, _TAU)), (10, 10, 8))
    report = coverage(chunks, spec)
    return report.fraction >= 0.9, {"fraction": report.fraction,
                                    "samples": report.samples}


def _reduction_failures(model, rng, moves, before, after):
    """How many of 1000 sampled points p model.reduce fails to return, from
    reduce(*before(p)) or from reduce(*after(move, p)) for a random move."""
    failures = 0
    for _ in range(1000):
        p = model.sample_point(rng)
        move = moves[rng.randrange(len(moves))]
        again = model.reduce(*before(p))
        moved = model.reduce(*after(move, p))
        if not (model.points_close(again, p, 1e-9)
                and model.points_close(moved, p, 1e-9)):
            failures += 1
    return failures


def _deck_moves(group):
    """The Mobius parts of the words of length at most 2 in `group`."""
    return [pe.m for _, pe in word_ball(group, 2).elements]


@_criterion(9, 5.0)
def reduction_correctness():
    """9: reduction is idempotent and blind to deck moves on every model."""
    rng = random.Random(SUITE_SEED + 4)
    octagon = build_octagon()
    t3a = build_t3a(((2, 1), (1, 1)))
    letters = [(k, inv) for k in range(3) for inv in (False, True)]
    words = [()] + [(l,) for l in letters]
    words += [(l1, l2) for l1 in letters for l2 in letters]

    def torus_moved(word, p):
        coords = p.coords
        for k, inv in word:
            coords = t3a.apply_torus_gen(k, coords, inverse=inv)
        return (coords,)

    def surface_failures(model):
        return _reduction_failures(
            model, rng, _deck_moves(model.group()),
            lambda p: (p.frame,), lambda g, p: (g.mul(p.frame),))

    product = build_product(octagon, BOUNDARY_CIRCLE)
    failures = {
        "octagon": surface_failures(octagon),
        "modular": surface_failures(build_modular()),
        "t3a": _reduction_failures(
            t3a, rng, words, lambda p: (p.coords,), torus_moved),
        "product": _reduction_failures(
            product, rng, _deck_moves(octagon.group()),
            lambda p: (p.frame, p.transverse),
            lambda g, p: (g.mul(p.frame), g.apply_boundary(p.transverse))),
    }
    return all(v == 0 for v in failures.values()), failures


def _random_anosov_matrix(rng, max_trace):
    lower = ((1, 0), (1, 1))
    upper = ((1, 1), (0, 1))
    while True:
        m = ((1, 0), (0, 1))
        for _ in range(rng.randrange(2, 9)):
            m = mat_mul_int(m, lower if rng.random() < 0.5 else upper)
        trace = m[0][0] + m[1][1]
        if 2 < trace <= max_trace:
            return m


@_criterion(10, 5.0)
def bundle_structure_identities():
    """10: primed-frame unimodularity, chart conjugation, triangular embedding."""
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
    return (worst_det <= 1e-12 and worst_conj < 1e-9 and worst_hom < 1e-9,
            {"max_det_gap": worst_det, "max_conjugation_gap": worst_conj,
             "max_homomorphism_gap": worst_hom})


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


# The order in which workers start a suite's criteria: the longest first, so
# that no CPU idles while the last one runs.  Measured on the C backend, each
# criterion alone in a fresh interpreter on one CPU, median of 21 rounds:
# 9 takes about 70 ms, 5 26 ms, 3, 8 and 1 13-18 ms, 4, 6 and 2 9 ms, 10
# 7 ms and 7 1 ms.
LONGEST_FIRST = (9, 5, 3, 8, 1, 4, 6, 2, 10, 7)


class UnknownSuite(KeyError):
    """A suite name that SUITES lacks, raised before any criterion runs."""


def run_suite(name="all", report=print):
    """Run one named suite; returns the results, emitting a line per criterion.

    A suite of two or more criteria, with two or more usable CPUs, runs in
    min(len(suite), usable CPUs) forked workers.  They pull the criteria one
    at a time from one queue, a pipe holding the suite's numbers in
    LONGEST_FIRST order, and each pickles every result, or the exception its
    criterion raised, into its own pipe; one that does not survive pickling
    comes as a RuntimeError naming it.  A worker whose criterion raises
    empties the queue, so that no criterion starts after it, and sends the
    numbers it took with the outcome None.  This process runs no criterion
    then: it reads each worker's pipe to its end in turn and reports each
    line once the lines before it are in.  With one criterion or one usable
    CPU, without fork, or when no worker starts, this process runs the
    suite itself, in suite order, and stops at the first failure.

    The lines are reported and the results returned in suite order.  A
    criterion's exception is raised after the lines of the criteria before
    it that ran; a worker that dies leaves its criterion without a result,
    which raises a RuntimeError naming every criterion left without one.
    Every worker is reaped before this returns or raises.
    """
    if name not in SUITES:
        raise UnknownSuite("unknown suite %r; choose from %s"
                           % (name, ", ".join(sorted(SUITES))))
    suite = SUITES[name]
    outcomes = {}
    shown = 0
    workers = []
    count = min(len(suite), len(usable_cpus()))
    if count > 1:
        queue, feed = os.pipe()
        try:
            _start_workers(queue, feed, suite, count, workers)
            for _, pipe in workers:
                while True:
                    try:
                        number, outcome = pickle.load(pipe)
                    except Exception:  # its end, or a result cut short
                        break
                    outcomes[number] = outcome
                    shown = _report_ready(suite, outcomes, shown, report)
        finally:
            os.close(queue)
            statuses = [reap(pid, pipe) for pid, pipe in workers]
    if not workers:
        for number in suite:
            outcomes[number] = _outcome(number)
            shown = _report_ready(suite, outcomes, shown, report)
        return [outcomes[n] for n in suite]
    lost = [n for n in suite if outcomes.get(n) is None]
    if lost:
        raise RuntimeError(
            "no result for criteria %s (worker exit statuses %s)"
            % (", ".join(map(str, lost)),
               ", ".join(str(s) for s in statuses if s))
        )
    return [outcomes[n] for n in suite]


def _outcome(number):
    """The criterion's result, or the exception it raised."""
    try:
        return ALL_CRITERIA[number - 1]()
    except Exception as exc:
        return exc


def _report_ready(suite, outcomes, shown, report):
    """Report the results from suite position `shown` on, passing over the
    criteria that never started, up to the first one not in yet; returns
    that position.  A criterion's exception is raised when its turn comes."""
    while shown < len(suite) and suite[shown] in outcomes:
        outcome = outcomes[suite[shown]]
        if isinstance(outcome, BaseException):
            raise outcome
        if outcome is not None and report is not None:
            report(outcome.verdict_line())
        shown += 1
    return shown


def _start_workers(queue, feed, suite, count, workers):
    """Spawn up to `count` workers on the queue, each added to `workers` as
    it starts; a fork that fails starts no more of them.  Then write the
    suite's numbers into the queue, longest first, if any worker started,
    and close `feed`, the queue's write end."""
    try:
        for _ in range(count):
            worker = spawn(partial(_work, queue, os.getpid()),
                           [feed] + [pipe.fileno() for _, pipe in workers])
            if worker is None:
                break
            workers.append(worker)
        if workers:
            os.write(feed, bytes(n for n in LONGEST_FIRST if n in suite))
    finally:
        os.close(feed)


def _work(queue, parent, out):
    """A worker's loop, in the forked worker: pull, run and send back
    criteria until the queue is empty, a criterion fails or the parent is
    gone.  A failed criterion empties the queue, whose numbers go back with
    the outcome None."""
    with open(out, "wb") as pipe:
        while os.getppid() == parent:
            pulled = os.read(queue, 1)
            if not pulled:
                break
            number = pulled[0]
            outcome = _outcome(number)
            failed = isinstance(outcome, BaseException)
            pickle.dump((number, portable(outcome) if failed else outcome),
                        pipe)
            pipe.flush()
            if failed:
                # One read takes all a pipe holds.
                for number in os.read(queue, len(LONGEST_FIRST)):
                    pickle.dump((number, None), pipe)
                break
