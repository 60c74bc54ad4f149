"""Right-action orbit integration on the quotient models.

Flows are exact group translations, never ODE steps: each flow kind names a
one-parameter (or two-parameter) right translation, and one integration step
multiplies the current frame by a fixed step element and reduces back into
the fundamental domain.  The per-step reduction is the performance hot spot;
the heavy loops live in horoflow._kernels behind a compiled/pure switch.

An orbit segment is built from the flat array('d') of coordinates a
kernel returns and the sampling interval.  The kernel leaves row 0 zero and
writes its samples after it; the integrator writes the reduced start into
row 0 in place, a same-length slice assignment, so the orbit is allocated
once and never copied, and a run's coordinates are held once at their peak.
The segment derives each row's time from the flow and builds sample points
only when `segment.samples` is first read.  Coverage, the CSV writer and
divergence detection read only the coordinates and times: coverage and
the CSV writer by column from `segment.values`, divergence detection row by
row through `segment.rows()`; sample points are for comparisons that need
frames.
Sample points carry quotient coordinates and, for the surface models, a
reconstructed frame so orbit-aware point comparisons work on them.  Samples
of a rotation-group bundle carry only the projected pole coordinates of the
transverse fiber; the exact quaternion is returned for the final state only.

Times attached to samples are elapsed positive flow time, k * |step|, so the
sequence increases even when the step parameter is negative; the discrete
boundary iteration counts integer time.
"""

import math
import random
from array import array
from functools import partial
from itertools import chain

from horoflow import _kernels
from horoflow._record import FrozenRecord
from horoflow.models import (
    ModularModel,
    ProductModel,
    SurfaceModel,
    TorusBundleModel,
)
from horoflow.models.base import QuotientPoint
from horoflow.moebius import (
    BoundaryPoint,
    HalfPlanePoint,
    MoebiusElement,
    TangentFrame,
    boundary_angle,
    tangent_to_frame,
)

MAX_STEPS = 10 ** 8
# Samples one run may keep: each row is 8 B per coordinate, 24 to 40 B, so
# the coordinates of one run stay below 400 MB.  The kernel allocates that
# buffer once, start row included, and nothing copies it: a 200k-row
# octagon density run peaks at 21.6 MiB of RSS, 4.6 MiB of it the buffer,
# where joining the start row in front by a copy took 25.8 MiB.
MAX_SAMPLES = 10 ** 7

DUAL_MODEL_ID = "t3a_dual"
DUAL_COORD_NAMES = ("xi_theta", "y_prime")


def _require_step(value, name):
    if not math.isfinite(value):
        raise ValueError("%s must be finite" % name)
    return float(value)


class HorocycleU(FrozenRecord):
    """Right translation by the unipotent upper-triangular one-parameter group."""

    _fields = ("time_step",)

    def __init__(self, time_step):
        if _require_step(time_step, "time_step") == 0.0:
            raise ValueError("time_step must be nonzero")
        self._store(time_step)


class GeodesicD(FrozenRecord):
    """Right translation by the diagonal group; time t multiplies by geo(e^(t/2))."""

    _fields = ("time_step",)

    def __init__(self, time_step):
        if _require_step(time_step, "time_step") == 0.0:
            raise ValueError("time_step must be nonzero")
        self._store(time_step)


class BorelB(FrozenRecord):
    """Right translation by the full upper-triangular group.

    One step scales the leafwise plane by e^alpha_step and translates it by
    beta_step; either component may vanish, not both.
    """

    _fields = ("alpha_step", "beta_step")

    def __init__(self, alpha_step, beta_step):
        a = _require_step(alpha_step, "alpha_step")
        b = _require_step(beta_step, "beta_step")
        if a == 0.0 and b == 0.0:
            raise ValueError("alpha_step and beta_step cannot both be zero")
        self._store(alpha_step, beta_step)


class Sol3U(FrozenRecord):
    """Intrinsic solvable-group translation along the horizontal eigenline.

    Torus bundle only: one step right-multiplies the section coordinates by
    the embedded affine element with scale 1 and translation beta_step.
    """

    _fields = ("beta_step",)

    def __init__(self, beta_step):
        if _require_step(beta_step, "beta_step") == 0.0:
            raise ValueError("beta_step must be nonzero")
        self._store(beta_step)


class DualBoundaryIterate(FrozenRecord):
    """Discrete iteration of the monodromy on the compactified dual boundary.

    Torus bundle only: one step maps (xi, y') to (lam * xi, y' / lam) with
    integer time; no interpolation between steps.
    """


FLOW_KINDS = (HorocycleU, GeodesicD, BorelB, Sol3U, DualBoundaryIterate)


def flow_time_step(flow):
    """Positive elapsed time attached to one step of the flow."""
    if isinstance(flow, (HorocycleU, GeodesicD)):
        return abs(flow.time_step)
    if isinstance(flow, BorelB):
        return math.hypot(flow.alpha_step, flow.beta_step)
    if isinstance(flow, Sol3U):
        return abs(flow.beta_step)
    if isinstance(flow, DualBoundaryIterate):
        return 1.0
    raise TypeError("unknown flow kind: %r" % (flow,))


def flow_label(flow):
    """Compact deterministic label for reports and file legends."""
    if isinstance(flow, HorocycleU):
        return "HorocycleU(%r)" % flow.time_step
    if isinstance(flow, GeodesicD):
        return "GeodesicD(%r)" % flow.time_step
    if isinstance(flow, BorelB):
        return "BorelB(%r,%r)" % (flow.alpha_step, flow.beta_step)
    if isinstance(flow, Sol3U):
        return "Sol3U(%r)" % flow.beta_step
    if isinstance(flow, DualBoundaryIterate):
        return "DualBoundaryIterate"
    raise TypeError("unknown flow kind: %r" % (flow,))


def surface_step_element(flow):
    """The frame-bundle right step element of a flow on a surface model."""
    if isinstance(flow, HorocycleU):
        return MoebiusElement.u(flow.time_step)
    if isinstance(flow, GeodesicD):
        return MoebiusElement.geo(math.exp(0.5 * flow.time_step))
    if isinstance(flow, BorelB):
        alpha = math.exp(0.5 * flow.alpha_step)
        return MoebiusElement.b_el(alpha, flow.beta_step / alpha)
    raise ValueError("flow %s is not defined on surface models" % flow_label(flow))


def sol_step_increment(flow, log_lam):
    """The right solvable-group step of a flow in section coordinates."""
    if isinstance(flow, (HorocycleU, Sol3U)):
        step = flow.time_step if isinstance(flow, HorocycleU) else flow.beta_step
        return (step, 0.0, 0.0)
    if isinstance(flow, GeodesicD):
        return (0.0, 0.0, flow.time_step / log_lam)
    if isinstance(flow, BorelB):
        return (flow.beta_step, 0.0, flow.alpha_step / log_lam)
    raise ValueError("flow %s has no section coordinates" % flow_label(flow))


class OrbitSegment:
    """A sampled orbit: flat coordinate rows with provenance fields.

    `values` holds each sample's coordinates, row after row, `width =
    len(coord_names)` of them per row; row 0 is the reduced start.  Row j
    is sampled at time (flow_time_step(flow) * sample_every) * j, row 0 at
    0.0.  `point(row)` builds the QuotientPoint of one row when `samples`,
    the (time, point) pairs, is first read; `start`, if given, is the point
    of row 0 itself.
    """

    def __init__(self, model, flow, values, seed, steps, coord_names,
                 sample_every, point, start=None):
        width = len(coord_names)
        if width < 1 or len(values) % width:
            raise ValueError("%d values do not fill rows of %d coordinates"
                             % (len(values), width))
        time_step = flow_time_step(flow) * sample_every
        # time_step * j never falls as j grows, and two times can only meet
        # once they overflow to inf, so the first and the last pair of
        # times stand for all of them.
        last = len(values) // width - 1
        if (last >= 1 and time_step <= 0.0) or (
            last >= 2 and time_step * last <= time_step * (last - 1)
        ):
            raise ValueError("sample times must increase strictly")
        self.model = model
        self.flow = flow
        self.values = values
        self.width = width
        self.seed = seed
        self.steps = steps
        self.coord_names = coord_names
        self._time_step = time_step
        self._point = point
        self._start = start
        self._samples = None

    def rows(self, start=0, stop=None):
        """An iterator over the coordinate tuples of rows start..stop-1."""
        values, w = self.values, self.width
        if start or stop is not None:
            values = values[start * w:None if stop is None else stop * w]
        return zip(*[iter(values)] * w)

    def times(self, start=0, stop=None):
        """An iterator over the sample times of rows start..stop-1."""
        stop = len(self) if stop is None else stop
        later = map(self._time_step.__mul__, range(max(start, 1), stop))
        return chain((0.0,), later) if start == 0 < stop else later

    @property
    def samples(self):
        """The (time, QuotientPoint) pairs, built on first read."""
        if self._samples is None:
            if self._start is None:
                points = map(self._point, self.rows())
            else:
                points = chain((self._start,), map(self._point, self.rows(1)))
            self._samples = tuple(zip(self.times(), points))
        return self._samples

    def __len__(self):
        return len(self.values) // self.width


def _validate_counts(steps, sample_every):
    if not isinstance(steps, int) or steps < 0:
        raise ValueError("steps must be a nonnegative integer")
    if steps > MAX_STEPS:
        raise ValueError("steps capped at %d" % MAX_STEPS)
    if not isinstance(sample_every, int) or sample_every < 1:
        raise ValueError("sample_every must be a positive integer")
    if steps // sample_every + 1 > MAX_SAMPLES:
        raise ValueError(
            "a run keeps steps // sample_every + 1 samples, capped at %d; "
            "raise sample_every" % MAX_SAMPLES
        )


def _surface_point(name, coords, boundary=False):
    frame = tangent_to_frame(
        TangentFrame(HalfPlanePoint(coords[0], coords[1]), coords[2])
    )
    transverse = BoundaryPoint(coords[3]) if boundary else None
    return QuotientPoint(name, tuple(coords), frame=frame, transverse=transverse)


def _integrate_surface(model, start, flow, steps, seed, sample_every, rng):
    if start is None:
        start = model.sample_point(rng)
    start_point, trans_state = model.kernel_start(start)
    values, _, _ = model.kernel_orbit(
        start_point.frame.entries, surface_step_element(flow).entries, steps,
        sample_every, trans_state,
    )
    names = model.coord_names()
    values[:len(names)] = array("d", start_point.coords)
    point = partial(_surface_point, model.name,
                    boundary=isinstance(start_point.transverse, BoundaryPoint))
    return OrbitSegment(
        model.name, flow, values, seed, steps, names, sample_every, point,
        start_point,
    )


def _integrate_torus_bundle(model, start, flow, steps, seed, sample_every, rng):
    if start is None:
        start = model.sample_point(rng)
    start_point = model.reduce(start.coords)
    state = model.state_from_point(start_point)
    sol = sol_step_increment(flow, model.log_lam)
    eigen = (model.a_prime, model.b_prime, model.c_prime, model.d_prime)
    values, _ = _kernels.t3a_orbit(state, model.lam, eigen, sol, steps,
                                   sample_every)
    names = model.coord_names()
    values[:len(names)] = array("d", start_point.coords)
    return OrbitSegment(
        model.name, flow, values, seed, steps, names, sample_every,
        partial(QuotientPoint, model.name), start_point,
    )


def dual_boundary_state(start):
    """Normalize a dual-boundary start to a (BoundaryPoint, y') pair."""
    if isinstance(start, QuotientPoint):
        theta, y_prime = start.coords
        return BoundaryPoint(theta), float(y_prime)
    xi, y_prime = start
    if not isinstance(xi, BoundaryPoint):
        xi = BoundaryPoint.from_real(float(xi))
    return xi, float(y_prime)


def _integrate_dual_boundary(model, start, flow, steps, seed, sample_every, rng):
    if start is None:
        start = (BoundaryPoint(rng.uniform(-math.pi, math.pi)), rng.uniform(-1.0, 1.0))
    xi, y_prime = dual_boundary_state(start)
    a, b, c, d = MoebiusElement.geo(math.sqrt(model.lam)).entries
    theta = xi.theta
    # sized exactly, as the kernels size theirs
    values = array("d", [0.0]) * (2 * (steps // sample_every + 1))
    values[0] = theta
    values[1] = y_prime
    j = 2
    for n in range(1, steps + 1):
        theta = boundary_angle(a, b, c, d, theta)
        y_prime /= model.lam
        if n % sample_every == 0:
            values[j] = theta
            values[j + 1] = y_prime
            j += 2
    # Sample j sits at step n = sample_every * j, and the float time
    # 1.0 * sample_every * j is exactly n.
    return OrbitSegment(
        DUAL_MODEL_ID, flow, values, seed, steps, DUAL_COORD_NAMES,
        sample_every, partial(QuotientPoint, DUAL_MODEL_ID),
    )


def integrate_orbit(model, start, flow, steps, seed=None, sample_every=1):
    """Iterate the right action, reducing every step; returns the sampled orbit.

    start is a reduced or reducible quotient point of the model, or None to
    draw one from the model's sampler with the given seed; the dual boundary
    iteration instead takes a (boundary point, y') pair.  The segment always
    includes the reduced start at time zero.  Every reduction that does not
    settle raises ValueError: a kernel's names the step index, the modular
    start reduction's names its cap.
    """
    if not isinstance(flow, FLOW_KINDS):
        raise TypeError("unknown flow kind: %r" % (flow,))
    _validate_counts(steps, sample_every)
    rng = random.Random(seed)
    if isinstance(model, TorusBundleModel):
        if isinstance(flow, DualBoundaryIterate):
            return _integrate_dual_boundary(
                model, start, flow, steps, seed, sample_every, rng
            )
        return _integrate_torus_bundle(
            model, start, flow, steps, seed, sample_every, rng
        )
    if isinstance(flow, (Sol3U, DualBoundaryIterate)):
        raise ValueError(
            "flow %s is only defined on the torus bundle" % flow_label(flow)
        )
    if isinstance(model, (SurfaceModel, ProductModel)):
        return _integrate_surface(model, start, flow, steps, seed, sample_every, rng)
    raise TypeError("no integrator for model %r" % (model,))


# -- divergence detection -----------------------------------------------------


def escape_functional(model, flow):
    """The escape height used to flag divergent orbits, as a function of a
    sample's coordinate row.

    Modular-base models escape into the cusp, measured by the imaginary part
    of the reduced base point; the dual boundary iteration escapes toward
    (infinity, 0), measured by the inverted distance to it; every compact
    model reports constant zero.
    """
    if isinstance(flow, DualBoundaryIterate):

        def dual_escape(coords):
            theta, y_prime = coords
            gap = max(BoundaryPoint(theta).chordal(BoundaryPoint.infinity()),
                      abs(y_prime))
            return math.inf if gap == 0.0 else 1.0 / gap

        return dual_escape
    base = model.base if isinstance(model, ProductModel) else model
    if isinstance(base, ModularModel):
        return lambda coords: coords[1]
    return lambda coords: 0.0


def detect_divergence(model, start, flow, horizon, threshold, seed=None):
    """Scan an orbit for escape beyond the threshold within the horizon.

    horizon counts steps; the report carries the first sample time at which
    the escape functional exceeded the threshold, or None.  It reads the
    segment's rows and builds no sample point.
    """
    segment = integrate_orbit(model, start, flow, horizon, seed=seed)
    escape = escape_functional(model, flow)
    first_passage = None
    peak = -math.inf
    for time, coords in zip(segment.times(), segment.rows()):
        value = escape(coords)
        peak = max(peak, value)
        if first_passage is None and value > threshold:
            first_passage = time
    return {
        "diverged": first_passage is not None,
        "first_passage": first_passage,
        "max_escape": peak,
    }


# -- boundary limit experiments ----------------------------------------------

ESTIMATE_FLOOR = 100_000
EXCLUSION_RADIUS = 0.01
_BOUNDARY_GAP = 1e-6


def boundary_grid(count=64):
    """Evenly spaced boundary sample points ending at the point at infinity."""
    if count < 1:
        raise ValueError("count must be positive")
    return tuple(
        BoundaryPoint(-math.pi + 2.0 * math.pi * j / count)
        for j in range(1, count + 1)
    )


def _disk_coords(z):
    # The disk chart (z - i)/(z + i); boundary angle phi maps to theta = phi - pi.
    w = (z - 1j) / (z + 1j)
    return w


def _limit_on_boundary(maps, z0, budget, tol):
    """Boundary limit of f_n(z0) by a Cauchy test in the disk chart."""
    prev = _disk_coords(complex(z0))
    used = 0
    for n, f in enumerate(maps, start=1):
        if n > budget:
            break
        w = _disk_coords(f.apply(complex(z0)))
        used = n
        if abs(w - prev) < tol:
            if abs(w) < 1.0 - _BOUNDARY_GAP:
                raise ValueError(
                    "orbit of the base point settled inside the plane; "
                    "no boundary limit (elliptic or identity behavior)"
                )
            return BoundaryPoint(math.atan2(w.imag, w.real) - math.pi), used
        prev = w
    raise ValueError(
        "no boundary limit within %d iterations (tol %g)" % (used, tol)
    )


def _powers(g):
    f = g
    while True:
        yield f
        f = f.mul(g)


def keylemma_converge(
    generator,
    z0=1j,
    grid=None,
    n_max=200,
    tol=1e-9,
    exclusion=EXCLUSION_RADIUS,
    pass_tol=None,
):
    """Measure boundary convergence of an expanding sequence of group elements.

    generator is a single element (the sequence is its powers) or an explicit
    sequence of elements.  The two boundary limits are estimated from the
    orbit of z0 and its orbit under the inverses; every grid point at chordal
    distance at least `exclusion` from the repelling limit is then pushed
    through the n_max-th map and compared against the attracting limit.

    Returns a report dict with the limits, the final max residual with the
    grid point attaining it, and the per-iteration residual history; when
    pass_tol is given, also the first iteration at which each tracked grid
    point came within pass_tol of the attracting limit.

    Raises ValueError when either boundary limit fails to materialize within
    the iteration budget, as happens for elliptic or identity input.
    """
    if grid is None:
        grid = boundary_grid()
    explicit = not isinstance(generator, MoebiusElement)
    if explicit:
        seq = tuple(generator)
        if not seq:
            raise ValueError("empty map sequence")
        n_max = min(n_max, len(seq))
        budget = len(seq)
        forward = iter(seq)
        backward = (f.inv() for f in seq)
    else:
        budget = max(n_max, ESTIMATE_FLOOR)
        forward = _powers(generator)
        backward = _powers(generator.inv())
    xi_plus, plus_steps = _limit_on_boundary(forward, z0, budget, tol)
    xi_minus, minus_steps = _limit_on_boundary(backward, z0, budget, tol)

    tracked = [xi for xi in grid if xi.chordal(xi_minus) >= exclusion]
    # The grid moves as raw angles, one boundary_angle per point and power,
    # and the residual is BoundaryPoint.chordal against xi_plus, written out.
    # boundary_angle stays a call: a flow run without cached bytecode
    # compiles flows.py, and writing it out here raised its peak memory.
    start = [xi.theta for xi in tracked]
    current = start
    plus = xi_plus.theta
    history = []
    first_passage = [None] * len(tracked)
    passage_tol = -math.inf if pass_tol is None else pass_tol
    sin = math.sin
    if not explicit:
        a, b, c, d = generator.entries
    for n in range(1, n_max + 1):
        if explicit:
            a, b, c, d = seq[n - 1].entries
            current = start
        moved = []
        worst = 0.0
        for idx, t in enumerate(current):
            t = boundary_angle(a, b, c, d, t)
            moved.append(t)
            residual = abs(2.0 * sin(0.5 * (t - plus)))
            if residual > worst:
                worst = residual
            if residual < passage_tol and first_passage[idx] is None:
                first_passage[idx] = n
        current = moved
        history.append(worst)
    max_residual = 0.0
    worst_xi = None
    for start_xi, t in zip(tracked, current):
        residual = abs(2.0 * math.sin(0.5 * (t - plus)))
        if residual >= max_residual:
            max_residual = residual
            worst_xi = start_xi
    report = {
        "xi_plus": xi_plus,
        "xi_minus": xi_minus,
        "max_residual": max_residual,
        "worst_xi": worst_xi,
        "residual_history": tuple(history),
        "plus_steps": plus_steps,
        "minus_steps": minus_steps,
        "tracked_grid": tuple(tracked),
    }
    if pass_tol is not None:
        report["first_passage"] = tuple(first_passage)
    return report
