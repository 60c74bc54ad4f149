"""Right-action orbit integration on the quotient models.

Flows are exact group translations, never ODE steps: each flow kind names a
one-parameter (or two-parameter) right translation, and one integration step
multiplies the current frame by a fixed step element and reduces back into
the fundamental domain.  The per-step reduction is the performance hot spot;
the heavy loops live in horoflow._kernels behind a compiled/pure switch.

An orbit segment is built from the flat array('d') of coordinates a
kernel returns and the sampling interval.  The kernel leaves row 0 zero and
writes its samples after it.  The integrator writes the reduced start into
row 0 in place, a same-length slice assignment; a resumed call, whose row 0
is no orbit row, deletes it in place instead.  So every buffer, a whole
run's or a chunk's, is allocated once and never copied into another, and
its coordinates are held once at their peak.
A run need not be held whole: orbit_chunks calls the kernel for CHUNK_ROWS
samples at a time and yields each call's rows as a segment of their own,
which coverage and the CSV writer read as they come, so the CLI's `flow`
and `density` hold one chunk at a time.  Each kernel call runs when its
chunk is read, in the process that reads it.  The segment derives each
row's time from the flow and builds sample points only when
`segment.samples` is first read.
Coverage, the CSV writer and divergence detection read only the
coordinates and times: coverage and the CSV writer by column from
`segment.values`, divergence detection row by row through
`segment.rows()`; sample points are for comparisons that need frames.
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
# Samples one integrate_orbit buffer may hold: each row is 8 B per
# coordinate, 24 to 40 B, so a whole-run buffer stays below 400 MB.  A
# stream (orbit_chunks), such as the CLI's, keeps one chunk at a time and
# is capped by MAX_STEPS alone.
MAX_SAMPLES = 10 ** 7
# Sample rows per kernel call of orbit_chunks: 64 * 32, a multiple of the
# kernels' renormalisation interval.
CHUNK_ROWS = 2048

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
    """A sampled orbit, or one chunk of it: flat coordinate rows with
    provenance fields.

    `values` holds each sample's coordinates, row after row, `width =
    len(coord_names)` of them per row.  Its row j is orbit row offset + j;
    a whole orbit and the first chunk of a stream have offset 0, and their
    row 0 is the reduced start.  Orbit row k is sampled at time
    time_step * k, time_step = flow_time_step(flow) * sample_every, and
    row 0 at 0.0.  `steps` is the whole run's.  `point(row)` builds the
    QuotientPoint of one row when `samples`, the (time, point) pairs, is
    first read; `start`, if given, is the point of row 0 itself.
    integrate_orbit sets `resume`, which continues the run.
    """

    def __init__(self, model, flow, values, seed, steps, coord_names,
                 sample_every, point, start=None, offset=0):
        width = len(coord_names)
        if width < 1 or len(values) % width:
            raise ValueError("%d values do not fill rows of %d coordinates"
                             % (len(values), width))
        self.time_step = _sample_time_step(
            flow, sample_every, offset + len(values) // width - 1)
        self.model = model
        self.flow = flow
        self.values = values
        self.width = width
        self.seed = seed
        self.steps = steps
        self.coord_names = coord_names
        self.offset = offset
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
        stop = self.offset + (len(self) if stop is None else stop)
        start += self.offset
        later = map(self.time_step.__mul__, range(max(start, 1), stop))
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


def _sample_time_step(flow, sample_every, last):
    """The time between samples of a run whose last row is `last`.

    time_step * k never falls as k grows, and two times can only meet once
    they overflow to inf, so the first and the last pair of times stand
    for all of them.
    """
    time_step = flow_time_step(flow) * sample_every
    if (last >= 1 and time_step <= 0.0) or (
        last >= 2 and time_step * last <= time_step * (last - 1)
    ):
        raise ValueError("sample times must increase strictly")
    return time_step


def _validate_counts(steps, sample_every, whole):
    if not isinstance(steps, int) or steps < 0:
        raise ValueError("steps must be a nonnegative integer")
    if steps > MAX_STEPS:
        raise ValueError("steps capped at %d" % MAX_STEPS)
    if not isinstance(sample_every, int) or sample_every < 1:
        raise ValueError("sample_every must be a positive integer")
    if whole and steps // sample_every + 1 > MAX_SAMPLES:
        raise ValueError(
            "one buffer keeps steps // sample_every + 1 samples, capped at "
            "%d; raise sample_every or stream the run" % MAX_SAMPLES
        )


def _surface_point(name, coords, boundary=False):
    frame = tangent_to_frame(
        TangentFrame(HalfPlanePoint(coords[0], coords[1]), coords[2])
    )
    transverse = BoundaryPoint(coords[3]) if boundary else None
    return QuotientPoint(name, tuple(coords), frame=frame, transverse=transverse)


def dual_boundary_state(start):
    """Normalize a dual-boundary start to a (BoundaryPoint, y') pair."""
    if isinstance(start, QuotientPoint):
        theta, y_prime = start.coords
        return BoundaryPoint(theta), float(y_prime)
    xi, y_prime = start
    if not isinstance(xi, BoundaryPoint):
        xi = BoundaryPoint.from_real(float(xi))
    return xi, float(y_prime)


def _dual_setup(model, start, rng):
    if start is None:
        start = (BoundaryPoint(rng.uniform(-math.pi, math.pi)), rng.uniform(-1.0, 1.0))
    xi, y_prime = dual_boundary_state(start)
    a, b, c, d = MoebiusElement.geo(math.sqrt(model.lam)).entries
    lam = model.lam

    def kernel(state, steps, sample_every, first_step):
        # A kernel in Python, with the kernels' buffer and call pattern;
        # no error here names a step, so first_step goes unused.  Sample j
        # sits at step n = sample_every * j, and the float time
        # 1.0 * sample_every * j is exactly n.
        theta, y_prime = state
        values = array("d", [0.0]) * (2 * (steps // sample_every + 1))
        j = 2
        for n in range(1, steps + 1):
            theta = boundary_angle(a, b, c, d, theta)
            y_prime /= lam
            if n % sample_every == 0:
                values[j] = theta
                values[j + 1] = y_prime
                j += 2
        return values, (theta, y_prime)

    head = (xi.theta, y_prime)
    return (kernel, head, head, None, partial(QuotientPoint, DUAL_MODEL_ID),
            DUAL_MODEL_ID, DUAL_COORD_NAMES)


def _orbit_setup(model, start, flow, rng):
    """(kernel, state, start row, start point, point builder, model name,
    coordinate names) of one run.  kernel(state, steps, sample_every,
    first_step) returns a buffer whose row 0 is left zero and the final
    state."""
    if isinstance(model, TorusBundleModel):
        if isinstance(flow, DualBoundaryIterate):
            return _dual_setup(model, start, rng)
        if start is None:
            start = model.sample_point(rng)
        start = model.reduce(start.coords)
        sol = sol_step_increment(flow, model.log_lam)
        eigen = (model.a_prime, model.b_prime, model.c_prime, model.d_prime)

        def kernel(state, steps, sample_every, first_step):
            return _kernels.t3a_orbit(state, model.lam, eigen, sol, steps,
                                      sample_every, first_step)

        return (kernel, model.state_from_point(start), start.coords, start,
                partial(QuotientPoint, model.name), model.name,
                model.coord_names())
    if isinstance(flow, (Sol3U, DualBoundaryIterate)):
        raise ValueError(
            "flow %s is only defined on the torus bundle" % flow_label(flow)
        )
    if not isinstance(model, (SurfaceModel, ProductModel)):
        raise TypeError("no integrator for model %r" % (model,))
    if start is None:
        start = model.sample_point(rng)
    start, trans_state = model.kernel_start(start)
    step = surface_step_element(flow).entries

    def kernel(state, steps, sample_every, first_step):
        values, frame, trans = model.kernel_orbit(
            state[0], step, steps, sample_every, state[1],
            first_step=first_step)
        return values, (frame, trans)

    point = partial(_surface_point, model.name,
                    boundary=isinstance(start.transverse, BoundaryPoint))
    return (kernel, (start.frame.entries, trans_state), start.coords, start,
            point, model.name, model.coord_names())


def _begin(model, start, flow, steps, seed, sample_every, whole=True):
    """Check a run's arguments, draw and reduce its start, and return the
    `resume` of its first integrate_orbit call.  A `whole` run, held in one
    buffer, keeps at most MAX_SAMPLES samples."""
    if not isinstance(flow, FLOW_KINDS):
        raise TypeError("unknown flow kind: %r" % (flow,))
    _validate_counts(steps, sample_every, whole)
    kernel, state, head, first, point, name, names = _orbit_setup(
        model, start, flow, random.Random(seed))
    _sample_time_step(flow, sample_every, steps // sample_every)
    make = partial(OrbitSegment, name, flow, seed=seed, steps=steps,
                   coord_names=names, sample_every=sample_every, point=point)
    return kernel, state, 0, array("d", head), first, make


def orbit_chunks(model, start, flow, steps, seed=None, sample_every=1):
    """integrate_orbit's orbit as consecutive OrbitSegment chunks.

    Each chunk comes from one kernel call of CHUNK_ROWS * sample_every
    steps, the last call taking the rest, so no buffer outgrows one chunk.
    The first chunk starts with the reduced start row, and each chunk's
    `offset` is the orbit row of its first row.  Since CHUNK_ROWS is a
    multiple of RENORM_EVERY, each kernel call starts its renormalisation
    and sample countdowns in phase with one whole-run call: the chunks join
    to integrate_orbit's rows bit for bit, and a kernel error names the
    step the whole-run call names.  The arguments are checked, and the
    start drawn and reduced, before this returns; the kernel runs as the
    chunks are read, in the process that reads them.
    """
    run = _begin(model, start, flow, steps, seed, sample_every, whole=False)
    return _chunks(model, flow, steps, seed, sample_every, run)


def _chunks(model, flow, steps, seed, sample_every, run):
    # Each chunk is an integrate_orbit call, so perfbench's tracer, which
    # wraps integrate_orbit, finds every kernel call of a stream inside one.
    per_call = CHUNK_ROWS * sample_every
    for done in range(0, max(steps, 1), per_call):
        chunk = integrate_orbit(model, None, flow, min(per_call, steps - done),
                                seed, sample_every, resume=run)
        run = chunk.resume
        yield chunk


def integrate_orbit(model, start, flow, steps, seed=None, sample_every=1,
                    resume=None):
    """Iterate the right action, reducing every step; returns the sampled orbit.

    start is a reduced or reducible quotient point of the model, or None to
    draw one from the model's sampler with the given seed; the dual boundary
    iteration instead takes a (boundary point, y') pair.  The segment always
    includes the reduced start at time zero.  The run is one kernel call,
    whose buffer the segment keeps, start row written in place.  Every
    reduction that does not settle raises ValueError: a kernel's names the
    step index, the modular start reduction's names its cap.

    The segment's `resume` lets the run go on: given as `resume`, the
    kernel makes `steps` more steps from where that segment's run stopped,
    start and seed are not read, and the segment holds the new samples
    only.  orbit_chunks streams a run this way.  A run that starts here
    keeps at most MAX_SAMPLES samples; a stream's calls keep a chunk each.
    """
    if resume is None:
        resume = _begin(model, start, flow, steps, seed, sample_every)
    kernel, state, done, head, first, make = resume
    values, state = kernel(state, steps, sample_every, done)
    if done:  # the kernel's zero row 0 is no orbit row; drop it in place
        del values[:len(head)]
        segment = make(values, offset=done // sample_every + 1)
    else:
        values[:len(head)] = head
        segment = make(values, start=first)
    segment.resume = (kernel, state, done + steps, head, first, make)
    return segment
