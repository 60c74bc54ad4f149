"""Divergence detection: whether an orbit escapes to infinity.

The source paper contrasts Hedlund's density of horocycles on a compact
surface with the cusped modular surface, whose geodesics can leave every
compact set.  `detect_divergence` scans an orbit for that escape.  Neither
`horoflow flow` nor `density` loads this module, so neither compiles it
where no bytecode is cached.
"""

import math

from horoflow import flows
from horoflow.flows import DualBoundaryIterate, flow_time_step
from horoflow.models import ModularModel, ProductModel
from horoflow.moebius import BoundaryPoint

# The ValueError both modular kernels raise, the step index after it, when
# a frame climbs the cusp until c * c + d * d underflows to 0.
CUSP_ESCAPE = "frame escaped into the cusp at step "


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
    segment's rows and builds no sample point.  A frame that escapes into
    the cusp, where the kernel cannot follow it, has diverged: the run is
    scanned again up to the step that escaped, the escape is infinite, and
    the first passage is the time at the end of that step if no sample
    passed the threshold before it.
    """
    if start is None and seed is None:
        # one random start, for the run and for its scan up to an escape
        start = flows.integrate_orbit(model, None, flow, 0).samples[0][1]
    # through the module, so that a wrapper of flows.integrate_orbit sees
    # these runs too
    try:
        segment = flows.integrate_orbit(model, start, flow, horizon, seed=seed)
        escaped = None
    except ValueError as exc:
        message = str(exc)
        if not message.startswith(CUSP_ESCAPE):
            raise
        escaped = int(message[len(CUSP_ESCAPE):])
        segment = flows.integrate_orbit(model, start, flow, escaped, seed=seed)
    escape = escape_functional(model, flow)
    first_passage = None
    peak = -math.inf
    for time, coords in zip(segment.times(), segment.rows()):
        value = escape(coords)
        peak = max(peak, value)
        if first_passage is None and value > threshold:
            first_passage = time
    if escaped is not None:
        peak = math.inf
        if first_passage is None:
            first_passage = flow_time_step(flow) * (escaped + 1)
    return {
        "diverged": first_passage is not None,
        "first_passage": first_passage,
        "max_escape": peak,
    }
