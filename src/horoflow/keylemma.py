"""Boundary limit experiments: the key lemma behind criterion 1.

An expanding sequence of Moebius elements contracts the boundary circle,
away from one repelling point, onto one attracting point.
`keylemma_converge` estimates both limits from the orbit of a base point
and measures how a grid of boundary points converges.  Nothing here
integrates an orbit, so `horoflow flow` and `density` never load this
module.
"""

import math

from horoflow._kernels import boundary_track
from horoflow.moebius import BoundaryPoint, MoebiusElement

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
    # The grid moves as raw angles, in one kernel call: n_max powers of the
    # generator from the previous iteration's angles, or each map of the
    # sequence from the start; residuals are BoundaryPoint.chordal against
    # xi_plus, written out.
    if explicit:
        maps = [v for f in seq[:max(n_max, 0)] for v in f.entries]
    else:
        maps = generator.entries * n_max
    _, history, first_passage, max_residual, worst = boundary_track(
        [xi.theta for xi in tracked], maps, explicit, xi_plus.theta,
        -math.inf if pass_tol is None else pass_tol,
    )
    report = {
        "xi_plus": xi_plus,
        "xi_minus": xi_minus,
        "max_residual": max_residual,
        "worst_xi": None if worst is None else tracked[worst],
        "residual_history": history,
        "plus_steps": plus_steps,
        "minus_steps": minus_steps,
        "tracked_grid": tuple(tracked),
    }
    if pass_tol is not None:
        report["first_passage"] = first_passage
    return report
