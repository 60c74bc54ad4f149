"""Shared plumbing for the concrete quotient models."""

import math

from horoflow._record import Record
from horoflow.groups import GeneratedGroup
from horoflow.moebius import MoebiusElement, frame_to_tangent


# One kernel step by the identity only reduces; a model without a
# transverse factor hands the kernel the zero transverse state.
IDENTITY_STEP = (1.0, 0.0, 0.0, 1.0)
NO_TRANSVERSE = (0.0, 0.0, 0.0, 0.0)


class QuotientPoint(Record):
    """A point of a quotient model in canonical coordinates.

    For the torus bundle the coordinates are (x, y, t) in [0,1)^3 and the
    frame is absent.  For surface models the frame is the reduced
    representative (base point in the fundamental domain) and `transverse`
    carries the fibre element of a product model, if any.  `coords` always
    holds the flat float coordinates used for CSV emission.
    """

    _fields = ("model", "coords", "frame", "transverse")

    def __init__(self, model, coords, frame=None, transverse=None):
        self.model = model
        self.coords = coords
        self.frame = frame
        self.transverse = transverse

    def __iter__(self):
        return iter(self.coords)


class SurfaceModel:
    """What the octagon and modular quotients share.

    A subclass supplies `name`, the reduction letters (`letter`,
    `letter_count`, `independent_generators`), `kernel_orbit`,
    `reduce_frame` and `coverage_box`.
    """

    def group(self):
        """The GeneratedGroup of the independent generators, named g0, g1, ..."""
        return GeneratedGroup.from_moebius(
            [("g%d" % i, g) for i, g in enumerate(self.independent_generators())]
        )

    def reduce(self, f):
        return self.point_from_frame(self.reduce_frame(f))

    def kernel_start(self, point):
        """The reduced start point and the kernel's empty transverse state."""
        return self.reduce(point.frame), NO_TRANSVERSE

    def point_from_frame(self, f):
        tangent = frame_to_tangent(f)
        return QuotientPoint(
            self.name,
            (tangent.base.re, tangent.base.im, tangent.direction),
            frame=f,
        )

    def points_close(self, p, q, tol=1e-9):
        """Orbit-aware frame comparison.

        Boundary representatives differ by one letter, so the direct
        comparison is backed up by a single-letter translate on either side.
        """
        f, g = p.frame, q.frame
        if f.close_to(g, tol):
            return True
        for k in range(self.letter_count()):
            if self.letter(k).mul(f).close_to(g, tol):
                return True
        return False

    def sample_point(self, rng):
        f = (
            MoebiusElement.u(rng.uniform(-2.0, 2.0))
            .mul(MoebiusElement.geo(math.sqrt(rng.uniform(0.3, 3.0))))
            .mul(MoebiusElement.rot(rng.uniform(-math.pi, math.pi)))
        )
        return self.point_from_frame(self.reduce_frame(f))

    def coord_names(self):
        return ("re", "im", "direction")

    def default_ranges(self, flow):
        """Density ranges of (re, im, direction): the coverage box, then the
        full circle of directions."""
        box = self.coverage_box()
        return (box[0], box[1], (0.0, 2.0 * math.pi))
