"""Products of a surface model with a transverse factor via holonomy.

A product model carries the base surface group action to pairs: a reduction
step that left-multiplies the frame by a generator simultaneously moves the
transverse coordinate by that generator's holonomy image.  Pairs are reduced
by one identity step of the base model's orbit kernel, which carries no
transverse, the boundary circle under the diagonal holonomy, or rotations.
A product over the modular base thus reduces through the modular kernel,
which may differ from `ModularModel.reduce` in the last bits.
Two stock holonomies matter here:

* the diagonal boundary model, where the transverse factor is the boundary
  circle and every generator acts by its own Mobius element; its unique
  closed invariant graph is the set of pairs (frame, frame(infinity));

* seeded rotations, a pseudorandom assignment into the rotation group used
  as a stand-in for a dense holonomy representation.  The octagon relator
  must die under the holonomy, so the assignment is paired: generators 0, 1
  share one quaternion and 2, 3 share another, which the alternating relator
  word cancels exactly.  Dense-looking but not certified injective.
"""

from __future__ import annotations

import math
import random

from horoflow import _kernels
from horoflow.groups import (
    BOUNDARY_CIRCLE,
    ROTATIONS3,
    TRIVIAL,
    quat_normalize,
)
from horoflow.models.base import IDENTITY_STEP, NO_TRANSVERSE, QuotientPoint
from horoflow.models.modular import ModularModel
from horoflow.models.octagon import OctagonModel
from horoflow.models.t3a import TorusBundleModel
from horoflow.moebius import BoundaryPoint, MoebiusElement

# transverse space -> (kernel kind, pack into the kernel's state, unpack)
_PACKING = {
    TRIVIAL: (_kernels.TRANS_NONE, lambda y: NO_TRANSVERSE, lambda t: None),
    BOUNDARY_CIRCLE: (
        _kernels.TRANS_BOUNDARY,
        lambda y: (y.theta, 0.0, 0.0, 0.0),
        lambda t: BoundaryPoint(t[0]),
    ),
    ROTATIONS3: (_kernels.TRANS_ROTATION, tuple, lambda t: t),
}


class ProductModel:
    """Surface model crossed with a transverse factor through a holonomy."""

    def __init__(self, base, space, holonomy, name):
        """holonomy: one transverse element per independent base generator."""
        expected = len(base.independent_generators())
        if len(holonomy) != expected:
            raise ValueError(
                "holonomy must assign %d elements, got %d"
                % (expected, len(holonomy))
            )
        self.base = base
        self.space = space
        self.holonomy = list(holonomy)
        self.name = name
        self._letter_images = [
            self._image_of_letter(k) for k in range(base.letter_count())
        ]
        # the kernel's transverse arguments, built once
        if space not in _PACKING or (
                space is BOUNDARY_CIRCLE and not self.diagonal()):
            raise ValueError("no orbit kernel for this %s holonomy" % space.name)
        self.trans_kind, self.pack_transverse, self._unpack = _PACKING[space]
        self.trans_quats = None
        if space is ROTATIONS3:
            self.trans_quats = tuple(
                x for k in base.kernel_letters for x in self._letter_images[k]
            )

    def _image_of_letter(self, k):
        j, inverted = self.base.letter_generator(k)
        image = self.holonomy[j]
        return self.space.inverse(image) if inverted else image

    def letter_transverse(self, k):
        return self._letter_images[k]

    def diagonal(self):
        return self.space is BOUNDARY_CIRCLE and all(
            img.close_to(gen, 1e-12)
            for img, gen in zip(self.holonomy, self.base.independent_generators())
        )

    # -- reduction of (frame, transverse) pairs ------------------------------

    def kernel_orbit(self, frame, step, steps, sample_every, trans_state):
        """The base model's kernel, moving the packed transverse state."""
        return self.base.kernel_orbit(
            frame, step, steps, sample_every, trans_state, self.trans_kind,
            self.trans_quats,
        )

    def reduce_state(self, f, y):
        """Reduce the pair in one kernel step by the identity; the frame is
        rebuilt sign-canonical."""
        _, frame, trans = self.kernel_orbit(
            f.entries, IDENTITY_STEP, 1, 1, self.pack_transverse(y)
        )
        return MoebiusElement(*frame), self._unpack(trans)

    def reduce(self, f, y):
        reduced, y = self.reduce_state(f, y)
        return self.point_from_state(reduced, y)

    def kernel_start(self, point):
        """The reduced start point and its packed transverse state."""
        start = self.reduce(point.frame, point.transverse)
        return start, self.pack_transverse(start.transverse)

    def point_from_state(self, f, y):
        base_point = self.base.point_from_frame(f)
        return QuotientPoint(
            self.name,
            base_point.coords + self.space.point_coords(y),
            frame=f,
            transverse=y,
        )

    def points_close(self, p, q, tol=1e-9):
        if p.frame.close_to(q.frame, tol):
            if self.space.point_dist(p.transverse, q.transverse) <= tol:
                return True
        for k in range(self.base.letter_count()):
            if self.base.letter(k).mul(p.frame).close_to(q.frame, tol):
                moved = self.space.act(self._letter_images[k], p.transverse)
                if self.space.point_dist(moved, q.transverse) <= tol:
                    return True
        return False

    def sample_point(self, rng):
        base_point = self.base.sample_point(rng)
        y = self.sample_transverse(rng)
        return self.point_from_state(base_point.frame, y)

    def sample_transverse(self, rng):
        if self.space is BOUNDARY_CIRCLE:
            return BoundaryPoint(rng.uniform(-math.pi, math.pi))
        if self.space is ROTATIONS3:
            return random_unit_quaternion(rng)
        if self.space is TRIVIAL:
            return None
        raise ValueError("no transverse sampler for %s" % self.space.name)

    def coord_names(self):
        return self.base.coord_names() + self.space.coord_names()

    def coverage_box(self):
        return self.base.coverage_box()

    def default_ranges(self, flow):
        """The base's density ranges, then the transverse coordinates':
        (polar, azimuth) for rotations, the angle for the boundary circle."""
        if self.space is ROTATIONS3:
            fiber = ((0.0, math.pi), (0.0, 2.0 * math.pi))
        elif self.space is BOUNDARY_CIRCLE:
            fiber = ((-math.pi, math.pi),)
        else:
            fiber = ()
        return self.base.default_ranges(flow) + fiber

    # -- the invariant graph of the diagonal model ---------------------------

    def graph_point(self, f):
        """The minimal-set point over the frame f: pair it with f(infinity)."""
        if not self.diagonal():
            raise ValueError("graph points exist only in the diagonal model")
        return self.point_from_state(f, f.boundary_image_of_infinity())


def random_unit_quaternion(rng):
    """Uniform rotation, via the subgroup algorithm on three uniforms."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    r1 = math.sqrt(1.0 - u1)
    r2 = math.sqrt(u1)
    return quat_normalize(
        (
            r2 * math.cos(2.0 * math.pi * u3),
            r1 * math.sin(2.0 * math.pi * u2),
            r1 * math.cos(2.0 * math.pi * u2),
            r2 * math.sin(2.0 * math.pi * u3),
        )
    )


def seeded_rotation_holonomy(base, seed):
    """Deterministic paired quaternion assignment killing the base relator.

    The octagon relator word uses each generator once with exponent +1 and
    once with -1, alternating two pairs; sending generators 0 and 1 to one
    rotation and 2 and 3 to another makes the image collapse letter by
    letter, independent of the seed.
    """
    rng = random.Random(seed)
    q = random_unit_quaternion(rng)
    p = random_unit_quaternion(rng)
    n = len(base.independent_generators())
    if n == 4:
        return [q, q, p, p]
    # modular base: no relator to kill beyond S^2, which the transverse
    # factor need not honor for a stand-in holonomy; use independent draws
    return [q, p][:n]


def build_product(base, space, holonomy=None, seed=None, name=None):
    """Assemble a product model.

    Pass `holonomy` for explicit images of the independent generators, or
    `seed` for the seeded rotation assignment.  Two factors come with a
    default: the trivial factor, and the boundary factor, which uses the
    diagonal holonomy.
    """
    if space is TRIVIAL:
        images = [None] * len(base.independent_generators())
        return ProductModel(base, space, images, name or base.name)
    if holonomy is not None:
        return ProductModel(base, space, holonomy, name or base.name + "_product")
    if space is BOUNDARY_CIRCLE:
        return ProductModel(
            base,
            space,
            list(base.independent_generators()),
            name or base.name + "_boundary",
        )
    if space is ROTATIONS3:
        if seed is None:
            raise ValueError("seeded rotation holonomy needs a seed")
        return ProductModel(
            base,
            space,
            seeded_rotation_holonomy(base, seed),
            name or base.name + "_so3",
        )
    raise ValueError("no default holonomy for %s" % space.name)


def minimal_set_distance(model, point):
    """Distance of a point from the model's distinguished minimal set.

    Diagonal boundary product: the invariant graph pairs each frame with its
    boundary image of infinity, so the distance is chordal between the
    transverse coordinate and frame(infinity).  Torus bundle: the dual
    action on (boundary, fibre) pairs funnels everything toward the line
    over infinity, and the distance is chordal to infinity.
    """
    if isinstance(model, TorusBundleModel):
        xi, _y = point
        return xi.chordal(BoundaryPoint.infinity())
    if isinstance(model, ProductModel) and model.diagonal():
        frame = point.frame if isinstance(point, QuotientPoint) else point[0]
        xi = point.transverse if isinstance(point, QuotientPoint) else point[1]
        return xi.chordal(frame.boundary_image_of_infinity())
    raise ValueError(
        "no distinguished minimal set wired up for this model"
    )
