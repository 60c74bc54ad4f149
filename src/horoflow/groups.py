"""Transverse factors, product elements, word balls and projection heuristics.

A product element pairs a Mobius part with an element of a transverse factor:
nothing (Trivial), an orientation-preserving affine map of the line
(RealAffine), a rotation of 3-space stored as a unit quaternion up to sign
(Rotations3), or a second Mobius element acting on the boundary circle
(BoundaryCircle).  Finitely generated subgroups of such products are explored
through word balls with canonical-key deduplication, which is what the
semi-parabolic audit and the projection classifier run on.

The classifier's labels end in "Candidate" on purpose: discreteness and
density admit no finite numerical certificate, so the decision procedure is a
documented heuristic over a finite ball.
"""

import enum
import math
import struct

from horoflow._record import Record
from horoflow.moebius import (
    KEY_QUANTUM,
    BoundaryPoint,
    ElementClass,
    MoebiusElement,
    classify_element,
    fixed_points,
    hyp_dist,
)

WORD_BALL_RADIUS_CAP = 6
WORD_BALL_ELEMENT_BUDGET = 200_000
_PACK_KEY = struct.Struct("<4q").pack


class TransverseSpace:
    """Interface of a transverse factor; concrete kinds below."""

    name = "abstract"

    def identity(self):
        raise NotImplementedError

    def compose(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def act(self, g, point):
        raise NotImplementedError

    def is_identity(self, g, tol=1e-9):
        raise NotImplementedError

    def point_dist(self, x, y):
        raise NotImplementedError

    def key(self, g):
        raise NotImplementedError

    def point_coords(self, point):
        """Flat float coordinates of a point, for CSV emission."""
        raise NotImplementedError

    def coord_names(self):
        return ()

    def __repr__(self):
        return "%s()" % type(self).__name__


class TrivialSpace(TransverseSpace):
    name = "trivial"

    def identity(self):
        return None

    def compose(self, g, h):
        return None

    def inverse(self, g):
        return None

    def act(self, g, point):
        return None

    def is_identity(self, g, tol=1e-9):
        return True

    def point_dist(self, x, y):
        return 0.0

    def key(self, g):
        return ()

    def point_coords(self, point):
        return ()


class RealAffineSpace(TransverseSpace):
    """Maps y -> m*y + k with m > 0; composition (m1,k1)(m2,k2) =
    (m1*m2, m1*k2 + k1).  Points are plain floats."""

    name = "affine"

    def identity(self):
        return (1.0, 0.0)

    def make(self, m, k):
        m = float(m)
        if m <= 0.0:
            raise ValueError("affine dilation must be positive")
        return (m, float(k))

    def compose(self, g, h):
        return (g[0] * h[0], g[0] * h[1] + g[1])

    def inverse(self, g):
        return (1.0 / g[0], -g[1] / g[0])

    def act(self, g, point):
        return g[0] * point + g[1]

    def is_identity(self, g, tol=1e-9):
        return abs(g[0] - 1.0) <= tol and abs(g[1]) <= tol

    def point_dist(self, x, y):
        return abs(x - y)

    def key(self, g):
        return (round(g[0] / KEY_QUANTUM), round(g[1] / KEY_QUANTUM))

    def point_coords(self, point):
        return (point,)

    def coord_names(self):
        return ("fibre",)


def _quat_canonical(q):
    w, x, y, z = q
    for comp in (w, x, y, z):
        if comp > 1e-12:
            return (w, x, y, z)
        if comp < -1e-12:
            return (-w, -x, -y, -z)
    return (w, x, y, z)


def quat_mul(q1, q2):
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_normalize(q):
    n = math.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + q[3] ** 2)
    if n == 0.0:
        raise ValueError("zero quaternion")
    return _quat_canonical((q[0] / n, q[1] / n, q[2] / n, q[3] / n))


def quat_rotate_vector(q, v):
    """Image of a 3-vector under the rotation of a unit quaternion."""
    w, x, y, z = q
    vx, vy, vz = v
    # q * (0, v) * conj(q), expanded
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


class Rotations3Space(TransverseSpace):
    """Rotation group of 3-space as unit quaternions with +-q identified.

    Elements and points are both quaternions (the group acting on itself);
    the sphere projection used for plots lives in point_coords.
    """

    name = "rotations3"

    def identity(self):
        return (1.0, 0.0, 0.0, 0.0)

    def make(self, w, x, y, z, tol=1e-9):
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if abs(n - 1.0) > tol:
            raise ValueError("quaternion norm %g is not 1 within %g" % (n, tol))
        return quat_normalize((w, x, y, z))

    def compose(self, g, h):
        return quat_normalize(quat_mul(g, h))

    def inverse(self, g):
        return _quat_canonical((g[0], -g[1], -g[2], -g[3]))

    def act(self, g, point):
        return quat_normalize(quat_mul(g, point))

    def is_identity(self, g, tol=1e-9):
        return abs(abs(g[0]) - 1.0) <= tol and (
            abs(g[1]) <= tol and abs(g[2]) <= tol and abs(g[3]) <= tol
        )

    def point_dist(self, x, y):
        dot = abs(x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3])
        return 2.0 * math.acos(min(1.0, dot))

    def key(self, g):
        return tuple(round(comp / KEY_QUANTUM) for comp in g)

    def point_coords(self, point):
        # image of the north pole: polar and azimuthal angle
        vx, vy, vz = quat_rotate_vector(point, (0.0, 0.0, 1.0))
        return (math.acos(max(-1.0, min(1.0, vz))), math.atan2(vy, vx))

    def coord_names(self):
        return ("pole_polar", "pole_azimuth")


class BoundaryCircleSpace(TransverseSpace):
    """Mobius elements acting on the boundary circle of the half-plane."""

    name = "boundary"

    def identity(self):
        return MoebiusElement.identity()

    def compose(self, g, h):
        return g.mul(h)

    def inverse(self, g):
        return g.inv()

    def act(self, g, point):
        return g.apply_boundary(point)

    def is_identity(self, g, tol=1e-9):
        return g.is_identity(tol)

    def point_dist(self, x, y):
        return x.chordal(y)

    def key(self, g):
        return g.key()

    def point_coords(self, point):
        return (point.theta,)

    def coord_names(self):
        return ("xi_theta",)


TRIVIAL = TrivialSpace()
REAL_AFFINE = RealAffineSpace()
ROTATIONS3 = Rotations3Space()
BOUNDARY_CIRCLE = BoundaryCircleSpace()


class ProductElement:
    """Pair of a Mobius element and a transverse element."""

    __slots__ = ("m", "g", "space")

    def __init__(self, m, g, space=TRIVIAL):
        self.m = m
        self.g = g
        self.space = space

    @staticmethod
    def plain(m):
        return ProductElement(m, None, TRIVIAL)

    def mul(self, other):
        if other.space is not self.space:
            raise ValueError("transverse kinds differ: %s vs %s"
                             % (self.space.name, other.space.name))
        return ProductElement(
            self.m.mul(other.m), self.space.compose(self.g, other.g), self.space
        )

    def inv(self):
        return ProductElement(self.m.inv(), self.space.inverse(self.g), self.space)

    def is_identity(self, tol=1e-9):
        return self.m.is_identity(tol) and self.space.is_identity(self.g, tol)

    def key(self):
        return (self.m.key(), self.space.key(self.g))

    def apply_pair(self, pair):
        """Act on a (boundary point, transverse point) pair componentwise."""
        xi, y = pair
        return (self.m.apply_boundary(xi), self.space.act(self.g, y))

    def __repr__(self):
        return "ProductElement(%r, %r, %s)" % (self.m, self.g, self.space.name)


class GeneratedGroup:
    """Ordered, named generating set of product elements (inverses implicit)."""

    def __init__(self, generators, space=None):
        """generators: list of (name, ProductElement); all on one space."""
        if not generators:
            raise ValueError("empty generator list")
        names = [n for n, _ in generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        sp = generators[0][1].space if space is None else space
        for name, pe in generators:
            if pe.space is not sp:
                raise ValueError("generator %s lives on a different space" % name)
            if pe.is_identity():
                raise ValueError("generator %s equals the identity" % name)
        self.generators = list(generators)
        self.space = sp

    @staticmethod
    def from_moebius(pairs):
        return GeneratedGroup([(n, ProductElement.plain(m)) for n, m in pairs])

    def letters(self):
        """Generators and their inverses as (display name, element, undo index).

        Self-inverse generators contribute a single letter.  The undo index
        marks the letter that cancels this one, used to keep words reduced.
        """
        out = []
        for name, pe in self.generators:
            inv = pe.inv()
            if inv.key() == pe.key():
                idx = len(out)
                out.append((name, pe, idx))
            else:
                idx = len(out)
                out.append((name, pe, idx + 1))
                out.append((name + "~", inv, idx))
        return out


class WordBall(Record):
    _fields = ("radius", "elements")

    def __init__(self, radius, elements):
        self.radius = radius
        self.elements = elements  # of (word tuple, ProductElement), identity first

    def __len__(self):
        return len(self.elements)


def word_ball(group, radius, radius_cap=WORD_BALL_RADIUS_CAP,
              budget=WORD_BALL_ELEMENT_BUDGET):
    """All products of at most `radius` generators or inverses, in a list;
    see iter_word_ball."""
    return WordBall(
        radius, list(iter_word_ball(group, radius, radius_cap, budget)))


def iter_word_ball(group, radius, radius_cap=WORD_BALL_RADIUS_CAP,
                   budget=WORD_BALL_ELEMENT_BUDGET):
    """Yield (word tuple, ProductElement) for every product of at most
    `radius` generators or inverses, identity first.

    Words are kept reduced (no letter followed by its undo) and collapsed by
    canonical key, so group relations shrink the ball instead of bloating it.
    Deterministic breadth-first order.  A bad radius raises here, at the
    call; the stream holds only the keys seen and the layer still to be
    extended, never the last layer.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > radius_cap:
        raise ValueError(
            "radius %d exceeds the cap %d; raise radius_cap explicitly if you "
            "really want this" % (radius, radius_cap)
        )
    return _ball_stream(group, radius, budget)


def _seen_key(elem):
    """elem.key(), packed into 32 bytes when the transverse key is empty
    and the Mobius key fits int64.  A key always takes the same form and
    packing is one to one, so the dedup classes are the plain keys'."""
    mkey, tkey = elem.key()
    if not tkey:
        try:
            return _PACK_KEY(*mkey)
        except struct.error:
            pass
    return (mkey, tkey)


def _ball_stream(group, radius, budget):
    letters = group.letters()
    identity = ProductElement(
        MoebiusElement.identity(), group.space.identity(), group.space
    )
    seen = {_seen_key(identity)}
    yield (), identity
    frontier = [((), identity, -1)]
    for layer in range(radius, 0, -1):
        next_frontier = []
        for word, elem, last in frontier:
            for li, (lname, lelem, undo) in enumerate(letters):
                if last >= 0 and letters[last][2] == li:
                    continue  # would cancel the previous letter
                new = elem.mul(lelem)
                k = _seen_key(new)
                if k in seen:
                    continue
                if len(seen) >= budget:
                    raise RuntimeError(
                        "word ball exceeded the element budget (%d)" % budget
                    )
                seen.add(k)
                longer = word + (lname,)
                yield longer, new
                if layer > 1:
                    next_frontier.append((longer, new, li))
        frontier = next_frontier


def detect_semi_parabolic(group, radius, **kw):
    """Ball elements whose Mobius part is parabolic and not the identity."""
    out = []
    for word, pe in iter_word_ball(group, radius, **kw):
        if pe.m.is_identity():
            continue
        if classify_element(pe.m) is ElementClass.PARABOLIC:
            out.append((word, pe))
    return out


class ProjectionClass(enum.Enum):
    DISCRETE_CANDIDATE = "DiscreteCandidate"
    FIXES_BOUNDARY_POINT = "FixesBoundaryPoint"
    ROTATION_LIKE = "RotationLike"
    DENSE_CANDIDATE = "DenseCandidate"


class ProjectionReport(Record):
    _fields = ("label", "gap", "boundary_point", "interior_point")

    def __init__(self, label, gap=None, boundary_point=None, interior_point=None):
        self.label = label
        self.gap = gap
        self.boundary_point = boundary_point
        self.interior_point = interior_point

    def describe(self):
        if self.label is ProjectionClass.DISCRETE_CANDIDATE:
            return "DiscreteCandidate(gap=%.6g)" % self.gap
        if self.label is ProjectionClass.FIXES_BOUNDARY_POINT:
            return "FixesBoundaryPoint(%r)" % self.boundary_point
        if self.label is ProjectionClass.ROTATION_LIKE:
            return "RotationLike(%.6g%+.6gi)" % (
                self.interior_point.real,
                self.interior_point.imag,
            )
        return "DenseCandidate"


def _frobenius_gap(m):
    a, b, c, d = m.entries
    to_plus = math.sqrt((a - 1.0) ** 2 + b * b + c * c + (d - 1.0) ** 2)
    to_minus = math.sqrt((a + 1.0) ** 2 + b * b + c * c + (d + 1.0) ** 2)
    return min(to_plus, to_minus)


def classify_psl_projection(group, radius=6, tol=0.05, **kw):
    """Heuristic type of the Mobius projection of a generated group.

    Decision order: a common boundary fixed point of all generators wins
    (FixesBoundaryPoint), then a common interior fixed point (RotationLike),
    then the identity gap over the word ball decides DiscreteCandidate versus
    DenseCandidate.  The labels are candidates, not certificates.
    """
    psl_parts = [pe.m for _, pe in group.generators]
    nontrivial = [m for m in psl_parts if not m.is_identity()]
    if not nontrivial:
        # every generator projects to Id; everything is fixed
        return ProjectionReport(
            ProjectionClass.FIXES_BOUNDARY_POINT,
            boundary_point=BoundaryPoint.infinity(),
        )

    first = nontrivial[0]
    kind = classify_element(first)
    if kind is not ElementClass.ELLIPTIC:
        pts, _ = fixed_points(first)
        for cand in pts:
            if all(m.apply_boundary(cand).chordal(cand) <= tol for m in nontrivial):
                return ProjectionReport(
                    ProjectionClass.FIXES_BOUNDARY_POINT, boundary_point=cand
                )
    else:
        (interior,), _ = fixed_points(first)
        z0 = interior.as_complex()
        if all(hyp_dist(m.apply(z0), z0) <= tol for m in nontrivial):
            return ProjectionReport(
                ProjectionClass.ROTATION_LIKE, interior_point=z0
            )

    ball = word_ball(group, radius, **kw)
    gap = math.inf
    for word, pe in ball.elements:
        if word == ():
            continue
        if pe.m.is_identity():
            # nontrivial transverse part over the identity Mobius part: the
            # projection collapses here, distance 0
            gap = 0.0
            break
        gap = min(gap, _frobenius_gap(pe.m))
    if gap > tol:
        return ProjectionReport(ProjectionClass.DISCRETE_CANDIDATE, gap=gap)
    return ProjectionReport(ProjectionClass.DENSE_CANDIDATE, gap=gap)
