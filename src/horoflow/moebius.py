"""Scalar primitives for the group of Mobius transformations of the upper
half-plane.

Elements are stored as real 2x2 matrices with determinant one, considered up
to overall sign (so the class models PSL(2, R), not SL(2, R)).  A canonical
sign is fixed on construction: the lower-left entry is made positive, and if
it vanishes the upper-left entry is made positive instead.

Boundary points of the half-plane live on a circle and are stored as an angle
theta in (-pi, pi], with the point at infinity at theta = pi and the real
number x at theta = 2*atan(x).  Distances on the boundary use the chordal
metric |2 sin((t1 - t2)/2)|, which is bounded and treats infinity like any
other point.

The canonical sign and determinant rule and the boundary action also exist
as functions of raw entries, canonical_entries and boundary_angle, which the
class uses and which hot loops call to get the same bits without building an
element or a point per step.
"""

from __future__ import annotations

import enum
import math

SIGN_TOL = 1e-12
RENORM_TOL = 1e-12
CLASSIFY_TOL = 1e-9

_TAU = 2.0 * math.pi


class ElementClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def canonical_entries(a, b, c, d):
    """The entries MoebiusElement(a, b, c, d) stores, as a tuple.

    The determinant must be positive; a drift above RENORM_TOL is divided
    out, and the sign is chosen so that c > 0, or a >= 0 when |c| is within
    SIGN_TOL of zero.
    """
    det = a * d - b * c
    if not det > 0.0:
        raise ValueError(
            "matrix must have positive determinant, got det=%g" % det
        )
    if abs(det - 1.0) > RENORM_TOL:
        s = math.sqrt(det)
        a, b, c, d = a / s, b / s, c / s, d / s
    if c < -SIGN_TOL or (abs(c) <= SIGN_TOL and a < 0.0):
        return -a, -b, -c, -d
    return a, b, c, d


def boundary_angle(a, b, c, d, theta):
    """Angle of the image of the boundary point at angle theta under the
    matrix (a, b; c, d); MoebiusElement.apply_boundary wraps it.

    Works projectively on (sin(theta/2), cos(theta/2)), so the point at
    infinity needs no special casing and the result is well defined up to
    the matrix sign, though its last bits are those of apply_boundary only
    for canonical_entries.  The fold puts phi in (-pi/2, pi/2], so 2 * phi
    is already in (-pi, pi] and BoundaryPoint stores it unchanged.
    """
    half = 0.5 * theta
    p = math.sin(half)
    q = math.cos(half)
    phi = math.atan2(a * p + b * q, c * p + d * q)
    if phi <= -0.5 * math.pi:
        phi += math.pi
    elif phi > 0.5 * math.pi:
        phi -= math.pi
    return 2.0 * phi


class MoebiusElement:
    """A Mobius transformation z -> (a z + b) / (c z + d), up to sign.

    The constructor accepts any matrix with positive determinant and rescales
    it to determinant one when the drift exceeds RENORM_TOL, so results of
    long floating-point composition chains can be fed back in directly.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = canonical_entries(a, b, c, d)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity():
        return MoebiusElement(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def u(t):
        """Upper unipotent element (1, t; 0, 1): z -> z + t."""
        return MoebiusElement(1.0, float(t), 0.0, 1.0)

    @staticmethod
    def geo(lam):
        """Diagonal element (lam, 0; 0, 1/lam): z -> lam^2 z.  Needs lam > 0."""
        lam = float(lam)
        if lam <= 0.0:
            raise ValueError("diagonal parameter must be positive")
        return MoebiusElement(lam, 0.0, 0.0, 1.0 / lam)

    @staticmethod
    def b_el(alpha, beta):
        """Upper triangular element (alpha, beta; 0, 1/alpha), alpha > 0."""
        alpha = float(alpha)
        if alpha <= 0.0:
            raise ValueError("triangular diagonal parameter must be positive")
        return MoebiusElement(alpha, float(beta), 0.0, 1.0 / alpha)

    @staticmethod
    def rot(theta):
        """Rotation-type element (cos t, sin t; -sin t, cos t) fixing i."""
        ct, st = math.cos(theta), math.sin(theta)
        return MoebiusElement(ct, st, -st, ct)

    # -- algebra ---------------------------------------------------------

    def mul(self, other):
        return MoebiusElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __mul__ = mul

    def inv(self):
        return MoebiusElement(self.d, -self.b, -self.c, self.a)

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def trace_abs(self):
        return abs(self.a + self.d)

    def is_identity(self, tol=CLASSIFY_TOL):
        return (
            abs(self.a - 1.0) <= tol
            and abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.d - 1.0) <= tol
        )

    def close_to(self, other, tol=CLASSIFY_TOL):
        """Entrywise comparison; both sides are already sign-canonical."""
        return (
            abs(self.a - other.a) <= tol
            and abs(self.b - other.b) <= tol
            and abs(self.c - other.c) <= tol
            and abs(self.d - other.d) <= tol
        )

    def key(self, quantum=1e-9):
        """Hashable key identifying the element up to the given resolution.

        Entries sit on a grid of spacing `quantum`; elements closer than about
        half a grid step collide.  Used for de-duplication in word balls.
        """
        return (
            round(self.a / quantum),
            round(self.b / quantum),
            round(self.c / quantum),
            round(self.d / quantum),
        )

    def __repr__(self):
        return "MoebiusElement(%.9g, %.9g, %.9g, %.9g)" % self.entries

    # -- actions ---------------------------------------------------------

    def apply(self, z):
        """Act on a point of the open upper half-plane (complex, Im z > 0)."""
        z = complex(z)
        if z.imag <= 0.0:
            raise ValueError("point must lie in the open upper half-plane")
        return (self.a * z + self.b) / (self.c * z + self.d)

    def apply_boundary(self, point):
        """Act on a boundary-circle point; see boundary_angle."""
        return BoundaryPoint(
            boundary_angle(self.a, self.b, self.c, self.d, point.theta)
        )

    def boundary_image_of_infinity(self):
        """Where this element sends the point at infinity."""
        return self.apply_boundary(BoundaryPoint.infinity())


class BoundaryPoint:
    """Point on the boundary circle of the half-plane, stored as an angle."""

    __slots__ = ("theta",)

    def __init__(self, theta):
        t = math.remainder(float(theta), _TAU)
        if t <= -math.pi:
            t = math.pi
        self.theta = t

    @staticmethod
    def from_real(x):
        return BoundaryPoint(2.0 * math.atan(x))

    @staticmethod
    def infinity():
        return BoundaryPoint(math.pi)

    def is_infinity(self, tol=0.0):
        return abs(math.remainder(self.theta - math.pi, _TAU)) <= tol

    @property
    def value(self):
        """The boundary point as an extended real number."""
        if self.theta == math.pi:
            return math.inf
        return math.tan(0.5 * self.theta)

    def chordal(self, other):
        """Chordal distance, |2 sin((t1 - t2) / 2)|; at most 2."""
        return abs(2.0 * math.sin(0.5 * (self.theta - other.theta)))

    def __repr__(self):
        if self.theta == math.pi:
            return "BoundaryPoint(inf)"
        return "BoundaryPoint(%.9g)" % self.value


class HalfPlanePoint:
    """Point of the open upper half-plane."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        im = float(im)
        if im <= 0.0:
            raise ValueError("imaginary part must be positive")
        self.re = float(re)
        self.im = im

    @staticmethod
    def from_complex(z):
        return HalfPlanePoint(z.real, z.imag)

    def as_complex(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return "HalfPlanePoint(%.9g, %.9g)" % (self.re, self.im)


class TangentFrame:
    """Unit tangent vector: a base point plus a direction angle in [0, 2 pi).

    Direction 0 points along the positive real axis, pi/2 straight up.
    """

    __slots__ = ("base", "direction")

    def __init__(self, base, direction):
        self.base = base
        self.direction = float(direction) % _TAU

    def __repr__(self):
        return "TangentFrame(%r, %.9g)" % (self.base, self.direction)


def hyp_dist(z, w):
    """Hyperbolic distance between two points of the upper half-plane."""
    z = complex(z)
    w = complex(w)
    if z.imag <= 0.0 or w.imag <= 0.0:
        raise ValueError("hyperbolic distance needs points with Im > 0")
    dz = z - w
    arg = 1.0 + (dz.real * dz.real + dz.imag * dz.imag) / (2.0 * z.imag * w.imag)
    return math.acosh(arg)


def frame_to_tangent(f):
    """Unit tangent vector carried by a group element.

    The element moves the frame (i, up) to (f(i), up rotated by the phase of
    the derivative f'(i) = 1/(c i + d)^2), which works out to the angle
    pi/2 - 2 atan2(c, d).
    """
    z = f.apply(1j)
    direction = 0.5 * math.pi - 2.0 * math.atan2(f.c, f.d)
    return TangentFrame(HalfPlanePoint.from_complex(z), direction)


def tangent_to_frame(frame):
    """Group element carrying the reference frame (i, up) to the given one.

    Inverse of frame_to_tangent up to matrix sign.
    """
    x = frame.base.re
    y = frame.base.im
    psi = 0.5 * (frame.direction - 0.5 * math.pi)
    s = math.sqrt(y)
    # u(x) * geo(sqrt(y)) * rot(psi), multiplied out.
    ct, st = math.cos(psi), math.sin(psi)
    return MoebiusElement(
        s * ct - (x / s) * st,
        s * st + (x / s) * ct,
        -st / s,
        ct / s,
    )


def classify_element(f, tol=CLASSIFY_TOL):
    """Conjugacy type of a non-identity element from its trace.

    |trace| < 2 elliptic, = 2 parabolic, > 2 hyperbolic, all within tol.
    The identity is rejected: the caller decides what to do with it.
    """
    if f.is_identity(tol):
        raise ValueError("identity element has no conjugacy type here")
    tr = f.trace_abs()
    if tr < 2.0 - tol:
        return ElementClass.ELLIPTIC
    if tr <= 2.0 + tol:
        return ElementClass.PARABOLIC
    return ElementClass.HYPERBOLIC


def fixed_points(f, tol=CLASSIFY_TOL):
    """Fixed points of a non-identity element, with its class.

    Returns (points, kind) where points is
      * (interior,) for elliptic elements, a HalfPlanePoint,
      * (boundary,) for parabolic elements,
      * (repelling, attracting) boundary points for hyperbolic elements.
    """
    kind = classify_element(f, tol)
    a, b, c, d = f.entries
    tr = a + d
    disc = tr * tr - 4.0

    if kind is ElementClass.ELLIPTIC:
        root = math.sqrt(-disc)
        if c == 0.0:
            # c = 0 fixes infinity, impossible for an elliptic element; the
            # classification tolerance can still let a near-identity slip
            # through, so fail loudly.
            raise ValueError("elliptic element with zero lower-left entry")
        im = root / (2.0 * c)
        if im < 0.0:
            im = -im
        return ((HalfPlanePoint((a - d) / (2.0 * c), im),), kind)

    if kind is ElementClass.PARABOLIC:
        if abs(c) <= SIGN_TOL:
            return ((BoundaryPoint.infinity(),), kind)
        return ((BoundaryPoint.from_real((a - d) / (2.0 * c)),), kind)

    # hyperbolic: derivative 1/(c z + d)^2 decides which point attracts
    root = math.sqrt(disc)
    if abs(c) <= SIGN_TOL:
        # upper triangular: fixes infinity and b / (d - a)
        finite = BoundaryPoint.from_real(b / (d - a))
        infinite = BoundaryPoint.infinity()
        if a * a > 1.0:
            return ((finite, infinite), kind)
        return ((infinite, finite), kind)
    # roots of c z^2 + (d - a) z - b: take the non-cancelling one first, then
    # the other from the product of roots (-b/c), which stays accurate when
    # the element is nearly triangular
    s = a - d
    x1 = (s + root) / (2.0 * c) if s >= 0.0 else (s - root) / (2.0 * c)
    x2 = -b / (c * x1)
    deriv1 = 1.0 / (c * x1 + d) ** 2
    if abs(deriv1) < 1.0:
        att, rep = x1, x2
    else:
        att, rep = x2, x1
    return ((BoundaryPoint.from_real(rep), BoundaryPoint.from_real(att)), kind)


def steer_to_diagonal(f, alpha):
    """Unipotent elements (u1, u2) with u1 * f * u2 lower triangular with
    diagonal (alpha, 1/alpha).

    Solvable exactly when the lower-left entry of f is nonzero; elements of
    the upper triangular subgroup are rejected.  alpha must be positive.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("target diagonal value must be positive")
    a, b, c, d = f.entries
    if abs(c) <= SIGN_TOL:
        raise ValueError(
            "element in B: lower-left entry is zero, cannot steer to diagonal"
        )
    t1 = (alpha - a) / c
    t2 = -(b + d * t1) / alpha
    return (MoebiusElement.u(t1), MoebiusElement.u(t2))
