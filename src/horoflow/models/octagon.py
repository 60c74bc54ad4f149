"""Genus-2 surface group from the regular hyperbolic octagon.

Side pairings of the regular octagon centered at the origin of the disk
model, opposite sides identified: eight hyperbolic translations whose axes
pass through the center at angles k*pi/4.  Each has translation length
2*arccosh(1+sqrt(2)), so cosh of the half length is cot(pi/8) and every
generator has trace 2*cot(pi/8).  Generator k+4 is the inverse of
generator k.

The matrices are assembled in the disk model, where the rotation symmetry
is diagonal, and carried to the half-plane by the Cayley map.  The
conjugation must land back in real matrices; the construction asserts the
imaginary residue is below 1e-12 instead of silently discarding it.
Frames are reduced by the surface orbit kernel that every orbit step runs.
"""

from __future__ import annotations

import math

from horoflow import _kernels
from horoflow.models.base import IDENTITY_STEP, NO_TRANSVERSE, QuotientPoint
from horoflow.moebius import MoebiusElement, frame_to_tangent, hyp_dist

SIDE_PAIRINGS = 8
_HALF_LENGTH_COSH = 1.0 + math.sqrt(2.0)  # cot(pi/8)
_HALF_LENGTH_SINH = math.sqrt(_HALF_LENGTH_COSH ** 2 - 1.0)

# inscribed and circumscribed radii of the octagon around the base point
INNER_RADIUS = math.acosh(_HALF_LENGTH_COSH)
VERTEX_RADIUS = math.acosh(_HALF_LENGTH_COSH ** 2)

# the alternating side-pairing word that contracts to the identity on a
# genus-2 surface, as (generator index, exponent) pairs
RELATOR_WORD = (
    (0, +1), (1, -1), (2, +1), (3, -1),
    (0, -1), (1, +1), (2, -1), (3, +1),
)


def _disk_to_halfplane(m_disk):
    """Conjugate a disk-model matrix back through the Cayley map.

    C(z) = (z - i)/(z + i) sends the half-plane to the disk; the pairing
    matrices are real on the half-plane side, so the imaginary parts of the
    conjugated entries must vanish to rounding error.
    """
    c11, c12, c21, c22 = (1.0, -1.0j, 1.0, 1.0j)
    # inverse of C, up to the overall 1/det factor which cancels in PSL
    i11, i12, i21, i22 = (c22, -c12, -c21, c11)
    m11, m12, m21, m22 = m_disk
    t11 = i11 * m11 + i12 * m21
    t12 = i11 * m12 + i12 * m22
    t21 = i21 * m11 + i22 * m21
    t22 = i21 * m12 + i22 * m22
    h11 = t11 * c11 + t12 * c21
    h12 = t11 * c12 + t12 * c22
    h21 = t21 * c11 + t22 * c21
    h22 = t21 * c12 + t22 * c22
    # the factor det(C) = 2i is shared by all entries; divide it out first
    h11, h12, h21, h22 = (h / 2.0j for h in (h11, h12, h21, h22))
    residue = max(abs(h.imag) for h in (h11, h12, h21, h22))
    if residue > 1e-12:
        raise AssertionError(
            "disk-model conjugation left imaginary residue %g" % residue
        )
    return MoebiusElement(h11.real, h12.real, h21.real, h22.real)


def _pairing_matrix(k):
    """Side pairing number k in the disk model.

    A translation along the diameter whose angle is chosen so that, back on
    the half-plane, generator k is the conjugate of the translation
    (ch, sh; sh, ch) by the rotation of k*pi/4 about i.  The Cayley map
    turns the half-plane's imaginary axis into the disk's real diameter,
    which accounts for the two-step index shift.
    """
    phi = 0.25 * math.pi * (k - 2)
    rot = complex(math.cos(0.5 * phi), math.sin(0.5 * phi))
    ch = _HALF_LENGTH_COSH
    sh = _HALF_LENGTH_SINH
    # diag(rot, conj(rot)) * (ch, sh; sh, ch) * diag(conj(rot), rot)
    return (
        ch + 0.0j,
        sh * rot * rot,
        sh * rot.conjugate() * rot.conjugate(),
        ch + 0.0j,
    )


class OctagonModel:
    """The octagon surface group with its Dirichlet domain at i."""

    name = "octagon"
    # the letters whose holonomy images a product hands the kernel, in order
    kernel_letters = range(SIDE_PAIRINGS)

    def __init__(self):
        self.generators = tuple(
            _disk_to_halfplane(_pairing_matrix(k)) for k in range(SIDE_PAIRINGS)
        )
        # the kernel's reduction letters, four entries per side pairing
        self.letters = tuple(x for g in self.generators for x in g.entries)

    def letter(self, k):
        return self.generators[k]

    def letter_count(self):
        return SIDE_PAIRINGS

    def independent_generators(self):
        """The four generators that are not inverses of earlier ones."""
        return self.generators[:4]

    def letter_generator(self, k):
        """Letter k as (independent generator index, inverted)."""
        return k % 4, k >= 4

    def relator_product(self):
        out = MoebiusElement.identity()
        for idx, expo in RELATOR_WORD:
            g = self.generators[idx]
            out = out.mul(g if expo > 0 else g.inv())
        return out

    # -- reduction ---------------------------------------------------------

    def kernel_orbit(self, frame, step, steps, sample_every,
                     trans_state=NO_TRANSVERSE, trans_kind=_kernels.TRANS_NONE,
                     trans_quats=None):
        """The surface kernel over the side pairings; see _pure.surface_orbit."""
        return _kernels.surface_orbit(
            frame, step, self.letters, trans_kind, trans_quats, trans_state,
            steps, sample_every,
        )

    def reduce_frame(self, f):
        """Pull the frame's base point into the Dirichlet domain.

        One kernel step by the identity: a greedy descent applying the first
        side pairing that shortens the distance to i by more than 1e-12.  The
        kernel keeps no sign; the result is rebuilt sign-canonical.
        """
        _, frame, _ = self.kernel_orbit(f.entries, IDENTITY_STEP, 1, 1)
        return MoebiusElement(*frame)

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

    def in_domain(self, z, slack=1e-12):
        """Dirichlet-domain membership for a half-plane point (complex)."""
        d0 = hyp_dist(z, 1.0j)
        for g in self.generators:
            if d0 > hyp_dist(z, g.apply(1.0j)) + slack:
                return False
        return True

    def points_close(self, p, q, tol=1e-9):
        """Orbit-aware frame comparison.

        Boundary representatives differ by one side pairing, so the direct
        comparison is backed up by a single-letter translate on either side.
        """
        f, g = p.frame, q.frame
        if f.close_to(g, tol):
            return True
        for k in range(SIDE_PAIRINGS):
            if self.generators[k].mul(f).close_to(g, tol):
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

    def coverage_box(self):
        """Bounding box of the inscribed disk of the Dirichlet domain.

        The Euclidean footprint of the hyperbolic disk of radius r around i
        is [-sinh r, sinh r] x [e^-r, e^r]; orbit statistics are collected
        over this window because the domain's corners near the vertices are
        visited too rarely to be a stable normalization at desk scale.
        """
        sh = math.sinh(INNER_RADIUS)
        return ((-sh, sh), (math.exp(-INNER_RADIUS), math.exp(INNER_RADIUS)))

    def default_ranges(self, flow):
        """Density ranges of (re, im, direction): the coverage box, then the
        full circle of directions."""
        box = self.coverage_box()
        return (box[0], box[1], (0.0, 2.0 * math.pi))


def build_octagon():
    return OctagonModel()
