"""Torus bundle over the circle with hyperbolic integer monodromy.

The model is the mapping torus of an integer matrix A with det 1 and
trace > 2 acting on the 2-torus.  Two coordinate systems cover it:

* unprimed (x, y, t): torus coordinates plus the suspension parameter,
  with deck transformations
      e1-shift:  (x, y, t) -> (x + 1, y, t)
      e2-shift:  (x, y, t) -> (x, y + 1, t)
      monodromy: (x, y, t) -> (A(x, y), t + 1)

* primed (x', y', t'): the eigenframe of A.  Writing lam > 1 for the
  large eigenvalue, the linear change of variables
      (x', y') = (a'x + c'y, b'x + d'y)
  turns the deck transformations into
      (x' + a', y' + b', t'), (x' + c', y' + d', t'), (lam x', 1/lam y', t' + 1)
  with b'c' - a'd' = 1.  Rows (a', c') and (b', d') are left eigenvectors
  of A for lam and 1/lam.  Through z' = x' + i lam^{t'} the first and third
  coordinates chart a hyperbolic plane, and the leafwise geometry is the
  upper triangular group acting on it.

The quadruple is normalized so that the lam-eigenvector u = (d', -b') has
first entry 1 and v = (c', -a') is scaled to make det(u|v) = b'c' - a'd'
equal 1.  With that convention (x, y) = -x'u + y'v; the minus sign on the
u term is forced by the shift images above together with det(u|v) = 1.
"""

import math

from horoflow._record import Record
from horoflow.groups import REAL_AFFINE, GeneratedGroup, ProductElement
from horoflow.models.base import QuotientPoint
from horoflow.moebius import MoebiusElement

MAX_MONODROMY_POWER = 64


def mat_mul_int(m, n):
    """Exact product of two 2x2 integer matrices."""
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def _mat_pow_int(mat, n):
    """Exact integer power of a 2x2 integer matrix with det 1, any sign of n."""
    if n < 0:
        a, b = mat[0]
        c, d = mat[1]
        mat = ((d, -b), (-c, a))
        n = -n
    out = ((1, 0), (0, 1))
    base = mat
    while n:
        if n & 1:
            out = mat_mul_int(out, base)
        base = mat_mul_int(base, base)
        n >>= 1
    return out


def sol3_mul(p, q, lam):
    """Product in the solvable 3-dimensional group coordinatizing the bundle.

    (x', y', t') (x'', y'', t'') = (x' + lam^t' x'', y' + lam^-t' y'', t' + t'')
    """
    xp, yp, tp = p
    xq, yq, tq = q
    scale = lam ** tp
    return (xp + scale * xq, yp + yq / scale, tp + tq)


def sol3_b_embed(alpha, beta, lam):
    """Embed the upper triangular group into the solvable group.

    alpha and beta are the affine-action parameters of the element,
    z -> alpha z + beta on the half-plane (alpha > 0); the matrix
    (sqrt(alpha), beta/sqrt(alpha); 0, 1/sqrt(alpha)) realizes it.
    """
    if alpha <= 0.0:
        raise ValueError("dilation parameter must be positive")
    return (beta, 0.0, math.log(alpha) / math.log(lam))


def b_affine_params(m):
    """Affine-action parameters (alpha, beta) of an upper triangular element.

    The element (a, b; 0, 1/a) acts on the half-plane as z -> a^2 z + a b.
    """
    a, b, c, d = m.entries
    if abs(c) > 1e-12:
        raise ValueError("element is not upper triangular")
    if a < 0.0:
        a, b = -a, -b
    return (a * a, a * b)


class TorusBundleModel(Record):
    _fields = ("a_mat", "lam", "a_prime", "b_prime", "c_prime", "d_prime",
               "name", "log_lam")

    def __init__(self, a_mat, lam, a_prime, b_prime, c_prime, d_prime,
                 name="t3a"):
        self.a_mat = a_mat
        self.lam = lam
        self.a_prime = a_prime
        self.b_prime = b_prime
        self.c_prime = c_prime
        self.d_prime = d_prime
        self.name = name
        self.log_lam = math.log(lam)

    # -- coordinate changes ---------------------------------------------------

    def primed_from_torus(self, x, y):
        return (
            self.a_prime * x + self.c_prime * y,
            self.b_prime * x + self.d_prime * y,
        )

    # -- deck transformations in both presentations ----------------------------

    def apply_torus_gen(self, k, p, inverse=False):
        """Generator k in unprimed coordinates; k = 0, 1 shifts, k = 2 monodromy."""
        x, y, t = p
        s = -1.0 if inverse else 1.0
        if k == 0:
            return (x + s, y, t)
        if k == 1:
            return (x, y + s, t)
        if k == 2:
            (a11, a12), (a21, a22) = self.a_mat
            if inverse:
                a11, a12, a21, a22 = a22, -a12, -a21, a11
            return (a11 * x + a12 * y, a21 * x + a22 * y, t + s)
        raise ValueError("generator index out of range")

    def apply_primed_gen(self, k, p, inverse=False):
        xp, yp, t = p
        s = -1.0 if inverse else 1.0
        if k == 0:
            return (xp + s * self.a_prime, yp + s * self.b_prime, t)
        if k == 1:
            return (xp + s * self.c_prime, yp + s * self.d_prime, t)
        if k == 2:
            if inverse:
                return (xp / self.lam, yp * self.lam, t - 1.0)
            return (self.lam * xp, yp / self.lam, t + 1.0)
        raise ValueError("generator index out of range")

    # -- reduction ---------------------------------------------------------

    def reduce(self, p):
        """Canonical representative of (x, y, t) in [0,1)^3.

        The monodromy power is undone with exact integer matrix arithmetic
        before the mod-1 step, because floating powers of A lose the lattice.
        """
        x, y, t = p
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(t)):
            raise ValueError("coordinates must be finite")
        n = math.floor(t)
        if abs(n) > MAX_MONODROMY_POWER:
            raise ValueError(
                "suspension coordinate drifted %d levels, beyond the guard (%d)"
                % (n, MAX_MONODROMY_POWER)
            )
        if n != 0:
            (p11, p12), (p21, p22) = _mat_pow_int(self.a_mat, -n)
            x, y = (p11 * x + p12 * y, p21 * x + p22 * y)
            t = t - n
        x -= math.floor(x)
        y -= math.floor(y)
        if t >= 1.0:  # only from floating roundoff at the seam
            t -= 1.0
        return QuotientPoint(self.name, (x, y, t))

    def state_from_point(self, point):
        x, y, t = point.coords
        xp, yp = self.primed_from_torus(x, y)
        return (xp, yp, t)

    # -- quotient-point comparison ------------------------------------------

    def points_close(self, p, q, tol=1e-9):
        """Orbit-aware closeness of two reduced points.

        Representatives near the t = 0 seam differ by a monodromy twist, so
        the comparison tries suspension shifts of -1, 0, +1 and compares each
        torus axis circularly.
        """
        x1, y1, t1 = p.coords
        x2, y2, t2 = q.coords
        for n in (-1, 0, 1):
            (p11, p12), (p21, p22) = _mat_pow_int(self.a_mat, n)
            cx = p11 * x2 + p12 * y2
            cy = p21 * x2 + p22 * y2
            ct = t2 + n
            if (
                _circ_close(x1, cx, tol)
                and _circ_close(y1, cy, tol)
                and abs(t1 - ct) <= tol
            ):
                return True
        return False

    def sample_point(self, rng):
        return QuotientPoint(
            self.name, (rng.random(), rng.random(), rng.random())
        )

    def coord_names(self):
        return ("x", "y", "t")

    def default_ranges(self, flow):
        """Density ranges: the unit cube of (x, y, t), or for the dual
        boundary iteration a window of (xi, y')."""
        from horoflow.flows import DualBoundaryIterate  # flows imports models

        if isinstance(flow, DualBoundaryIterate):
            return ((-math.pi, math.pi), (-2.0, 2.0))
        return ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))

    # -- the holonomy group on the compactified leafwise boundary ---------------

    def dual_generators(self):
        """Deck transformations as product elements acting on (boundary, fibre).

        The leafwise part is the boundary action of the upper triangular
        element; the fibre part is the induced affine map of y'.
        """
        sq = math.sqrt(self.lam)
        return [
            (
                "t1",
                ProductElement(
                    MoebiusElement.u(self.a_prime),
                    REAL_AFFINE.make(1.0, self.b_prime),
                    REAL_AFFINE,
                ),
            ),
            (
                "t2",
                ProductElement(
                    MoebiusElement.u(self.c_prime),
                    REAL_AFFINE.make(1.0, self.d_prime),
                    REAL_AFFINE,
                ),
            ),
            (
                "h",
                ProductElement(
                    MoebiusElement.geo(sq),
                    REAL_AFFINE.make(1.0 / self.lam, 0.0),
                    REAL_AFFINE,
                ),
            ),
        ]

    def dual_group(self):
        return GeneratedGroup(self.dual_generators())


def _circ_close(x1, x2, tol):
    d = abs(x1 - x2) % 1.0
    return d <= tol or d >= 1.0 - tol


def build_t3a(a_mat):
    """Build the bundle model from an integer matrix with det 1, trace > 2.

    Accepts ((a,b),(c,d)) nested or (a,b,c,d) flat.
    """
    flat = None
    if len(a_mat) == 4:
        flat = tuple(a_mat)
    elif len(a_mat) == 2:
        flat = (a_mat[0][0], a_mat[0][1], a_mat[1][0], a_mat[1][1])
    else:
        raise ValueError("need a 2x2 matrix")
    ints = []
    for entry in flat:
        as_int = int(round(entry))
        if abs(entry - as_int) > 0.0:
            raise ValueError("matrix entries must be integers")
        ints.append(as_int)
    a11, a12, a21, a22 = ints
    det = a11 * a22 - a12 * a21
    if det != 1:
        raise ValueError("determinant must be 1, got %d" % det)
    tr = a11 + a22
    if tr <= 2:
        raise ValueError("trace must exceed 2 for a hyperbolic bundle, got %d" % tr)
    # trace > 2 with det 1 forces a12 != 0: otherwise the diagonal holds two
    # integers with product 1, so the trace would be +-2
    if a12 == 0:
        raise ValueError("upper-right entry vanished for a hyperbolic matrix")

    lam = 0.5 * (tr + math.sqrt(tr * tr - 4.0))
    # lam-eigenvector with first entry fixed to 1
    u = (1.0, (lam - a11) / a12)
    w = (1.0, (1.0 / lam - a11) / a12)
    delta = u[0] * w[1] - u[1] * w[0]
    v = (w[0] / delta, w[1] / delta)

    d_prime = u[0]
    b_prime = -u[1]
    c_prime = v[0]
    a_prime = -v[1]
    return TorusBundleModel(
        a_mat=((a11, a12), (a21, a22)),
        lam=lam,
        a_prime=a_prime,
        b_prime=b_prime,
        c_prime=c_prime,
        d_prime=d_prime,
    )
