from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horoflow.moebius import (
    NORMAL_MIN,
    RENORM_TOL,
    SIGN_TOL,
    BoundaryPoint,
    ElementClass,
    MoebiusElement,
    boundary_angle,
    canonical_entries,
    classify_element,
    fixed_points,
    frame_to_tangent,
    hyp_dist,
    steer_to_diagonal,
    tangent_to_frame,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
small_angle = st.floats(-3.0, 3.0, allow_nan=False)


def random_element(rng):
    """Generic element as a product of the three one-parameter subgroups."""
    f = MoebiusElement.u(rng.uniform(-3.0, 3.0))
    f = f.mul(MoebiusElement.geo(math.exp(rng.uniform(-1.5, 1.5))))
    return f.mul(MoebiusElement.rot(rng.uniform(0.0, math.pi)))


def test_constructors_and_canonical_sign():
    e = MoebiusElement.identity()
    assert e.entries == (1.0, 0.0, 0.0, 1.0)
    # negative-c input flips sign so c ends up nonnegative
    f = MoebiusElement(0.0, 1.0, -1.0, 0.0)
    assert f.c > 0.0 and f.b < 0.0
    # c == 0 and a < 0 flips as well
    g = MoebiusElement(-2.0, 0.0, 0.0, -0.5)
    assert g.a > 0.0
    # determinant renormalisation on construction
    h = MoebiusElement(2.0, 0.0, 0.0, 2.0)
    assert abs(h.a - 1.0) < 1e-15 and abs(h.d - 1.0) < 1e-15
    with pytest.raises(ValueError):
        MoebiusElement(1.0, 0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        MoebiusElement(1.0, 2.0, 1.0, 2.0)  # det 0


def test_basic_actions():
    assert MoebiusElement.u(3.0).apply(1j) == 3.0 + 1j
    assert abs(MoebiusElement.geo(2.0).apply(1j) - 4j) < 1e-15
    with pytest.raises(ValueError):
        MoebiusElement.identity().apply(1.0 - 1j)
    # b_el acts as z -> alpha^2 z + alpha*beta
    z = MoebiusElement.b_el(3.0, 2.0).apply(1j)
    assert abs(z - (6.0 + 9j)) < 1e-12


def test_hyp_dist_frozen():
    # oracle: cosh d = 1 + |i - 2i|^2 / (2 * 1 * 2) = 1.25, d = log 2
    assert abs(hyp_dist(1j, 2j) - math.log(2.0)) < 1e-14
    assert hyp_dist(1j, 1j) == 0.0
    with pytest.raises(ValueError):
        hyp_dist(1j, 1.0)


@given(finite, st.floats(0.1, 10.0), finite, st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_hyp_dist_is_moebius_invariant(x1, y1, x2, y2):
    z = complex(x1, y1)
    w = complex(x2, y2)
    f = MoebiusElement(1.0, 2.0, 3.0, 7.0)
    d1 = hyp_dist(z, w)
    d2 = hyp_dist(f.apply(z), f.apply(w))
    assert abs(d1 - d2) < 1e-9 * (1.0 + d1)


def test_classification():
    assert classify_element(MoebiusElement.u(1.0)) is ElementClass.PARABOLIC
    assert classify_element(MoebiusElement.geo(2.0)) is ElementClass.HYPERBOLIC
    assert classify_element(MoebiusElement.rot(1.0)) is ElementClass.ELLIPTIC
    with pytest.raises(ValueError):
        classify_element(MoebiusElement.identity())
    # tolerance boundary: trace exactly 2 but not identity
    assert classify_element(MoebiusElement(1.0, 0.0, 5.0, 1.0)) is ElementClass.PARABOLIC


def test_fixed_points_hyperbolic_frozen():
    # oracle: z = ((a-d) +- sqrt(tr^2-4)) / (2c) for (2,1;1,1) gives (1 +- sqrt 5)/2;
    # derivative 1/(c z + d)^2 is 0.1459 at the golden ratio and 6.854 at the other root
    pts, kind = fixed_points(MoebiusElement(2.0, 1.0, 1.0, 1.0))
    assert kind is ElementClass.HYPERBOLIC
    rep, att = pts
    assert abs(att.value - GOLDEN) < 1e-12
    assert abs(rep.value - (1.0 - math.sqrt(5.0)) / 2.0) < 1e-12


def test_fixed_points_parabolic_and_elliptic():
    (pt,), kind = fixed_points(MoebiusElement.u(2.0))
    assert kind is ElementClass.PARABOLIC and pt.is_infinity()
    (pt,), kind = fixed_points(MoebiusElement(1.0, 0.0, 4.0, 1.0))
    assert kind is ElementClass.PARABOLIC and abs(pt.value) < 1e-12
    (pt,), kind = fixed_points(MoebiusElement.rot(0.7))
    assert kind is ElementClass.ELLIPTIC
    assert abs(pt.re) < 1e-12 and abs(pt.im - 1.0) < 1e-12
    # hyperbolic upper-triangular fixes infinity; attracting side depends on a
    pts, _ = fixed_points(MoebiusElement.geo(2.0))
    assert pts[0].value == 0.0 and pts[1].is_infinity()
    pts, _ = fixed_points(MoebiusElement.geo(0.5))
    assert pts[0].is_infinity() and pts[1].value == 0.0


@given(small_angle, st.floats(0.15, 6.0))
@settings(max_examples=60, deadline=None)
def test_fixed_points_are_fixed(theta, lam):
    r = MoebiusElement.rot(theta)
    f = r.mul(MoebiusElement.geo(lam)).mul(r.inv())
    if f.trace_abs() < 2.0 + 1e-4:
        return  # too close to the identity for a stable fixed-point check
    pts, kind = fixed_points(f)
    assert kind is ElementClass.HYPERBOLIC
    for p in pts:
        assert p.chordal(f.apply_boundary(p)) < 1e-7


def test_steering_frozen_example():
    # oracle (hand computation): f = (1,0;0.1,1), alpha = 2 gives u(10), u(-5)
    # and the product (2, 0; 0.1, 0.5)
    f = MoebiusElement(1.0, 0.0, 0.1, 1.0)
    u1, u2 = steer_to_diagonal(f, 2.0)
    assert abs(u1.b - 10.0) < 1e-12
    assert abs(u2.b - (-5.0)) < 1e-12
    prod = u1.mul(f).mul(u2)
    assert abs(prod.a - 2.0) < 1e-12
    assert abs(prod.b) < 1e-12
    assert abs(prod.c - 0.1) < 1e-12
    assert abs(prod.d - 0.5) < 1e-12


def test_steering_rejects_triangular():
    with pytest.raises(ValueError):
        steer_to_diagonal(MoebiusElement.b_el(2.0, 1.0), 1.0)


@given(finite, st.floats(0.2, 5.0), small_angle, st.floats(0.1, 10.0))
@settings(max_examples=80, deadline=None)
def test_steering_property(t, lam, theta, alpha):
    f = MoebiusElement.u(t).mul(MoebiusElement.geo(lam)).mul(MoebiusElement.rot(theta))
    if abs(f.c) <= 1e-3:
        return
    u1, u2 = steer_to_diagonal(f, alpha)
    prod = u1.mul(f).mul(u2)
    assert abs(prod.a - alpha) < 1e-9
    assert abs(prod.b) < 1e-9
    assert abs(prod.c - f.c) < 1e-9
    assert abs(prod.d - 1.0 / alpha) < 1e-9


def test_commutation_identity():
    # geo(alpha) u(t) = u(alpha^2 t) geo(alpha)
    for alpha, t in [(2.0, 1.0), (0.5, -3.0), (1.7, 0.3)]:
        lhs = MoebiusElement.geo(alpha).mul(MoebiusElement.u(t))
        rhs = MoebiusElement.u(alpha * alpha * t).mul(MoebiusElement.geo(alpha))
        assert lhs.close_to(rhs, 1e-12)


def test_conjugation_identity():
    # geo(lam)^-1 u(t) geo(lam) = u(t / lam^2)
    lam, t = 3.0, 0.7
    g = MoebiusElement.geo(lam)
    lhs = g.inv().mul(MoebiusElement.u(t)).mul(g)
    assert lhs.close_to(MoebiusElement.u(t / lam**2), 1e-12)


def test_boundary_points():
    inf = BoundaryPoint.infinity()
    assert inf.is_infinity() and inf.value == math.inf
    zero = BoundaryPoint.from_real(0.0)
    assert zero.value == 0.0
    assert abs(zero.chordal(inf) - 2.0) < 1e-15
    one = BoundaryPoint.from_real(1.0)
    assert abs(one.value - 1.0) < 1e-15
    # angle wrap-around lands in (-pi, pi]
    assert BoundaryPoint(3.0 * math.pi).theta == pytest.approx(math.pi)


def test_boundary_action():
    u = MoebiusElement.u(2.5)
    assert u.apply_boundary(BoundaryPoint.infinity()).is_infinity(1e-15)
    assert abs(u.apply_boundary(BoundaryPoint.from_real(1.0)).value - 3.5) < 1e-12
    g = MoebiusElement.geo(2.0)
    assert abs(g.apply_boundary(BoundaryPoint.from_real(1.0)).value - 4.0) < 1e-12
    # rot(theta) sends infinity to -cot(theta)
    r = MoebiusElement.rot(0.6)
    got = r.apply_boundary(BoundaryPoint.infinity()).value
    assert abs(got - (-1.0 / math.tan(0.6))) < 1e-10


@given(finite, st.floats(0.2, 5.0), small_angle, st.floats(-20.0, 20.0))
@settings(max_examples=80, deadline=None)
def test_boundary_action_matches_real_formula(t, lam, theta, x):
    f = MoebiusElement.u(t).mul(MoebiusElement.geo(lam)).mul(MoebiusElement.rot(theta))
    denom = f.c * x + f.d
    if abs(denom) < 1e-3:
        return
    expected = (f.a * x + f.b) / denom
    got = f.apply_boundary(BoundaryPoint.from_real(x))
    assert got.chordal(BoundaryPoint.from_real(expected)) < 1e-9


def reference_boundary_image(a, b, c, d, theta):
    """Angle of MoebiusElement(a, b, c, d).apply_boundary(BoundaryPoint(theta))
    as the element, the action and the point computed it on objects."""
    det = a * d - b * c
    if abs(det - 1.0) > RENORM_TOL:
        s = math.sqrt(det)
        a, b, c, d = a / s, b / s, c / s, d / s
    if c < -SIGN_TOL or (abs(c) <= SIGN_TOL and a < 0.0):
        a, b, c, d = -a, -b, -c, -d

    def wrap(t):
        t = math.remainder(t, 2.0 * math.pi)
        return math.pi if t <= -math.pi else t

    half = 0.5 * wrap(theta)
    p = math.sin(half)
    q = math.cos(half)
    phi = math.atan2(a * p + b * q, c * p + d * q)
    if phi <= -0.5 * math.pi:
        phi += math.pi
    elif phi > 0.5 * math.pi:
        phi -= math.pi
    return wrap(2.0 * phi)


near_pi = [math.pi, -math.pi, math.nextafter(math.pi, 0.0),
           math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 4.0),
           math.nextafter(-math.pi, -4.0), 3.0 * math.pi, 0.0, -0.0]
boundary_angles = st.one_of(
    st.sampled_from(near_pi),
    st.floats(-math.pi, math.pi),
    st.floats(-20.0, 20.0, allow_nan=False),
)


@st.composite
def raw_matrices(draw):
    """Entries with det near 1, some with |c| <= SIGN_TOL and a < 0, some
    off the sign convention, some with a det drift above RENORM_TOL."""
    a = draw(st.one_of(st.floats(-5.0, -0.1), st.floats(0.1, 5.0)))
    b = draw(st.floats(-5.0, 5.0))
    c = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(-SIGN_TOL, SIGN_TOL)))
    d = (1.0 + b * c) / a
    scale = draw(st.one_of(
        st.just(1.0),
        st.floats(1.0 - 1e-9, 1.0 + 1e-9),
        st.floats(0.5, 2.0),
        st.just(-1.0),
    ))
    return a * scale, b * scale, c * scale, d * scale


@given(raw_matrices(), boundary_angles)
@example((1.0, 0.0, 0.0, 1.0), math.pi)
@example((-2.0, 0.3, 1e-13, -0.5), math.pi)
@example((-2.0, 0.3, -1e-13, -0.5), -math.pi)
@example((1.1, 0.2, 0.0, 1.0), math.nextafter(-math.pi, 0.0))
@settings(max_examples=400, deadline=None)
def test_boundary_angle_matches_object_action(entries, theta):
    want = reference_boundary_image(*entries, theta)
    raw = boundary_angle(*canonical_entries(*entries), BoundaryPoint(theta).theta)
    assert repr(raw) == repr(want)
    element = MoebiusElement(*entries)
    got = element.apply_boundary(BoundaryPoint(theta)).theta
    assert repr(got) == repr(want)


def test_a_subnormal_determinant_is_scaled_before_its_square_root():
    # det is about 1e-320, whose square root kept only a few bits: the
    # entries were stored with det 1.0000111 and rescaled when rebuilt
    a, b, c, d = (1e-160 * v for v in MoebiusElement.geo(1.3).entries)
    assert 0.0 < a * d - b * c < NORMAL_MIN
    element = MoebiusElement(a, b, c, d)
    a, b, c, d = element.entries
    assert abs(a * d - b * c - 1.0) <= RENORM_TOL
    assert MoebiusElement(*element.entries).entries == element.entries


def reference_canonical_entries(a, b, c, d):
    """canonical_entries without its power-of-two scaling."""
    det = a * d - b * c
    if abs(det - 1.0) > RENORM_TOL:
        s = math.sqrt(det)
        a, b, c, d = a / s, b / s, c / s, d / s
    if c < -SIGN_TOL or (abs(c) <= SIGN_TOL and a < 0.0):
        return -a, -b, -c, -d
    return a, b, c, d


@given(raw_matrices(), st.one_of(st.floats(0.5, 2.0), st.floats(1e-162, 1.5e-154)))
@settings(max_examples=400, deadline=None)
def test_canonical_entries_scale_only_a_subnormal_determinant(entries, scale):
    entries = tuple(scale * v for v in entries)
    a, b, c, d = entries
    det = a * d - b * c
    if not det > 0.0:  # underflowed to 0
        with pytest.raises(ValueError, match="positive determinant"):
            canonical_entries(*entries)
        return
    got = canonical_entries(*entries)
    if det >= NORMAL_MIN:  # the old path, bit for bit
        assert repr(got) == repr(reference_canonical_entries(*entries))
        return
    ga, gb, gc, gd = got
    assert abs(ga * gd - gb * gc - 1.0) <= RENORM_TOL
    assert canonical_entries(*got) == got


def test_frame_direction_frozen():
    # oracle: numerical derivative arg(f'(i)) for f = rot(theta) gives pi/2 + 2*theta,
    # checked below against a finite difference
    theta = 0.35
    f = MoebiusElement.rot(theta)
    tf = frame_to_tangent(f)
    assert abs(tf.base.re) < 1e-12 and abs(tf.base.im - 1.0) < 1e-12
    assert abs(tf.direction - (math.pi / 2.0 + 2.0 * theta)) < 1e-12
    h = 1e-7
    num = (f.apply(1j * (1.0 + h)) - f.apply(1j)) / h
    # d/dh f(i(1+h)) = i f'(i), so the frame direction is arg of this
    assert abs(math.atan2(num.imag, num.real) % (2 * math.pi) - tf.direction) < 1e-6


def test_frame_identity_points_up():
    tf = frame_to_tangent(MoebiusElement.identity())
    assert abs(tf.direction - math.pi / 2.0) < 1e-15


@given(finite, st.floats(0.05, 20.0), st.floats(0.0, 6.28))
@settings(max_examples=100, deadline=None)
def test_tangent_frame_roundtrip(x, y, direction):
    from horoflow.moebius import HalfPlanePoint, TangentFrame

    tf = TangentFrame(HalfPlanePoint(x, y), direction)
    f = tangent_to_frame(tf)
    back = frame_to_tangent(f)
    assert abs(back.base.re - x) < 1e-8 * (1.0 + abs(x))
    assert abs(back.base.im - y) < 1e-8 * (1.0 + y)
    dd = (back.direction - direction) % (2 * math.pi)
    assert min(dd, 2 * math.pi - dd) < 1e-8


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_frame_roundtrip_from_matrix(seed):
    import random

    rng = random.Random(seed)
    f = random_element(rng)
    g = tangent_to_frame(frame_to_tangent(f))
    assert g.close_to(f, 1e-8)


def test_determinant_drift_over_many_compositions():
    # renormalisation policy keeps det pinned over 10^6 products
    factors = [
        MoebiusElement.u(0.3),
        MoebiusElement.geo(1.1),
        MoebiusElement.rot(0.2),
        MoebiusElement.geo(0.93),
    ]
    f = MoebiusElement.identity()
    for n in range(1_000_000):
        f = f.mul(factors[n & 3])
    det = f.a * f.d - f.b * f.c
    assert abs(det - 1.0) < 1e-6


def test_key_quantization():
    a = MoebiusElement.u(1.0)
    b = MoebiusElement.u(1.0 + 1e-12)
    c = MoebiusElement.u(1.0 + 1e-6)
    assert a.key() == b.key()
    assert a.key() != c.key()


@given(st.integers(0, 2**32 - 1))
@example(seed=658)  # entries near 351 that differ by 1.9e-9
@settings(max_examples=60, deadline=None)
def test_group_axioms(seed):
    import random

    rng = random.Random(seed)
    f, g, h = (random_element(rng) for _ in range(3))
    # each product renormalises once det drifts past 1e-12 relative, so the
    # two groupings agree relative to their largest entry, not absolutely
    left, right = f.mul(g).mul(h), f.mul(g.mul(h))
    scale = max(1.0, max(abs(x) for x in left.entries))
    assert left.close_to(right, 1e-9 * scale)
    assert f.mul(f.inv()).is_identity(1e-9)
    assert f.inv().inv().close_to(f, 1e-12)
