"""Hypothesis parity of the modular, t3a and boundary kernels across the
backends.

Each drawn call runs on both backends, and the repr of what they return,
or the (type, message) of what they raise, must be the same.  The draws
include the inputs the kernels must fail on alike: non-finite and
collapsed frames, infinite boundary angles, zero quaternions, a zero
sampling interval, and for t3a a zero or NaN lam ** t' and a level guard.
The t3a draws of t' include +-0.0, and those of its step st 0.0, -0.0, a
tiny st, one of at least a level per step and NaN.  For boundary_residual
and boundary_track they include products whose determinant is not
positive or NaN, is subnormal or drifts past RENORM_TOL, lower-left
entries within SIGN_TOL of zero, infinite and NaN angles, and no rows,
grid elements, points or maps at all.

_pure.py follows _native.c statement for statement, so each test compares
two forms of one algorithm and no third form is kept as a reference.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from horoflow._kernels import TRANS_BOUNDARY, TRANS_ROTATION, _pure
from horoflow.groups import BOUNDARY_CIRCLE
from horoflow.models import build_octagon, build_product, build_t3a
from horoflow.models.product import minimal_set_distance
from horoflow.moebius import BoundaryPoint, MoebiusElement, canonical_entries

IDENTITY = (1.0, 0.0, 0.0, 1.0)
NO_TRANS = (0.0, 0.0, 0.0, 0.0)
T3A = build_t3a(((2, 1), (1, 1)))
EIGEN = (T3A.a_prime, T3A.b_prime, T3A.c_prime, T3A.d_prime)


def outcome(kernel, args):
    """The repr of what the kernel returns, or its exception and message."""
    try:
        return repr(kernel(*args))
    except Exception as exc:  # the failure must match as well
        return (type(exc), str(exc))


def run_lengths():
    return (st.integers(0, 60), st.integers(-7, 7), st.integers(0, 2 ** 40))


@st.composite
def modular_frames(draw):
    """k(theta) a(t) n(x) within distance about 9 of i, so that a rotation
    bundle's T holonomy runs a few thousand times at most, or a frame the
    kernel must refuse."""
    special = draw(st.sampled_from([
        None, None, None, None,
        (1e200, 0.0, 0.0, 1e-200),  # c^2 + d^2 underflows to 0
        (1e-200, 0.0, 0.0, 1e200),  # c^2 + d^2 overflows to inf
        (math.nan, 0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0, -1.0),  # det -1
        (0.0, 0.0, 0.0, 0.0),
    ]))
    if special is not None:
        return special
    theta = draw(st.floats(-math.pi, math.pi))
    t = draw(st.floats(0.0, 6.0))
    x = draw(st.floats(-10.0, 10.0))
    g = MoebiusElement.rot(theta).mul(MoebiusElement.geo(math.exp(0.5 * t)))
    return g.mul(MoebiusElement.u(x)).entries


@st.composite
def modular_steps(draw, bound):
    """A u, geo or b step of size at most bound, or the identity."""
    kind = draw(st.sampled_from(["u", "geo", "b", "identity"]))
    s = draw(st.floats(-bound, bound))
    if kind == "u":
        return MoebiusElement.u(s).entries
    if kind == "geo":
        return MoebiusElement.geo(math.exp(0.5 * s)).entries
    if kind == "b":
        return MoebiusElement.b_el(math.exp(s), draw(st.floats(-bound, bound))).entries
    return IDENTITY


@st.composite
def quats(draw):
    q = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(v * v for v in q) > 0.01))
    n = math.sqrt(sum(v * v for v in q))
    return tuple(v / n for v in q)


@st.composite
def modular_cases(draw):
    kind = draw(st.sampled_from([0, TRANS_BOUNDARY, TRANS_ROTATION]))
    holonomy = None
    trans = NO_TRANS
    if kind == TRANS_BOUNDARY:
        trans = (draw(st.one_of(
            st.floats(-math.pi, math.pi),
            st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
        )), 0.0, 0.0, 0.0)
    elif kind == TRANS_ROTATION:
        trans = draw(quats())
        if draw(st.integers(0, 9)):
            holonomy = list(draw(quats()) + draw(quats()))
        else:
            holonomy = [0.0] * 8  # no norm to divide by
    # a rotation bundle applies its T holonomy once per unit of each shift,
    # so its steps stay short enough that the orbit climbs no higher than
    # about e^6
    step = draw(modular_steps(0.1 if kind == TRANS_ROTATION else 0.5))
    steps, every, first = (draw(s) for s in run_lengths())
    return (draw(modular_frames()), step, kind, holonomy,
            trans, steps, every, first)


@st.composite
def t3a_cases(draw):
    tp = draw(st.one_of(
        st.floats(-2.0, 2.0),
        st.sampled_from([0.0, -0.0, -1e-20, 1.0 - 2.0 ** -53, math.nan,
                         math.inf, -1e6]),
    ))
    state = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), tp)
    st_ = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e-300, math.nan, -1.5, 70.0]),
        st.floats(-0.3, 0.3),
        st.floats(1.0, 3.0),  # at least one level per step
    ))
    sol_step = (draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2)), st_)
    lam = draw(st.sampled_from([T3A.lam, T3A.lam, T3A.lam, 1.0, 0.0, -1.0]))
    steps, every, first = (draw(s) for s in run_lengths())
    return (state, lam, EIGEN, sol_step, steps, every, first)


def test_native_t3a_matches_pure(native):
    @settings(max_examples=300, deadline=None)
    @given(t3a_cases())
    def check(args):
        assert outcome(native.t3a_orbit, args) == outcome(_pure.t3a_orbit, args)

    check()


def test_native_modular_matches_pure(native):
    @settings(max_examples=300, deadline=None)
    @given(modular_cases())
    def check(args):
        assert outcome(native.modular_orbit, args) == outcome(
            _pure.modular_orbit, args
        )

    check()


@st.composite
def angles(draw):
    """An angle on the circle, or one time in six pi, -0.0, +-inf or NaN."""
    if draw(st.integers(0, 5)):
        return draw(st.floats(-math.pi, math.pi))
    return draw(st.sampled_from([math.pi, -0.0, math.inf, -math.inf, math.nan]))


def some(draw, items, most):
    """A list of up to `most` items, empty one time in eight."""
    return draw(st.lists(items, min_size=min(1, draw(st.integers(0, 7))),
                         max_size=most))


@st.composite
def boundary_frames(draw):
    """A frame near i, rescaled so that its determinant drifts or its sign
    flips; a triangular frame of either sign whose c is within about
    SIGN_TOL of zero; or a fixed frame: det -1, 0, NaN or infinite, a zero
    diagonal, or c just below -SIGN_TOL."""
    special = draw(st.sampled_from([None] * 12 + ["triangular"] * 4 + [
        (1.0, 0.0, 0.0, -1.0),  # det -1
        (0.0, 0.0, 0.0, 0.0),  # det 0
        (-0.0, -1.0, 1.0, -0.0),
        (math.nan, 0.0, 0.0, 1.0),  # NaN det
        (math.inf, 0.0, 0.0, 1.0),  # infinite det
        (1.0, 0.5, -2e-12, 1.0),  # c just below -SIGN_TOL
    ]))
    if special == "triangular":
        alpha = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
        return (alpha, draw(st.floats(-1.0, 1.0)),
                draw(st.floats(-1.5e-12, 1.5e-12)), 1.0 / alpha)
    if special is not None:
        return special
    theta = draw(st.floats(-math.pi, math.pi))
    t = draw(st.floats(-4.0, 4.0))
    x = draw(st.floats(-3.0, 3.0))
    g = MoebiusElement.rot(theta).mul(MoebiusElement.geo(math.exp(0.5 * t)))
    # det 1 with either sign, 1 + 4e-13 (within RENORM_TOL), 1 + 2e-12,
    # 2.25, about 1e-320, or anywhere in the subnormal range
    scale = draw(st.sampled_from([1.0, 1.0, -1.0, 1.0 + 2e-13, 1.0 + 1e-12,
                                  1.5, 1e-160, None]))
    if scale is None:
        scale = draw(st.floats(1e-162, 1.5e-154))
    return tuple(scale * v for v in g.mul(MoebiusElement.u(x)).entries)


def flat(rows):
    return [v for row in rows for v in row]


@st.composite
def residual_cases(draw):
    rows = some(draw, st.tuples(boundary_frames(), angles()), 4)
    pushed = flat(frame + (theta,) for frame, theta in rows)
    # a partial last row, which both backends drop
    pushed += draw(st.lists(st.floats(-1.0, 1.0), max_size=4))
    # upper triangular steps, as borel_grid's, keep a pushed frame's small c
    # small; others mix the entries
    steps = st.one_of(boundary_frames(), st.builds(
        lambda alpha, beta: MoebiusElement.b_el(alpha, beta).entries,
        st.floats(0.5, 2.0), st.floats(-1.0, 1.0)))
    return (pushed, flat(some(draw, steps, 4)))


@st.composite
def track_cases(draw):
    start = some(draw, angles(), 6)
    if draw(st.booleans()):  # the powers of one map
        maps = draw(boundary_frames()) * draw(st.integers(0, 40))
    else:
        maps = flat(some(draw, boundary_frames(), 8))
    passage_tol = draw(st.sampled_from(
        [-math.inf, 1e-4, 0.5, 2.1, math.inf, math.nan]))
    return (start, maps, draw(st.booleans()), draw(angles()), passage_tol)


def test_native_boundary_residual_matches_pure(native):
    @settings(max_examples=400, deadline=None)
    @given(residual_cases())
    # |c| within SIGN_TOL and a < 0, where the sign rule moves the last bit
    @example(([-1.643420123686913, -0.9957878932977786, -1.0922561189039719e-13,
               -0.6084871333792365, 1.3919770761556958], [1.0, 0.0, 0.0, 1.0]))
    # det 5e-324, whose square root alone would put c below -SIGN_TOL and
    # apply the sign rule, which moves the last bits
    @example(([2.4633450753363293e-162, -6.975745108314298e-163,
               -2.3419286134523697e-174, 2.510321891595038e-162,
               2.7760490433000715], [1.0, 0.0, 0.0, 1.0]))
    def check(args):
        assert outcome(native.boundary_residual, args) == outcome(
            _pure.boundary_residual, args
        )

    check()


def test_native_boundary_track_matches_pure(native):
    @settings(max_examples=400, deadline=None)
    @given(track_cases())
    def check(args):
        assert outcome(native.boundary_track, args) == outcome(
            _pure.boundary_track, args
        )

    check()


DIAGONAL = build_product(build_octagon(), BOUNDARY_CIRCLE)


def canonical_frames():
    """The entries of a MoebiusElement, as minimal_set_residual pushes: a
    frame that canonical_entries leaves as it is."""
    return boundary_frames().filter(
        lambda f: f[0] * f[3] - f[1] * f[2] > 0.0
        and all(map(math.isfinite, f))
        and canonical_entries(*f) == f
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(canonical_frames(),
                          st.floats(-math.pi, math.pi, exclude_min=True)),
                max_size=3),
       st.lists(canonical_frames(), max_size=3))
def test_pure_boundary_residual_is_the_minimal_set_distance(rows, grid):
    # the element form of minimal_set_residual's product branch: the
    # distance of (pushed.mul(b), xi) from the graph set, for every pushed
    # frame and angle and every grid element b
    want = 0.0
    for frame, theta in rows:
        for b in grid:
            dist = minimal_set_distance(DIAGONAL, (
                MoebiusElement(*frame).mul(MoebiusElement(*b)),
                BoundaryPoint(theta),
            ))
            if dist > want:
                want = dist
    got = _pure.boundary_residual(
        flat(frame + (theta,) for frame, theta in rows), flat(grid))
    assert repr(got) == repr(want)
