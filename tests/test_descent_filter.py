"""The surface kernels' quick reject and inner-ball skip against the
unfiltered descent.

`reference_surface_orbit` is the surface kernel as it was before the
descent skipped candidates: every letter's candidate is formed and its
distance taken with acosh.  Its rows come from `_tangent_coords` and
`_trans_coords`, the per-row tuples the kernels built before they wrote
each row into their buffer in place.  Like the kernels, it returns its
samples as one flat array('d').  Both backends must return exactly what it
returns, or raise the same exception with the same message.
"""

import math
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoflow._kernels import _pure
from horoflow._kernels._pure import (
    _DESCENT_SLACK,
    _DET_TOL,
    _HALF_PI,
    _REDUCE_CAP,
    _TAU,
    RENORM_EVERY,
    TRANS_BOUNDARY,
    TRANS_ROTATION,
    _inner_bound,
    _letter_table,
    _quat_mul_norm,
    _renorm,
)
from horoflow.groups import ROTATIONS3
from horoflow.models import build_octagon, build_product
from horoflow.moebius import MoebiusElement, boundary_angle

IDENTITY = (1.0, 0.0, 0.0, 1.0)
NO_TRANS = (0.0, 0.0, 0.0, 0.0)


def _dist_to_center(a, b, c, d):
    # hyperbolic distance from (frame applied to i) to i, from raw entries
    gamma = c * c + d * d
    re = (a * c + b * d) / gamma
    im = 1.0 / gamma
    return math.acosh(1.0 + (re * re + (im - 1.0) * (im - 1.0)) / (2.0 * im))


def _tangent_coords(a, b, c, d):
    gamma = c * c + d * d
    re = (a * c + b * d) / gamma
    im = 1.0 / gamma
    direction = (_HALF_PI - 2.0 * math.atan2(c, d)) % _TAU
    return (re, im, direction)


def _pole_coords(t0, t1, t2, t3):
    vx = 2.0 * (t0 * t2 + t1 * t3)
    vy = 2.0 * (t2 * t3 - t0 * t1)
    vz = 1.0 - 2.0 * t1 * t1 - 2.0 * t2 * t2
    if vz > 1.0:
        vz = 1.0
    elif vz < -1.0:
        vz = -1.0
    return (math.acos(vz), math.atan2(vy, vx))


def _trans_coords(trans_kind, t0, t1, t2, t3):
    if trans_kind == TRANS_BOUNDARY:
        return (t0,)
    if trans_kind == TRANS_ROTATION:
        return _pole_coords(t0, t1, t2, t3)
    return ()


def reference_surface_orbit(frame, step, letters, trans_kind, trans_quats,
                            trans_state, steps, sample_every):
    a, b, c, d = frame
    sa, sb, sc, sd = step
    t0, t1, t2, t3 = trans_state
    n_letters = len(letters) // 4
    samples = array("d")
    for i in range(steps):
        # right multiplication by the step element
        a, b, c, d = (
            a * sa + b * sc,
            a * sb + b * sd,
            c * sa + d * sc,
            c * sb + d * sd,
        )
        det = a * d - b * c
        if det - 1.0 > _DET_TOL or 1.0 - det > _DET_TOL or (i + 1) % RENORM_EVERY == 0:
            a, b, c, d = _renorm(a, b, c, d)
        # greedy descent toward the domain center
        dist = _dist_to_center(a, b, c, d)
        descend = 0
        while True:
            moved = False
            for k in range(n_letters):
                la = letters[4 * k]
                lb = letters[4 * k + 1]
                lc = letters[4 * k + 2]
                ld = letters[4 * k + 3]
                ca = la * a + lb * c
                cb = la * b + lb * d
                cc = lc * a + ld * c
                cd = lc * b + ld * d
                cand = _dist_to_center(ca, cb, cc, cd)
                if cand < dist - _DESCENT_SLACK:
                    a, b, c, d = (ca, cb, cc, cd)
                    dist = cand
                    if trans_kind == TRANS_BOUNDARY:
                        t0 = boundary_angle(la, lb, lc, ld, t0)
                    elif trans_kind == TRANS_ROTATION:
                        t0, t1, t2, t3 = _quat_mul_norm(
                            trans_quats[4 * k],
                            trans_quats[4 * k + 1],
                            trans_quats[4 * k + 2],
                            trans_quats[4 * k + 3],
                            t0, t1, t2, t3,
                        )
                    moved = True
                    break
            if not moved:
                break
            descend += 1
            if descend > _REDUCE_CAP:
                raise ValueError(
                    "reduction did not settle within %d descents at step %d"
                    % (_REDUCE_CAP, i)
                )
        if (i + 1) % sample_every == 0:
            samples.extend(
                _tangent_coords(a, b, c, d)
                + _trans_coords(trans_kind, t0, t1, t2, t3)
            )
    return (samples, (a, b, c, d), (t0, t1, t2, t3))


OCTAGON = build_octagon()
LETTERS = [v for g in OCTAGON.generators for v in g.entries]
QUATS = [
    v
    for k in range(OCTAGON.letter_count())
    for v in build_product(OCTAGON, ROTATIONS3, seed=7).letter_transverse(k)
]
UNIT_QUAT = [1.0, 0.0, 0.0, 0.0]


def outcome(kernel, args):
    """The repr of what the kernel returns, or its exception and message."""
    try:
        return repr(kernel(*args))
    except Exception as exc:  # the failure must match as well
        return (type(exc), str(exc))


@st.composite
def frames(draw):
    """k(theta) a(t) n(x): any direction, up to distance 30 from i."""
    theta = draw(st.floats(-math.pi, math.pi))
    t = draw(st.floats(0.0, 30.0))
    x = draw(st.floats(-10.0, 10.0))
    g = MoebiusElement.rot(theta).mul(MoebiusElement.geo(math.exp(0.5 * t)))
    return g.mul(MoebiusElement.u(x)).entries


@st.composite
def step_elements(draw):
    kind = draw(st.sampled_from(["u", "geo", "b", "identity"]))
    s = draw(st.floats(-0.5, 0.5))
    if kind == "u":
        return MoebiusElement.u(s).entries
    if kind == "geo":
        return MoebiusElement.geo(math.exp(0.5 * s)).entries
    if kind == "b":
        return MoebiusElement.b_el(math.exp(s), draw(st.floats(-0.5, 0.5))).entries
    return IDENTITY


@st.composite
def extra_letters(draw):
    """Letters the quick reject must leave to the exact path."""
    kind = draw(st.sampled_from(["det", "nan", "identities"]))
    if kind == "identities":
        return list(IDENTITY) * 16
    k = draw(st.integers(0, 7))
    letter = list(LETTERS[4 * k:4 * k + 4])
    if kind == "det":
        # det s^2: slightly or far off 1, on either side
        s = draw(st.sampled_from([1.0 + 1e-13, 1.0 + 1e-9, 1.0 + 1e-6,
                                  1.0 - 1e-6, 0.5, 2.0]))
        return [s * v for v in letter]
    letter[draw(st.integers(0, 3))] = math.nan
    return letter


@st.composite
def unit_quats(draw):
    q = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda q: sum(v * v for v in q) > 0.01))
    n = math.sqrt(sum(v * v for v in q))
    return tuple(v / n for v in q)


@st.composite
def cases(draw):
    letters = list(LETTERS)
    quats = list(QUATS)
    for extra in draw(st.lists(extra_letters(), max_size=2)):
        pad = UNIT_QUAT * (len(extra) // 4)
        if draw(st.booleans()):
            letters, quats = letters + extra, quats + pad
        else:
            letters, quats = extra + letters, pad + quats
    kind = draw(st.sampled_from([0, TRANS_BOUNDARY, TRANS_ROTATION]))
    if kind == TRANS_BOUNDARY:
        trans = (draw(st.floats(-math.pi, math.pi)), 0.0, 0.0, 0.0)
    elif kind == TRANS_ROTATION:
        trans = draw(unit_quats())
    else:
        trans = NO_TRANS
    return (draw(frames()), draw(step_elements()), letters, kind,
            quats if kind == TRANS_ROTATION else None, trans,
            draw(st.integers(0, 60)), draw(st.integers(1, 7)))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_pure_matches_unfiltered_reference(args):
    assert outcome(_pure.surface_orbit, args) == outcome(reference_surface_orbit, args)


def test_native_matches_unfiltered_reference(native):
    @settings(max_examples=200, deadline=None)
    @given(cases())
    def check(args):
        assert outcome(native.surface_orbit, args) == outcome(
            reference_surface_orbit, args
        )

    check()


def inner_threshold(letters):
    """2*cosh(D/2) shrunk by 1e-4, D the shortest distance a letter moves i."""
    shortest = min(_dist_to_center(*letters[k:k + 4])
                   for k in range(0, len(letters), 4))
    return 2.0 * math.cosh(0.5 * shortest) * (1.0 - 1e-4)


OCTAGON_T = inner_threshold(LETTERS)
# a side pairing shorter than the octagon's, with its inverse
SHORT = [*MoebiusElement.geo(math.exp(0.2)).entries,
         *MoebiusElement.geo(math.exp(-0.2)).entries]


@st.composite
def threshold_letters(draw):
    """(letters, quats, T): the octagon's letters, or with an extra short
    letter pair that lowers T, or with a det-off or NaN letter, or none at
    all, which turn the skip off; T is then the octagon's."""
    kind = draw(st.sampled_from(["octagon", "short", "det", "nan", "none"]))
    if kind == "octagon":
        return list(LETTERS), list(QUATS), OCTAGON_T
    if kind == "none":
        return [], [], OCTAGON_T
    if kind == "short":
        extra = SHORT
    else:
        k = draw(st.integers(0, 7))
        extra = list(LETTERS[4 * k:4 * k + 4])
        if kind == "det":
            extra = [(1.0 + 1e-9) * v for v in extra]
        else:
            extra[draw(st.integers(0, 3))] = math.nan
    pad = UNIT_QUAT * (len(extra) // 4)
    if draw(st.booleans()):
        letters, quats = LETTERS + extra, QUATS + pad
    else:
        letters, quats = extra + LETTERS, pad + QUATS
    return letters, quats, inner_threshold(letters) if kind == "short" else OCTAGON_T


@st.composite
def near_threshold_cases(draw):
    """Frames k(theta) a(t) k(phi) with ||g||^2 = 2*cosh t within 1e-3 of T,
    relative, on either side and mostly much nearer, moved by steps too
    small to leave that band quickly.  Half of them point within 0.01 of a
    letter's axis, theta a multiple of pi/8, where the inscribed ball
    touches a side and a looser T would skip a descent."""
    letters, quats, threshold = draw(threshold_letters())
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.floats(3.0, 9.0))
    t = math.acosh(0.5 * threshold * (1.0 + offset))
    if draw(st.booleans()):
        theta = draw(st.integers(0, 15)) * math.pi / 8.0 + draw(st.floats(-0.01, 0.01))
    else:
        theta = draw(st.floats(-math.pi, math.pi))
    frame = (MoebiusElement.rot(theta)
             .mul(MoebiusElement.geo(math.exp(0.5 * t)))
             .mul(MoebiusElement.rot(draw(st.floats(-math.pi, math.pi)))))
    s = draw(st.floats(-1e-3, 1e-3))
    step = draw(st.sampled_from([IDENTITY, MoebiusElement.u(s).entries,
                                 MoebiusElement.geo(math.exp(s)).entries]))
    kind = draw(st.sampled_from([0, TRANS_BOUNDARY, TRANS_ROTATION]))
    if kind == TRANS_BOUNDARY:
        trans = (draw(st.floats(-math.pi, math.pi)), 0.0, 0.0, 0.0)
    elif kind == TRANS_ROTATION:
        trans = draw(unit_quats())
    else:
        trans = NO_TRANS
    return (frame.entries, step, letters, kind,
            quats if kind == TRANS_ROTATION else None, trans,
            draw(st.integers(1, 20)), draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(near_threshold_cases())
def test_pure_matches_reference_near_inner_ball(args):
    assert outcome(_pure.surface_orbit, args) == outcome(reference_surface_orbit, args)


def test_native_matches_reference_near_inner_ball(native):
    @settings(max_examples=200, deadline=None)
    @given(near_threshold_cases())
    def check(args):
        assert outcome(native.surface_orbit, args) == outcome(
            reference_surface_orbit, args
        )

    check()


def test_inner_bound_follows_the_shortest_letter():
    """T is the octagon's inradius bound, drops with a shorter letter, and
    is NaN, which turns the skip off, for a det-off, a NaN or no letter."""
    octagon = _inner_bound(_letter_table(LETTERS))
    assert octagon == pytest.approx(OCTAGON_T, rel=1e-12)
    assert 4.8279 < octagon < 2.0 * (1.0 / math.tan(math.pi / 8.0))
    assert _inner_bound(_letter_table(LETTERS + SHORT)) == pytest.approx(
        inner_threshold(SHORT), rel=1e-12)
    det_off = LETTERS + [(1.0 + 1e-9) * v for v in LETTERS[:4]]
    no_number = LETTERS + [math.nan, 0.0, 0.0, 1.0]
    for letters in (det_off, no_number, []):
        assert math.isnan(_inner_bound(_letter_table(letters)))


def test_descent_table_is_built_once_per_letter_doubles(native_or_none):
    """_pure builds the letter table once per distinct list of letter
    doubles.  Letters that differ only in the sign of a zero keep their own
    rows: the winning candidate of this diagonal frame then has a -0.0
    entry, and its sample's real part is -0.0.  Int letters share the rows
    of equal doubles, as _native.c reads both."""
    frame = (0.25, -0.0, -0.0, 4.0)  # i/16, two descents from i
    step = (1.0, -0.0, -0.0, 1.0)  # keeps the zeros' signs
    kernels = [_pure] + ([native_or_none] if native_or_none else [])
    _pure._descent_table.cache_clear()
    for letters in ([2.0, 0.0, 0.0, 0.5], [2.0, -0.0, -0.0, 0.5],
                    [2, 0, 0, 0.5], [2.0, -0.0, -0.0, 0.5]):
        args = (frame, step, letters, 0, None, NO_TRANS, 1, 1)
        expected = outcome(reference_surface_orbit, args)
        for kernel in kernels:
            assert outcome(kernel.surface_orbit, args) == expected
    assert repr(reference_surface_orbit(*args)[0]) == (
        "array('d', [-0.0, 1.0, 1.5707963267948966])")
    info = _pure._descent_table.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def frame_at_threshold():
    """A diagonal frame whose ||g||^2, summed as the kernels sum it, is the
    octagon's T to the last bit."""
    threshold = _inner_bound(_letter_table(LETTERS))
    a = math.exp(0.5 * math.acosh(0.5 * threshold))
    d = 1.0 / a

    def norm(d):
        return (a * a + 0.0 * 0.0) + (0.0 * 0.0 + d * d)

    for _ in range(100):
        if norm(d) == threshold:
            return (a, 0.0, 0.0, d)
        d = math.nextafter(d, math.inf if norm(d) < threshold else -math.inf)
    raise AssertionError("no frame with ||g||^2 == T")


@pytest.mark.parametrize("kernel", ["pure", "native"])
def test_corner_cases_match_unfiltered_reference(kernel, native_or_none):
    """Near ties and failures come out as without the quick reject: 2000
    descents by a shift that shrinks cosh of the distance by about 2e-9
    each, a det -1 letter that wins a descent and collapses the next
    renormalisation, a shift that runs past the descent cap, a NaN frame
    that runs on as NaN, a zero-row letter that divides by zero, and a
    frame on the inner-ball threshold T itself."""
    if kernel == "native" and native_or_none is None:
        pytest.skip("no C compiler to build _native.c")
    module = _pure if kernel == "pure" else native_or_none
    step = MoebiusElement.u(0.05).entries
    far = MoebiusElement.geo(math.e).entries  # i * e^2
    # each letter with its rows swapped: det -1, the same distances
    flipped = [v for k in range(0, 32, 4)
               for v in LETTERS[k + 2:k + 4] + LETTERS[k:k + 2]]
    creep = [math.exp(-5e-5), 0.0, 0.0, math.exp(5e-5)]
    near = MoebiusElement.geo(math.exp(1e-3)).entries  # i * e^0.002
    inch = [math.exp(-5e-7), 0.0, 0.0, math.exp(5e-7)]
    cases = [
        (near, IDENTITY, LETTERS + inch, 0, None, NO_TRANS, 1, 1),
        (far, step, flipped + LETTERS, 0, None, NO_TRANS, 5, 1),
        (far, step, creep + LETTERS, 0, None, NO_TRANS, 3, 1),
        ((math.nan, 0.0, 0.0, 1.0), step, LETTERS, 0, None, NO_TRANS, 3, 1),
        (IDENTITY, step, [1.0, 0.0, 0.0, 0.0] + LETTERS, 0, None, NO_TRANS,
         3, 1),
        (frame_at_threshold(), IDENTITY, LETTERS, 0, None, NO_TRANS, 3, 1),
    ]
    for args in cases:
        assert outcome(module.surface_orbit, args) == outcome(
            reference_surface_orbit, args
        )


def count_cosh_calls(monkeypatch):
    """Route _pure._cosh_dist through a counter; returns the record: how
    often the frame's own argument and a candidate's were taken, and the
    steps in which any was."""
    record = {"frame": 0, "candidate": 0, "steps": set()}
    cosh_dist = _pure._cosh_dist

    def counting(*args):
        caller = sys._getframe(1).f_locals
        own = args == (caller["a"], caller["b"], caller["c"], caller["d"])
        record["frame" if own else "candidate"] += 1
        record["steps"].add(caller["i"])
        return cosh_dist(*args)

    monkeypatch.setattr(_pure, "_cosh_dist", counting)
    return record


def octagon_u_orbit(steps):
    return (IDENTITY, MoebiusElement.u(0.01).entries, LETTERS, 0, None,
            NO_TRANS, steps, 1)


def test_quick_reject_skips_most_candidates(monkeypatch):
    """The quick reject must fire: on an octagon u-orbit more than 90 % of
    candidates never reach their cosh argument."""
    record = count_cosh_calls(monkeypatch)
    calls = {"reference": 0}
    dist_to_center = _dist_to_center

    def counting_reference(*args):
        calls["reference"] += 1
        return dist_to_center(*args)

    monkeypatch.setitem(globals(), "_dist_to_center", counting_reference)
    steps = 2000
    args = octagon_u_orbit(steps)
    assert _pure.surface_orbit(*args) == reference_surface_orbit(*args)
    # the reference takes the frame's own distance once per step, the
    # kernel at most once
    candidates = calls["reference"] - steps
    assert record["frame"] <= steps
    assert candidates >= 8 * steps
    assert record["candidate"] < 0.1 * candidates


def test_inner_ball_skips_most_steps(monkeypatch):
    """The inner-ball skip must fire: on an octagon u-orbit at least 60 %
    of the steps (77 % measured) take no cosh argument at all."""
    record = count_cosh_calls(monkeypatch)
    steps = 2000
    _pure.surface_orbit(*octagon_u_orbit(steps))
    assert steps - len(record["steps"]) >= 0.6 * steps
