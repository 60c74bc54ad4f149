"""The surface kernels' quick reject against the unfiltered descent.

`reference_surface_orbit` is the surface kernel as it was before the
descent skipped candidates: every letter's candidate is formed and its
distance taken with acosh.  Both backends must return exactly what it
returns, or raise the same exception with the same message.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoflow._kernels import _pure
from horoflow._kernels._pure import (
    _DESCENT_SLACK,
    _DET_TOL,
    _REDUCE_CAP,
    RENORM_EVERY,
    TRANS_BOUNDARY,
    TRANS_ROTATION,
    _boundary_apply,
    _quat_mul_norm,
    _renorm,
    _tangent_coords,
    _trans_coords,
)
from horoflow.groups import ROTATIONS3
from horoflow.models import build_octagon, build_product
from horoflow.moebius import MoebiusElement

IDENTITY = (1.0, 0.0, 0.0, 1.0)
NO_TRANS = (0.0, 0.0, 0.0, 0.0)


def _dist_to_center(a, b, c, d):
    # hyperbolic distance from (frame applied to i) to i, from raw entries
    gamma = c * c + d * d
    re = (a * c + b * d) / gamma
    im = 1.0 / gamma
    return math.acosh(1.0 + (re * re + (im - 1.0) * (im - 1.0)) / (2.0 * im))


def reference_surface_orbit(frame, step, letters, trans_kind, trans_quats,
                            trans_state, steps, sample_every):
    a, b, c, d = frame
    sa, sb, sc, sd = step
    t0, t1, t2, t3 = trans_state
    n_letters = len(letters) // 4
    samples = []
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
                        t0 = _boundary_apply(la, lb, lc, ld, t0)
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
            samples.append(
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


@pytest.mark.parametrize("kernel", ["pure", "native"])
def test_corner_cases_match_unfiltered_reference(kernel, native_or_none):
    """Near ties and failures come out as without the quick reject: 2000
    descents by a shift that shrinks cosh of the distance by about 2e-9
    each, a det -1 letter that wins a descent and collapses the next
    renormalisation, a shift that runs past the descent cap, a NaN frame
    that runs on as NaN, and a zero-row letter that divides by zero."""
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
    ]
    for args in cases:
        assert outcome(module.surface_orbit, args) == outcome(
            reference_surface_orbit, args
        )


def test_quick_reject_skips_most_candidates(monkeypatch):
    """The quick reject must fire: on an octagon u-orbit more than 90 % of
    candidates never reach their cosh argument."""
    calls = {"filtered": 0, "reference": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(_pure, "_cosh_dist", counting("filtered", _pure._cosh_dist))
    monkeypatch.setitem(globals(), "_dist_to_center",
                        counting("reference", _dist_to_center))
    steps = 2000
    args = (IDENTITY, MoebiusElement.u(0.01).entries, LETTERS, 0, None,
            NO_TRANS, steps, 1)
    assert _pure.surface_orbit(*args) == reference_surface_orbit(*args)
    # each kernel takes the frame's own argument once per step
    candidates = calls["reference"] - steps
    formed = calls["filtered"] - steps
    assert candidates >= 8 * steps
    assert formed < 0.1 * candidates
