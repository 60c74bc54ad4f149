"""Tests for transverse factors, product elements, word balls and the
projection classifier."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoflow.groups import (
    BOUNDARY_CIRCLE,
    REAL_AFFINE,
    ROTATIONS3,
    TRIVIAL,
    GeneratedGroup,
    ProductElement,
    ProjectionClass,
    classify_psl_projection,
    _seen_key,
    detect_semi_parabolic,
    iter_word_ball,
    quat_mul,
    quat_normalize,
    quat_rotate_vector,
    word_ball,
)
from horoflow.models import build_octagon, build_t3a
from horoflow.moebius import BoundaryPoint, MoebiusElement

LAMBDA = (3.0 + math.sqrt(5.0)) / 2.0
# eigenvector-chart constants of the cat-like torus map [[2,1],[1,1]],
# frozen from the closed forms a' = -lam/sqrt(lam^2+1) etc. (see the
# models tests, where they are re-derived from the matrix itself)
A_PRIME = -0.7236067977499789
B_PRIME = -0.6180339887498949
C_PRIME = -0.4472135954999579
D_PRIME = 1.0


def free_pair():
    return GeneratedGroup.from_moebius(
        [("u1", MoebiusElement.u(1.0)), ("g2", MoebiusElement.geo(2.0))]
    )


def modular_pair():
    return GeneratedGroup.from_moebius(
        [("T", MoebiusElement.u(1.0)), ("S", MoebiusElement.rot(0.5 * math.pi))]
    )


def brute_force_keys(gens, radius):
    """Independent enumeration oracle: multiply out every letter string of
    length <= radius and collect canonical keys, with no word reduction and
    no breadth-first bookkeeping."""
    letters = []
    for g in gens:
        letters.append(g)
        letters.append(g.inv())
    keys = {MoebiusElement.identity().key()}
    for r in range(1, radius + 1):
        for combo in itertools.product(letters, repeat=r):
            prod = MoebiusElement.identity()
            for el in combo:
                prod = prod.mul(el)
            keys.add(prod.key())
    return keys


# -- word balls ------------------------------------------------------------


def test_ball_radius_zero_is_identity():
    ball = word_ball(free_pair(), 0)
    assert len(ball) == 1
    assert ball.elements[0][0] == ()
    assert ball.elements[0][1].is_identity()


def test_free_pair_ball2_counts_17():
    # oracle: independent brute-force enumeration of all letter strings
    # (also the free-group count 1 + 4 + 4*3 = 17, no coincidences)
    ball = word_ball(free_pair(), 2)
    oracle = brute_force_keys([MoebiusElement.u(1.0), MoebiusElement.geo(2.0)], 2)
    assert len(oracle) == 17
    assert len(ball) == 17
    assert {pe.m.key() for _, pe in ball.elements} == oracle


def test_modular_ball2_collapses():
    # S has order 2, so the modular ball is strictly smaller than the free one
    ball = word_ball(modular_pair(), 2)
    oracle = brute_force_keys(
        [MoebiusElement.u(1.0), MoebiusElement.rot(0.5 * math.pi)], 2
    )
    assert len(ball) == len(oracle)
    assert len(ball) < 17


def test_ball_monotone_and_inverse_closed():
    group = modular_pair()
    keys2 = {pe.key() for _, pe in word_ball(group, 2).elements}
    ball3 = word_ball(group, 3)
    keys3 = {pe.key() for _, pe in ball3.elements}
    assert keys2 <= keys3
    for _, pe in ball3.elements:
        assert pe.inv().key() in keys3


def test_ball_deterministic_order():
    words_a = [w for w, _ in word_ball(free_pair(), 3).elements]
    words_b = [w for w, _ in word_ball(free_pair(), 3).elements]
    assert words_a == words_b


def test_ball_radius_cap_and_budget():
    with pytest.raises(ValueError):
        word_ball(free_pair(), 7)
    word_ball(free_pair(), 7, radius_cap=7, budget=100_000)  # explicit raise of cap
    with pytest.raises(RuntimeError):
        word_ball(free_pair(), 3, budget=10)


def reference_word_ball(group, radius, budget=200_000):
    """The breadth-first ball as a list, deduplicated by the plain keys:
    the oracle for the stream's order, its packed keys and its budget."""
    letters = group.letters()
    identity = ProductElement(
        MoebiusElement.identity(), group.space.identity(), group.space
    )
    seen = {identity.key()}
    elements = [((), identity)]
    frontier = [((), identity, -1)]
    for _ in range(radius):
        next_frontier = []
        for word, elem, last in frontier:
            for li, (lname, lelem, _undo) in enumerate(letters):
                if last >= 0 and letters[last][2] == li:
                    continue
                new = elem.mul(lelem)
                k = new.key()
                if k in seen:
                    continue
                if len(seen) >= budget:
                    raise RuntimeError(
                        "word ball exceeded the element budget (%d)" % budget
                    )
                seen.add(k)
                elements.append((word + (lname,), new))
                next_frontier.append((word + (lname,), new, li))
        frontier = next_frontier
    return elements


def exact(elements):
    """Words and exact entries: ProductElement's repr rounds to 9 digits."""
    return repr([(w, pe.m.entries, pe.g, pe.space.name) for w, pe in elements])


@pytest.mark.parametrize("group, radii", [
    (build_octagon().group(), range(5)),
    (free_pair(), range(5)),
    (modular_pair(), range(5)),
    (build_t3a(((2, 1), (1, 1))).dual_group(), range(4)),  # RealAffine keys
], ids=["octagon", "free", "modular", "t3a-dual"])
def test_streamed_ball_matches_the_list_ball(group, radii):
    for radius in radii:
        streamed = list(iter_word_ball(group, radius))
        assert exact(streamed) == exact(reference_word_ball(group, radius))
        assert exact(word_ball(group, radius).elements) == exact(streamed)


def test_streamed_ball_refuses_a_bad_radius_at_the_call():
    with pytest.raises(ValueError, match="nonnegative"):
        iter_word_ball(free_pair(), -1)
    with pytest.raises(ValueError, match="exceeds the cap 6"):
        iter_word_ball(free_pair(), 7)


def test_streamed_ball_stops_at_the_same_element_over_budget():
    got = []
    with pytest.raises(RuntimeError, match=r"element budget \(10\)"):
        for entry in iter_word_ball(free_pair(), 3, budget=10):
            got.append(entry)
    with pytest.raises(RuntimeError, match=r"element budget \(10\)"):
        reference_word_ball(free_pair(), 3, budget=10)
    assert exact(got) == exact(reference_word_ball(free_pair(), 3)[:10])


def test_ball_key_past_int64_stays_a_tuple_and_dedups_alike():
    # geo(1e5) has entries 1e5 and 1e-5, so words of two or more of its
    # letters have a key entry of 1e19 or more, past int64
    big = GeneratedGroup.from_moebius(
        [("g", MoebiusElement.geo(1e5)), ("T", MoebiusElement.u(1.0))]
    )
    elements = list(iter_word_ball(big, 3))
    keys = [_seen_key(pe) for _, pe in elements]
    assert any(isinstance(k, tuple) for k in keys)
    assert any(isinstance(k, bytes) for k in keys)
    assert exact(elements) == exact(reference_word_ball(big, 3))
    assert len(elements) == len(brute_force_keys(
        [MoebiusElement.geo(1e5), MoebiusElement.u(1.0)], 3))


def test_generated_group_validation():
    with pytest.raises(ValueError):
        GeneratedGroup([])
    with pytest.raises(ValueError):
        GeneratedGroup.from_moebius([("e", MoebiusElement.identity())])
    with pytest.raises(ValueError):
        GeneratedGroup.from_moebius(
            [("a", MoebiusElement.u(1.0)), ("a", MoebiusElement.geo(2.0))]
        )
    with pytest.raises(ValueError):
        GeneratedGroup(
            [
                ("a", ProductElement.plain(MoebiusElement.u(1.0))),
                ("b", ProductElement(MoebiusElement.geo(2.0), (1.0, 0.5), REAL_AFFINE)),
            ]
        )


def test_self_inverse_generator_gets_one_letter():
    letters = modular_pair().letters()
    assert len(letters) == 3  # T, T~, S


# -- semi-parabolic audit ----------------------------------------------------


def test_semi_parabolic_modular_radius1():
    # T = u(1) has trace 2: parabolic
    found = detect_semi_parabolic(modular_pair(), 1)
    words = {w for w, _ in found}
    assert ("T",) in words
    assert ("S",) not in words


def test_semi_parabolic_free_pair_radius1():
    found = detect_semi_parabolic(free_pair(), 1)
    assert {w for w, _ in found} == {("u1",), ("u1~",)}


@settings(max_examples=25, deadline=None)
@given(
    t=st.floats(-2.0, 2.0),
    lam=st.floats(0.5, 2.0),
    ang=st.floats(-1.0, 1.0),
)
def test_semi_parabolic_count_conjugation_stable(t, lam, ang):
    h = ProductElement.plain(
        MoebiusElement.u(t)
        .mul(MoebiusElement.geo(lam))
        .mul(MoebiusElement.rot(ang))
    )
    hinv = h.inv()
    base = modular_pair()
    conj = GeneratedGroup(
        [(name, h.mul(pe).mul(hinv)) for name, pe in base.generators]
    )
    n_base = len(detect_semi_parabolic(base, 2))
    n_conj = len(detect_semi_parabolic(conj, 2))
    assert n_base == n_conj


# -- projection classifier ----------------------------------------------------


def test_classify_modular_discrete():
    report = classify_psl_projection(modular_pair(), radius=6, tol=0.05)
    assert report.label is ProjectionClass.DISCRETE_CANDIDATE
    assert report.gap > 0.05


def test_classify_torus_bundle_projection_fixes_infinity():
    group = GeneratedGroup.from_moebius(
        [
            ("t1", MoebiusElement.u(A_PRIME)),
            ("t2", MoebiusElement.u(C_PRIME)),
            ("h", MoebiusElement.geo(math.sqrt(LAMBDA))),
        ]
    )
    report = classify_psl_projection(group)
    assert report.label is ProjectionClass.FIXES_BOUNDARY_POINT
    assert report.boundary_point.is_infinity(tol=1e-12)


def test_classify_rotation_pair():
    group = GeneratedGroup.from_moebius(
        [("r1", MoebiusElement.rot(1.0)), ("r2", MoebiusElement.rot(math.sqrt(2.0)))]
    )
    report = classify_psl_projection(group)
    assert report.label is ProjectionClass.ROTATION_LIKE
    assert abs(report.interior_point - 1j) < 1e-9


def test_classify_dense_candidate():
    # a tiny rotation sits within the gap tolerance of the identity, and the
    # hyperbolic partner rules out a common fixed point
    group = GeneratedGroup.from_moebius(
        [("r", MoebiusElement.rot(0.02)), ("g", MoebiusElement.geo(2.0))]
    )
    report = classify_psl_projection(group, radius=2, tol=0.05)
    assert report.label is ProjectionClass.DENSE_CANDIDATE


def test_classify_invariant_under_permutation_and_inverses():
    cases = [
        [("T", MoebiusElement.u(1.0)), ("S", MoebiusElement.rot(0.5 * math.pi))],
        [
            ("t1", MoebiusElement.u(A_PRIME)),
            ("t2", MoebiusElement.u(C_PRIME)),
            ("h", MoebiusElement.geo(math.sqrt(LAMBDA))),
        ],
        [("r1", MoebiusElement.rot(1.0)), ("r2", MoebiusElement.rot(math.sqrt(2.0)))],
    ]
    for gens in cases:
        base = classify_psl_projection(GeneratedGroup.from_moebius(gens))
        permuted = classify_psl_projection(
            GeneratedGroup.from_moebius(list(reversed(gens)))
        )
        flipped = classify_psl_projection(
            GeneratedGroup.from_moebius(
                [(gens[0][0], gens[0][1].inv())] + gens[1:]
            )
        )
        assert permuted.label is base.label
        assert flipped.label is base.label


# -- product elements and the componentwise action ---------------------------


def test_product_group_laws_componentwise():
    rng = random.Random(7)
    for _ in range(50):
        elems = [
            ProductElement(
                MoebiusElement.u(rng.uniform(-2, 2)).mul(
                    MoebiusElement.geo(rng.uniform(0.5, 2))
                ),
                REAL_AFFINE.make(rng.uniform(0.5, 2), rng.uniform(-1, 1)),
                REAL_AFFINE,
            )
            for _ in range(3)
        ]
        g, h, k = elems
        left = g.mul(h).mul(k)
        right = g.mul(h.mul(k))
        assert left.m.close_to(right.m, 1e-9)
        assert REAL_AFFINE.point_dist(left.g[0], right.g[0]) < 1e-9
        assert abs(left.g[1] - right.g[1]) < 1e-9
        assert g.mul(g.inv()).is_identity(1e-9)


def test_product_apply_torus_bundle_translations():
    t1_star = ProductElement(
        MoebiusElement.u(A_PRIME), REAL_AFFINE.make(1.0, B_PRIME), REAL_AFFINE
    )
    xi = BoundaryPoint.from_real(0.25)
    xi2, y2 = t1_star.apply_pair((xi, 0.5))
    assert abs(xi2.value - (0.25 + A_PRIME)) < 1e-12
    assert abs(y2 - (0.5 + B_PRIME)) < 1e-12

    ident = ProductElement(MoebiusElement.identity(), REAL_AFFINE.identity(), REAL_AFFINE)
    xi3, y3 = ident.apply_pair((xi, 0.5))
    assert xi3.chordal(xi) == 0.0 and y3 == 0.5


def test_product_apply_expansion_contraction():
    h_star = ProductElement(
        MoebiusElement.geo(math.sqrt(LAMBDA)),
        REAL_AFFINE.make(1.0 / LAMBDA, 0.0),
        REAL_AFFINE,
    )
    xi, y = h_star.apply_pair((BoundaryPoint.from_real(1.0), 1.0))
    assert abs(xi.value - LAMBDA) < 1e-12
    assert abs(y - 1.0 / LAMBDA) < 1e-12


# -- transverse spaces --------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    m1=st.floats(0.1, 10.0),
    k1=st.floats(-5.0, 5.0),
    m2=st.floats(0.1, 10.0),
    k2=st.floats(-5.0, 5.0),
    y=st.floats(-5.0, 5.0),
)
def test_affine_compose_matches_action(m1, k1, m2, k2, y):
    g = REAL_AFFINE.make(m1, k1)
    h = REAL_AFFINE.make(m2, k2)
    composed = REAL_AFFINE.compose(g, h)
    assert math.isclose(
        REAL_AFFINE.act(composed, y),
        REAL_AFFINE.act(g, REAL_AFFINE.act(h, y)),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )
    gi = REAL_AFFINE.inverse(g)
    assert REAL_AFFINE.is_identity(REAL_AFFINE.compose(g, gi), 1e-9)


def test_affine_rejects_nonpositive_dilation():
    with pytest.raises(ValueError):
        REAL_AFFINE.make(-1.0, 0.0)
    with pytest.raises(ValueError):
        REAL_AFFINE.make(0.0, 3.0)


def rotation_quat(axis, angle):
    ax, ay, az = axis
    n = math.sqrt(ax * ax + ay * ay + az * az)
    s = math.sin(0.5 * angle) / n
    return quat_normalize((math.cos(0.5 * angle), ax * s, ay * s, az * s))


def test_quaternion_rotation_oracle():
    # quarter turn about the z axis sends e1 to e2
    q = rotation_quat((0.0, 0.0, 1.0), 0.5 * math.pi)
    vx, vy, vz = quat_rotate_vector(q, (1.0, 0.0, 0.0))
    assert abs(vx) < 1e-12 and abs(vy - 1.0) < 1e-12 and abs(vz) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    a1=st.floats(-3.0, 3.0),
    a2=st.floats(-3.0, 3.0),
    ax=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.1, 1)),
)
def test_quaternion_compose_matches_rotation_composition(a1, a2, ax):
    q1 = rotation_quat(ax, a1)
    q2 = rotation_quat((ax[2], ax[0], ax[1]), a2)
    v = (0.3, -0.4, 0.5)
    step = quat_rotate_vector(q1, quat_rotate_vector(q2, v))
    joint = quat_rotate_vector(quat_mul(q1, q2), v)
    for s, j in zip(step, joint):
        assert abs(s - j) < 1e-9


def test_quaternion_canonical_sign_and_norm():
    q = ROTATIONS3.make(-1.0, 0.0, 0.0, 0.0)
    assert q[0] == 1.0  # sign canonicalized
    with pytest.raises(ValueError):
        ROTATIONS3.make(0.5, 0.5, 0.5, 0.0)  # norm != 1
    assert ROTATIONS3.is_identity(q)


def test_quaternion_point_dist_ignores_sign():
    q = rotation_quat((0.0, 1.0, 0.0), 1.2)
    neg = tuple(-comp for comp in q)
    assert ROTATIONS3.point_dist(q, quat_normalize(neg)) < 1e-12


def test_boundary_circle_space_acts_like_moebius():
    g = MoebiusElement.geo(2.0)
    pt = BoundaryPoint.from_real(1.0)
    assert BOUNDARY_CIRCLE.act(g, pt).chordal(g.apply_boundary(pt)) == 0.0
    assert BOUNDARY_CIRCLE.is_identity(BOUNDARY_CIRCLE.identity())
    assert TRIVIAL.point_coords(TRIVIAL.act(None, None)) == ()
