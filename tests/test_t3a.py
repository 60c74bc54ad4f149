"""Tests for the hyperbolic torus bundle model."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horoflow import _kernels
from horoflow.models import build_model, build_t3a
from horoflow.models.base import QuotientPoint
from horoflow.models.t3a import (
    MAX_MONODROMY_POWER,
    b_affine_params,
    mat_mul_int,
    sol3_b_embed,
    sol3_mul,
)
from horoflow.moebius import BoundaryPoint, MoebiusElement

SQRT5 = math.sqrt(5.0)
# closed forms for A = (2,1;1,1), from the eigenvector normalization
# u = (1, lam - 2), v = w / det(u|w) with w the small eigenvector:
# worked out by hand over Z[sqrt(5)]
LAM = (3.0 + SQRT5) / 2.0
A_PRIME = -(5.0 + SQRT5) / 10.0
B_PRIME = -(SQRT5 - 1.0) / 2.0
C_PRIME = -SQRT5 / 5.0
D_PRIME = 1.0


def cat_model():
    return build_t3a(((2, 1), (1, 1)))


# The eigenvectors, the charts, the leafwise deck maps and the eigenframe
# reduction of a model: references for the tests below, which the library
# does not use.


def u_vec(model):
    return (model.d_prime, -model.b_prime)


def v_vec(model):
    return (model.c_prime, -model.a_prime)


def torus_from_primed(model, xp, yp):
    """The inverse of model.primed_from_torus."""
    return (
        -model.d_prime * xp + model.c_prime * yp,
        model.b_prime * xp - model.a_prime * yp,
    )


def halfplane_from_coords(model, x, y, t):
    """(x, y, t) -> (z', y') with z' = x' + i lam^t."""
    xp, yp = model.primed_from_torus(x, y)
    return (complex(xp, model.lam ** t), yp)


def coords_from_halfplane(model, zp, yp):
    """(z', y') -> (x, y, t); the height of z' carries t."""
    if zp.imag <= 0.0:
        raise ValueError("leafwise point must lie in the upper half-plane")
    t = math.log(zp.imag) / model.log_lam
    x, y = torus_from_primed(model, zp.real, yp)
    return (x, y, t)


def apply_leafwise_gen(model, k, zy, inverse=False):
    """Generator k on (z', y') pairs, z' in the upper half-plane."""
    zp, yp = zy
    s = -1.0 if inverse else 1.0
    if k == 0:
        return (zp + s * model.a_prime, yp + s * model.b_prime)
    if k == 1:
        return (zp + s * model.c_prime, yp + s * model.d_prime)
    if k == 2:
        if inverse:
            return (zp / model.lam, yp * model.lam)
        return (model.lam * zp, yp / model.lam)
    raise ValueError("generator index out of range")


def reduce_primed(model, xp, yp, tp):
    """Reduce an eigenframe state; returns (state, point).

    The t3a kernel's reference: the monodromy acts diagonally here, so
    undoing it is two scalings, and the lattice part is subtracted via the
    shift images of e1 and e2.
    """
    n = math.floor(tp)
    if abs(n) > MAX_MONODROMY_POWER:
        raise ValueError(
            "suspension coordinate drifted %d levels, beyond the guard (%d)"
            % (n, MAX_MONODROMY_POWER)
        )
    if n != 0:
        scale = model.lam ** n
        xp /= scale
        yp *= scale
        tp -= n
    x, y = torus_from_primed(model, xp, yp)
    m1 = math.floor(x)
    m2 = math.floor(y)
    if m1 != 0 or m2 != 0:
        xp -= m1 * model.a_prime + m2 * model.c_prime
        yp -= m1 * model.b_prime + m2 * model.d_prime
    point = QuotientPoint(model.name, (x - m1, y - m2, tp))
    return ((xp, yp, tp), point)


def random_hyperbolic_sl2z(rng, max_trace=50):
    """Random SL(2,Z) with 2 < trace <= max_trace, as positive words in the
    two elementary shear matrices."""
    while True:
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(2, 6)):
            k = rng.randint(1, 3)
            shear = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
            m = mat_mul_int(m, shear)
        tr = m[0][0] + m[1][1]
        if 2 < tr <= max_trace:
            return m


# -- construction -------------------------------------------------------------


def test_build_frozen_eigendata():
    model = cat_model()
    assert abs(model.lam - LAM) < 1e-12
    assert abs(model.a_prime - A_PRIME) < 1e-12
    assert abs(model.b_prime - B_PRIME) < 1e-12
    assert abs(model.c_prime - C_PRIME) < 1e-12
    assert abs(model.d_prime - D_PRIME) < 1e-12


def test_build_invariants_random_sl2z():
    rng = random.Random(20260818)
    for _ in range(40):
        a_mat = random_hyperbolic_sl2z(rng)
        model = build_t3a(a_mat)
        (a11, a12), (a21, a22) = a_mat
        ux, uy = u_vec(model)
        vx, vy = v_vec(model)
        assert abs(a11 * ux + a12 * uy - model.lam * ux) < 1e-12 * model.lam
        assert abs(a21 * ux + a22 * uy - model.lam * uy) < 1e-12 * model.lam
        assert abs(a11 * vx + a12 * vy - vx / model.lam) < 1e-12
        assert abs(a21 * vx + a22 * vy - vy / model.lam) < 1e-12
        unimodular = (
            model.b_prime * model.c_prime - model.a_prime * model.d_prime
        )
        assert abs(unimodular - 1.0) < 1e-12


def test_build_rejections():
    with pytest.raises(ValueError):
        build_t3a(((1, 1), (0, 1)))  # parabolic
    with pytest.raises(ValueError):
        build_t3a(((2, 1), (1, 2)))  # det 3
    with pytest.raises(ValueError):
        build_t3a(((0, -1), (1, 0)))  # trace 0


# -- reduction ---------------------------------------------------------------


def test_reduce_frozen_example():
    # hand oracle: floor(t) = 1, A^-1 = (1,-1;-1,2) sends (.5,.5) to (0,.5)
    model = cat_model()
    point = model.reduce((0.5, 0.5, 1.0))
    assert max(abs(a - b) for a, b in zip(point.coords, (0.0, 0.5, 0.0))) < 1e-12


def test_reduce_idempotent_and_invariant():
    model = cat_model()
    rng = random.Random(11)
    for _ in range(200):
        p = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-1.9, 1.9))
        reduced = model.reduce(p)
        again = model.reduce(reduced.coords)
        assert model.points_close(reduced, again, 1e-9)
        for k in range(3):
            shifted = model.reduce(model.apply_torus_gen(k, p))
            assert model.points_close(reduced, shifted, 1e-9)


def test_reduce_guard_and_validation():
    model = cat_model()
    with pytest.raises(ValueError):
        model.reduce((0.1, 0.1, MAX_MONODROMY_POWER + 1.5))
    with pytest.raises(ValueError):
        model.reduce((math.nan, 0.0, 0.0))


def test_points_close_across_seam():
    model = cat_model()
    eps = 1e-10
    p = model.reduce((0.3, 0.7, 1.0 - eps))
    q = model.reduce((0.3, 0.7, 1.0 + eps))
    assert model.points_close(p, q, 1e-8)
    r = model.reduce((0.3 + 5e-9, 0.7, 1.0 - eps))
    assert model.points_close(p, r, 1e-8)
    far = model.reduce((0.42, 0.7, 1.0 - eps))
    assert not model.points_close(p, far, 1e-8)


def test_reduce_primed_matches_torus_reduction():
    model = cat_model()
    rng = random.Random(23)
    for _ in range(100):
        p = (rng.random(), rng.random(), rng.random())
        state = model.state_from_point(model.reduce(p))
        # wander around the covering space in the eigenframe
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, 2)
            state = model.apply_primed_gen(k, state)
        _, point = reduce_primed(model, *state)
        assert model.points_close(point, model.reduce(p), 1e-8)


def test_t3a_kernel_matches_model_reduction():
    m = build_t3a(((2, 1), (1, 1)))
    eigen = (m.a_prime, m.b_prime, m.c_prime, m.d_prime)
    sol_step = (0.037, 0.0, 0.0)
    x0, y0 = m.primed_from_torus(0.2, 0.7)
    values, _ = _kernels.t3a_orbit((x0, y0, 0.35), m.lam, eigen, sol_step, 400, 1)
    # the sample rows follow the zero row the kernel leaves for the start
    samples = list(zip(*[iter(values[3:])] * 3))
    state = (x0, y0, 0.35)
    for i in range(400):
        state = sol3_mul(state, sol_step, m.lam)
        state, point = reduce_primed(m, *state)
        got = QuotientPoint("t3a", samples[i])
        assert m.points_close(got, point, 1e-8), i


# -- coordinate systems --------------------------------------------------------


def test_halfplane_chart_basics():
    model = cat_model()
    zp, yp = halfplane_from_coords(model, 0.0, 0.0, 0.0)
    assert zp == complex(0.0, 1.0) and yp == 0.0
    _, _, t = coords_from_halfplane(model, complex(0.3, model.lam), 0.2)
    assert abs(t - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-2.0, 2.0),
    y=st.floats(-2.0, 2.0),
    t=st.floats(-1.5, 1.5),
)
def test_halfplane_chart_roundtrip(x, y, t):
    model = cat_model()
    zp, yp = halfplane_from_coords(model, x, y, t)
    rx, ry, rt = coords_from_halfplane(model, zp, yp)
    assert abs(rx - x) < 1e-9 and abs(ry - y) < 1e-9 and abs(rt - t) < 1e-9


def test_presentations_agree_through_charts():
    # the torus-coordinate deck maps, their eigenframe forms, and the
    # half-plane forms must be the same maps seen through the two charts
    model = cat_model()
    rng = random.Random(5)
    for _ in range(100):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
        for k in range(3):
            direct = model.apply_torus_gen(k, p)

            xp, yp = model.primed_from_torus(p[0], p[1])
            pxp, pyp, pt = model.apply_primed_gen(k, (xp, yp, p[2]))
            via_primed = torus_from_primed(model, pxp, pyp) + (pt,)
            assert max(abs(a - b) for a, b in zip(direct, via_primed)) < 1e-9

            zy = halfplane_from_coords(model, *p)
            via_leaf = coords_from_halfplane(
                model, *apply_leafwise_gen(model, k, zy))
            assert max(abs(a - b) for a, b in zip(direct, via_leaf)) < 1e-9


# -- the solvable group and the triangular embedding ---------------------------


def test_sol3_frozen_products():
    lam = LAM
    assert sol3_mul((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), lam) == (1.0, 2.0, 3.0)
    prod = sol3_mul((1.0, 0.0, 1.0), (1.0, 0.0, 0.0), lam)
    assert abs(prod[0] - (1.0 + lam)) < 1e-12
    assert prod[1] == 0.0 and prod[2] == 1.0


@settings(max_examples=50, deadline=None)
@given(
    p=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2)),
    q=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2)),
    r=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2)),
)
def test_sol3_associative(p, q, r):
    lam = LAM
    left = sol3_mul(sol3_mul(p, q, lam), r, lam)
    right = sol3_mul(p, sol3_mul(q, r, lam), lam)
    assert max(abs(a - b) for a, b in zip(left, right)) < 1e-10


def test_sol3_b_embed_frozen():
    assert sol3_b_embed(LAM, 0.0, LAM) == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        sol3_b_embed(-1.0, 0.0, LAM)


@settings(max_examples=50, deadline=None)
@given(
    a1=st.floats(0.2, 5.0),
    b1=st.floats(-3.0, 3.0),
    a2=st.floats(0.2, 5.0),
    b2=st.floats(-3.0, 3.0),
)
def test_sol3_b_embed_homomorphism(a1, b1, a2, b2):
    lam = LAM
    # composing the affine actions z -> a z + b first applies the second
    composed = (a1 * a2, a1 * b2 + b1)
    left = sol3_mul(sol3_b_embed(a1, b1, lam), sol3_b_embed(a2, b2, lam), lam)
    right = sol3_b_embed(*composed, lam)
    assert max(abs(x - y) for x, y in zip(left, right)) < 1e-9


def test_b_affine_params():
    m = MoebiusElement.b_el(2.0, 3.0)
    alpha, beta = b_affine_params(m)
    assert abs(alpha - 4.0) < 1e-12 and abs(beta - 6.0) < 1e-12
    # the parameters describe the boundary action
    img = m.apply_boundary(BoundaryPoint.from_real(1.0))
    assert abs(img.value - (alpha * 1.0 + beta)) < 1e-9
    with pytest.raises(ValueError):
        b_affine_params(MoebiusElement(1.0, 0.0, 0.5, 1.0))


# -- the dual holonomy action ---------------------------------------------------


def test_dual_generators_frozen_actions():
    model = cat_model()
    gens = dict(model.dual_generators())
    xi, y = gens["h"].apply_pair((BoundaryPoint.from_real(1.0), 1.0))
    assert abs(xi.value - model.lam) < 1e-12
    assert abs(y - 1.0 / model.lam) < 1e-12
    xi, y = gens["t1"].apply_pair((BoundaryPoint.from_real(0.0), 0.0))
    assert abs(xi.value - model.a_prime) < 1e-12
    assert abs(y - model.b_prime) < 1e-12


def test_registry_builds_t3a():
    model = build_model("t3a")
    assert model.a_mat == ((2, 1), (1, 1))
    custom = build_model("t3a", a_mat=((3, 2), (1, 1)))
    assert custom.a_mat == ((3, 2), (1, 1))
    with pytest.raises(ValueError):
        build_model("nonesuch")
