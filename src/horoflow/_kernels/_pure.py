"""Pure-Python orbit kernels.

The compiled twin in _native.c keeps the same functions with the same
expression structure, operation for operation, so both backends produce the
same floating point results; any change here must be mirrored there.

State conventions shared by both backends:

* frames are raw (a, b, c, d) tuples with det renormalized when it drifts
  beyond 1e-12 and unconditionally every 64 steps;
* transverse state is (theta, 0, 0, 0) for the boundary circle and a unit
  quaternion for rotations;
* samples are emitted as flat coordinate tuples ready for quotient points:
  (re, im, direction) for surfaces plus (theta,) or (polar, azimuth) for a
  transverse factor, and (x, y, t) for the torus bundle.

All reduction loops raise ValueError carrying the step index on a cap or
guard violation.
"""

import math

RENORM_EVERY = 64
_DET_TOL = 1e-12
_DESCENT_SLACK = 1e-12
_REDUCE_CAP = 10_000
_PI = math.pi
_HALF_PI = 0.5 * math.pi
_TAU = 2.0 * math.pi

TRANS_NONE = 0
TRANS_BOUNDARY = 1
TRANS_ROTATION = 2


def _renorm(a, b, c, d):
    det = a * d - b * c
    if det <= 0.0:
        raise ValueError("frame determinant collapsed to %g" % det)
    scale = 1.0 / math.sqrt(det)
    return (a * scale, b * scale, c * scale, d * scale)


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


def _boundary_apply(a, b, c, d, theta):
    half = 0.5 * theta
    p = math.sin(half)
    q = math.cos(half)
    pp = a * p + b * q
    qp = c * p + d * q
    phi = math.atan2(pp, qp)
    if phi <= -_HALF_PI:
        phi += _PI
    elif phi > _HALF_PI:
        phi -= _PI
    return 2.0 * phi


def _quat_mul_norm(l0, l1, l2, l3, t0, t1, t2, t3):
    w = l0 * t0 - l1 * t1 - l2 * t2 - l3 * t3
    x = l0 * t1 + l1 * t0 + l2 * t3 - l3 * t2
    y = l0 * t2 - l1 * t3 + l2 * t0 + l3 * t1
    z = l0 * t3 + l1 * t2 - l2 * t1 + l3 * t0
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w /= n
    x /= n
    y /= n
    z /= n
    if w > 1e-12:
        return (w, x, y, z)
    if w < -1e-12:
        return (-w, -x, -y, -z)
    if x > 1e-12:
        return (w, x, y, z)
    if x < -1e-12:
        return (-w, -x, -y, -z)
    if y > 1e-12:
        return (w, x, y, z)
    if y < -1e-12:
        return (-w, -x, -y, -z)
    if z > 1e-12:
        return (w, x, y, z)
    if z < -1e-12:
        return (-w, -x, -y, -z)
    return (w, x, y, z)


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


def surface_orbit(frame, step, letters, trans_kind, trans_quats, trans_state,
                  steps, sample_every):
    """Iterate a right action on a cocompact surface quotient.

    frame: starting (a, b, c, d); step: the per-step right factor;
    letters: flat (4 per letter) reduction generators, inverses included;
    trans_quats: flat (4 per letter) holonomy quaternions when
    trans_kind == TRANS_ROTATION.  Emits one coordinate sample every
    `sample_every` steps; returns (samples, final frame, final transverse).
    """
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


def modular_orbit(frame, step, trans_kind, trans_quats, trans_state,
                  steps, sample_every):
    """Iterate a right action on the modular surface.

    The reduction alternates the integer horizontal shift with the
    inversion; trans_quats holds the T then S holonomy quaternions when
    trans_kind == TRANS_ROTATION.
    """
    a, b, c, d = frame
    sa, sb, sc, sd = step
    t0, t1, t2, t3 = trans_state
    samples = []
    for i in range(steps):
        a, b, c, d = (
            a * sa + b * sc,
            a * sb + b * sd,
            c * sa + d * sc,
            c * sb + d * sd,
        )
        det = a * d - b * c
        if det - 1.0 > _DET_TOL or 1.0 - det > _DET_TOL or (i + 1) % RENORM_EVERY == 0:
            a, b, c, d = _renorm(a, b, c, d)
        rounds = 0
        while True:
            gamma = c * c + d * d
            re = (a * c + b * d) / gamma
            im = 1.0 / gamma
            m = math.floor(re + 0.5)
            if m != 0:
                a -= m * c
                b -= m * d
                re -= m
                if trans_kind == TRANS_BOUNDARY:
                    t0 = _boundary_apply(1.0, -m, 0.0, 1.0, t0)
                elif trans_kind == TRANS_ROTATION:
                    # T applied -m times: use the inverse quaternion for m > 0
                    q0 = trans_quats[0]
                    q1 = trans_quats[1]
                    q2 = trans_quats[2]
                    q3 = trans_quats[3]
                    if m > 0:
                        q1, q2, q3 = -q1, -q2, -q3
                    for _ in range(abs(int(m))):
                        t0, t1, t2, t3 = _quat_mul_norm(
                            q0, q1, q2, q3, t0, t1, t2, t3
                        )
            if re * re + im * im < 1.0 - _DET_TOL:
                a, b, c, d = (-c, -d, a, b)
                if trans_kind == TRANS_BOUNDARY:
                    t0 = _boundary_apply(0.0, -1.0, 1.0, 0.0, t0)
                elif trans_kind == TRANS_ROTATION:
                    t0, t1, t2, t3 = _quat_mul_norm(
                        trans_quats[4],
                        trans_quats[5],
                        trans_quats[6],
                        trans_quats[7],
                        t0, t1, t2, t3,
                    )
            else:
                break
            rounds += 1
            if rounds > _REDUCE_CAP:
                raise ValueError(
                    "reduction did not settle within %d rounds at step %d"
                    % (_REDUCE_CAP, i)
                )
        if (i + 1) % sample_every == 0:
            samples.append(
                _tangent_coords(a, b, c, d)
                + _trans_coords(trans_kind, t0, t1, t2, t3)
            )
    return (samples, (a, b, c, d), (t0, t1, t2, t3))


def t3a_orbit(state, lam, eigen, sol_step, steps, sample_every):
    """Iterate a right solvable-group translation on the torus bundle.

    state: (x', y', t') in the eigenframe; eigen: (a', b', c', d');
    sol_step: the per-step right factor in the same coordinates.
    """
    xp, yp, tp = state
    ap, bp, cp, dp = eigen
    sx, sy, st = sol_step
    samples = []
    for i in range(steps):
        scale = lam ** tp
        xp += scale * sx
        yp += sy / scale
        tp += st
        n = math.floor(tp)
        if n != 0:
            if n > 64 or n < -64:
                raise ValueError(
                    "suspension coordinate drifted %d levels at step %d" % (n, i)
                )
            down = lam ** n
            xp /= down
            yp *= down
            tp -= n
        x = -dp * xp + cp * yp
        y = bp * xp - ap * yp
        m1 = math.floor(x)
        m2 = math.floor(y)
        if m1 != 0 or m2 != 0:
            xp -= m1 * ap + m2 * cp
            yp -= m1 * bp + m2 * dp
        if (i + 1) % sample_every == 0:
            samples.append((x - m1, y - m2, tp))
    return (samples, (xp, yp, tp))
