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

The surface descent tries every letter L on the frame g and keeps the first
candidate L g closer to i.  Most candidates are farther out, and a quick
reject drops them before L g is formed: ||L g||^2 is the quadratic form
q11*p11 + 2*q12*p12 + q22*p22 of Q = L^T L, built once per call, against
P = g g^T, built once per descent round, and a candidate at least 1e-6
above ||g||^2 cannot win.  The rule applies only while g and L have det
near 1 and norms below 1e4; the comment in surface_orbit bounds its error.
A surviving candidate whose cosh argument is no smaller than the frame's is
dropped before its acosh.  Neither filter changes a decision, a result or
an error, and _native.c does the same, expression for expression.
"""

import math

RENORM_EVERY = 64
_DET_TOL = 1e-12
_DESCENT_SLACK = 1e-12
_REDUCE_CAP = 10_000
_QUICK_NORM = 1e4
_QUICK_DET = 1e-9
_QUICK_MARGIN = 1e-6
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


def _cosh_dist(a, b, c, d):
    # cosh of the hyperbolic distance from (frame applied to i) to i
    gamma = c * c + d * d
    re = (a * c + b * d) / gamma
    im = 1.0 / gamma
    return 1.0 + (re * re + (im - 1.0) * (im - 1.0)) / (2.0 * im)


def _letter_table(letters):
    """Rows (q11, 2*q12, q22, la, lb, lc, ld, k), one per reduction letter.

    Q = L^T L, so that ||L g||^2 = q11*p11 + 2*q12*p12 + q22*p22 with
    P = g g^T.  Only a letter with det within _DET_TOL of 1 and
    ||L||^2 <= _QUICK_NORM may be quick-rejected; any other gets a NaN q11,
    which no threshold passes, and always takes the exact path.
    """
    table = []
    for k in range(len(letters) // 4):
        la = letters[4 * k]
        lb = letters[4 * k + 1]
        lc = letters[4 * k + 2]
        ld = letters[4 * k + 3]
        q11 = la * la + lc * lc
        q12 = la * lb + lc * ld
        q22 = lb * lb + ld * ld
        if not (abs(la * ld - lb * lc - 1.0) <= _DET_TOL
                and q11 + q22 <= _QUICK_NORM):
            q11 = math.nan
        table.append((q11, 2.0 * q12, q22, la, lb, lc, ld, k))
    return table


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
    table = _letter_table(letters)
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
        # greedy descent toward the domain center.  The frame's cosh
        # argument is taken eagerly, so that a degenerate frame fails at
        # this step as before; its acosh only once a candidate comes closer.
        arg = _cosh_dist(a, b, c, d)
        dist = None
        descend = 0
        while True:
            # Quick reject, exact by this bound.  The cosh argument
            # f = 1 + (re^2 + (im-1)^2)/(2 im) of a frame M equals
            # ||M||^2/2 + (1 - det^2)/(2 gamma), and gamma*(a^2 + b^2) >=
            # det^2, so the det term moves f by at most a relative
            # |1 - det^2|/det^2, below 2.1e-9 for g and for L g under the
            # det guards.  The three products of the quick form sum in
            # magnitude to at most 2*||L||^2*||g||^2 <= 2e4*n, so rounding
            # moves it by less than 2e-11*n; f itself is computed to a few
            # ulps.  A candidate with ||L g||^2 >= n*(1 + 1e-6) is thus
            # farther from i than g and fails the exact test below.  It
            # cannot raise there either: L g has det near 1 and entries
            # below 1e4, so its gamma is far from zero.
            p11 = a * a + b * b
            p12 = a * c + b * d
            p22 = c * c + d * d
            n = p11 + p22
            det = a * d - b * c
            if n <= _QUICK_NORM and abs(det - 1.0) <= _QUICK_DET:
                thr = n * (1.0 + _QUICK_MARGIN)
            else:
                thr = math.nan
            moved = False
            for q11, q12x2, q22, la, lb, lc, ld, k in table:
                if q11 * p11 + q12x2 * p12 + q22 * p22 >= thr:
                    continue
                ca = la * a + lb * c
                cb = la * b + lb * d
                cc = lc * a + ld * c
                cd = lc * b + ld * d
                carg = _cosh_dist(ca, cb, cc, cd)
                # acosh is monotone: no smaller argument, no descent
                if carg >= arg:
                    continue
                cand = math.acosh(carg)
                if dist is None:
                    dist = math.acosh(arg)
                if cand < dist - _DESCENT_SLACK:
                    a, b, c, d = (ca, cb, cc, cd)
                    arg = carg
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
