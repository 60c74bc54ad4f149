"""Pure-Python orbit kernels.

The compiled twin in _native.c mirrors every float expression here,
operation for operation, so both backends produce the same floating point
results; any change to one must be mirrored in the other.  Loop bookkeeping
may differ: here the renormalisation and sampling steps are counted down,
the first descent round reuses the post-step determinant, _put_row writes
each row into the buffer in place, and the letter table is built once per
distinct letter list, where _native.c tests (i + 1) modulo each interval,
recomputes the determinant every round and builds its table per call.  The
boundary action of a letter on the circle is moebius.boundary_angle, whose
C twin is _native.c's boundary_apply.

State conventions shared by both backends:

* frames are raw (a, b, c, d) tuples with det renormalized when it drifts
  beyond 1e-12 and unconditionally every 64 steps;
* transverse state is (theta, 0, 0, 0) for the boundary circle and a unit
  quaternion for rotations;
* samples come back in one flat array('d'), row after row, each row the
  coordinates of a quotient point: (re, im, direction) for surfaces plus
  theta or (polar, azimuth) for a transverse factor, and (x, y, t) for the
  torus bundle.  The array holds exactly (steps // sample_every) * width
  doubles, allocated before the loop.

All reduction loops raise ValueError carrying the step index on a cap or
guard violation.

The surface descent tries every letter L on the frame g and keeps the first
candidate L g closer to i.  Most candidates are farther out, and a quick
reject drops them before L g is formed: ||L g||^2 is the quadratic form
q11*p11 + 2*q12*p12 + q22*p22 of Q = L^T L, built once per letter list,
against P = g g^T, built once per descent round, and a candidate at least
1e-6 above ||g||^2 cannot win.  The rule applies only while g and L have det
near 1 and norms below 1e4; the comment in surface_orbit bounds its error.
A surviving candidate whose cosh argument is no smaller than the frame's is
dropped before its acosh.

Most frames need no letter loop at all.  A letter L moves i by D_L, with
||L||^2 = 2*cosh D_L, so a frame g whose point g i lies within D/2 of i,
D the shortest of these translations, is in the inscribed ball of the
Dirichlet domain: by the triangle inequality every L g i is farther out.
For the octagon that ball holds about 71 % of the domain's area and of
the steps of an orbit.  Since ||g||^2 = 2*cosh d(g i, i), the test is
||g||^2 <= T with T = 2*cosh(D/2) shrunk by 1e-4, computed with the
letters' quadratic forms from them with one square root; inside it the
descent round ends before any quick form is evaluated, and the frame's
own cosh argument is taken only once a letter loop runs.  A letter that
may not be quick-rejected, or an empty letter list, turns the skip off.
None of these filters changes a decision, a result or an error, and
_native.c does the same, expression for expression.
"""

import math
from array import array
from functools import lru_cache

from horoflow.moebius import boundary_angle

RENORM_EVERY = 64
_DET_TOL = 1e-12
_DESCENT_SLACK = 1e-12
_REDUCE_CAP = 10_000
_QUICK_NORM = 1e4
_QUICK_DET = 1e-9
_QUICK_MARGIN = 1e-6
_INNER_MARGIN = 1e-4
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


def _inner_bound(table):
    """T = 2*cosh(D/2)*(1 - _INNER_MARGIN), D the shortest letter translation.

    A row's q11 + q22 is ||L||^2 = 2*cosh D_L for its letter, so cosh(D/2)
    is sqrt((||L||^2/2 + 1)/2) at the smallest norm.  NaN, which no norm
    passes, when there is no letter or a letter has a NaN q11.
    """
    if not table or any(math.isnan(row[0]) for row in table):
        return math.nan
    norm = min(q11 + q22 for q11, _, q22, *_ in table)
    return 2.0 * math.sqrt((0.5 * norm + 1.0) * 0.5) * (1.0 - _INNER_MARGIN)


@lru_cache(maxsize=16)
def _descent_table(key):
    """(_letter_table rows as a tuple, their _inner_bound) for the letters
    whose doubles, as _native.c reads them, are the bytes `key`.

    Both depend on the letters alone, so they are built once per distinct
    letter list: criterion 9 alone makes thousands of one-step calls with
    the octagon's letters.  Keyed by bytes, letters that differ only in the
    sign of a zero do not share a table.
    """
    table = tuple(_letter_table(array("d", key)))
    return table, _inner_bound(table)


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


def _row_width(trans_kind):
    return 3 + (1 if trans_kind == TRANS_BOUNDARY
                else 2 if trans_kind == TRANS_ROTATION else 0)


def _put_row(samples, j, a, b, c, d, trans_kind, t0, t1, t2, t3):
    """Write the sample row of frame (a, b, c, d) and transverse state t
    into samples[j:], as _native.c's put_sample does, and return the index
    after it: (re, im, direction) of the tangent vector, then theta for the
    boundary circle or (polar, azimuth) of the rotated pole."""
    gamma = c * c + d * d
    samples[j] = (a * c + b * d) / gamma
    samples[j + 1] = 1.0 / gamma
    samples[j + 2] = (_HALF_PI - 2.0 * math.atan2(c, d)) % _TAU
    if trans_kind == TRANS_BOUNDARY:
        samples[j + 3] = t0
        return j + 4
    if trans_kind == TRANS_ROTATION:
        vx = 2.0 * (t0 * t2 + t1 * t3)
        vy = 2.0 * (t2 * t3 - t0 * t1)
        vz = 1.0 - 2.0 * t1 * t1 - 2.0 * t2 * t2
        if vz > 1.0:
            vz = 1.0
        elif vz < -1.0:
            vz = -1.0
        samples[j + 3] = math.acos(vz)
        samples[j + 4] = math.atan2(vy, vx)
        return j + 5
    return j + 3


def _sample_buffer(steps, sample_every, width):
    """Zeros for every row the loop emits, one per multiple of sample_every
    in 1..steps.  A repeat sizes the array exactly, where extend would
    over-allocate; a zero sampling interval is refused before the loop, as
    _native.c does."""
    if steps <= 0:
        return array("d")
    if sample_every == 0:
        raise ZeroDivisionError("integer modulo by zero")
    return array("d", [0.0]) * (steps // abs(sample_every) * width)


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
    samples = _sample_buffer(steps, sample_every, _row_width(trans_kind))
    j = 0
    table, inner = _descent_table(array("d", letters).tobytes())
    acosh = math.acosh
    det_tol, slack, nan = _DET_TOL, _DESCENT_SLACK, math.nan
    quick_norm, quick_det, quick_margin = _QUICK_NORM, _QUICK_DET, _QUICK_MARGIN
    # countdowns to the steps i with (i + 1) % RENORM_EVERY == 0, which
    # renormalise, and with (i + 1) % sample_every == 0, which sample
    renorm_in = RENORM_EVERY
    every = abs(sample_every)
    sample_in = every
    for i in range(steps):
        # right multiplication by the step element
        a, b, c, d = (
            a * sa + b * sc,
            a * sb + b * sd,
            c * sa + d * sc,
            c * sb + d * sd,
        )
        det = a * d - b * c
        renorm_in -= 1
        if det - 1.0 > det_tol or 1.0 - det > det_tol or not renorm_in:
            a, b, c, d = _renorm(a, b, c, d)
            det = a * d - b * c
            if not renorm_in:
                renorm_in = RENORM_EVERY
        # greedy descent toward the domain center.  The frame's cosh
        # argument is taken before the first letter loop that runs, its
        # acosh only once a candidate comes closer.  `det` is the frame's
        # a*d - b*c throughout.
        arg = None
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
            if n <= quick_norm and abs(det - 1.0) <= quick_det:
                # Inner-ball skip, exact by this bound.  With det within
                # 1e-9 of 1, n <= T puts g i within D/2 of i, cosh shrunk
                # by about 1e-4.  Then d(L g i, i) >= D - d(g i, i) and
                # cosh(D - x)*cosh(x) >= cosh(D/2)^2 give ||L g||^2 >=
                # n*(1 - 1e-4)^-2 > n*(1 + 2e-4) up to the det terms
                # (below 1e-8 relative) and the rounding of T and n (a few
                # ulps): far above thr, so the quick reject would drop
                # every letter.  A NaN, infinite or degenerate frame fails
                # n <= T or the det guard and reaches the loop, where its
                # cosh argument raises as before; inside, gamma*(a^2 + b^2)
                # >= det^2 keeps gamma above 0.2.
                if n <= inner:
                    break
                thr = n * (1.0 + quick_margin)
            else:
                thr = nan
            if arg is None:
                arg = _cosh_dist(a, b, c, d)
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
                cand = acosh(carg)
                if dist is None:
                    dist = acosh(arg)
                if cand < dist - slack:
                    a, b, c, d = (ca, cb, cc, cd)
                    det = a * d - b * c
                    arg = carg
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
        sample_in -= 1
        if not sample_in:
            sample_in = every
            j = _put_row(samples, j, a, b, c, d, trans_kind, t0, t1, t2, t3)
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
    samples = _sample_buffer(steps, sample_every, _row_width(trans_kind))
    j = 0
    # countdowns to the next renormalisation and sample, as in surface_orbit
    renorm_in = RENORM_EVERY
    every = abs(sample_every)
    sample_in = every
    for i in range(steps):
        a, b, c, d = (
            a * sa + b * sc,
            a * sb + b * sd,
            c * sa + d * sc,
            c * sb + d * sd,
        )
        det = a * d - b * c
        renorm_in -= 1
        if det - 1.0 > _DET_TOL or 1.0 - det > _DET_TOL or not renorm_in:
            a, b, c, d = _renorm(a, b, c, d)
            if not renorm_in:
                renorm_in = RENORM_EVERY
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
                    t0 = boundary_angle(1.0, -m, 0.0, 1.0, t0)
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
                    t0 = boundary_angle(0.0, -1.0, 1.0, 0.0, t0)
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
        sample_in -= 1
        if not sample_in:
            sample_in = every
            j = _put_row(samples, j, a, b, c, d, trans_kind, t0, t1, t2, t3)
    return (samples, (a, b, c, d), (t0, t1, t2, t3))


def t3a_orbit(state, lam, eigen, sol_step, steps, sample_every):
    """Iterate a right solvable-group translation on the torus bundle.

    state: (x', y', t') in the eigenframe; eigen: (a', b', c', d');
    sol_step: the per-step right factor in the same coordinates.  A
    negative lam, whose powers would be complex, is rejected at once.
    """
    xp, yp, tp = state
    ap, bp, cp, dp = eigen
    sx, sy, st = sol_step
    if lam < 0.0:
        raise ValueError("lam must not be negative, got %g" % lam)
    samples = _sample_buffer(steps, sample_every, 3)
    j = 0
    every = abs(sample_every)
    sample_in = every
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
        sample_in -= 1
        if not sample_in:
            sample_in = every
            samples[j] = x - m1
            samples[j + 1] = y - m2
            samples[j + 2] = tp
            j += 3
    return (samples, (xp, yp, tp))
