"""Pure-Python orbit kernels.

The compiled twin in _native.c follows this file statement for statement:
the same float expressions, operation for operation, in the same order,
under the same loop rules, so both backends produce the same floating
point results; any change to one must be mirrored in the other.
The boundary action of a letter on the circle is moebius.boundary_angle,
whose C twin is _native.c's boundary_apply.

State conventions shared by both backends:

* frames are raw (a, b, c, d) tuples with det renormalized when it drifts
  beyond 1e-12 and unconditionally every 64 steps;
* transverse state is (theta, 0, 0, 0) for the boundary circle and a unit
  quaternion for rotations;
* samples come back in one flat array('d'), row after row, each row the
  coordinates of a quotient point: (re, im, direction) for surfaces plus
  theta or (polar, azimuth) for a transverse factor, and (x, y, t) for the
  torus bundle.  The array holds exactly
  (steps // |sample_every| + 1) * width doubles, width of them when
  steps <= 0, allocated once before the loop.  Row 0 is left +0.0 for the
  caller, which writes the reduced start there in place; the samples
  follow from index width.  A call's buffer is thus allocated once and
  never copied.

All reduction loops raise ValueError carrying the step index on a cap or
guard violation: first_step + i, where first_step (default 0) counts the
steps an earlier call of the same run made.  Step i renormalises when
(i + 1) % RENORM_EVERY == 0 and samples when (i + 1) % sample_every == 0,
so a run split into calls of a multiple of RENORM_EVERY steps each, each
a multiple of sample_every, gives the samples, the final state and the
errors of one whole-run call.

The surface descent tries every letter L on the frame g and keeps the first
candidate L g closer to i.  Most candidates are farther out, and a quick
reject drops them before L g is formed: ||L g||^2 is the quadratic form
q11*p11 + 2*q12*p12 + q22*p22 of Q = L^T L, built once per call, against
P = g g^T, built once per descent round, and a candidate at least 1e-6
above ||g||^2 cannot win.  The rule applies only while g and L have det
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
None of these filters changes a decision, a result or an error.

Two kernels serve the group side rather than an orbit: boundary_residual,
the inner loop of diagnostics.minimal_set_residual's product branch
(criterion 5), and boundary_track, keylemma_converge's per-point loop
(criterion 1).  boundary_residual calls canonical_entries and
boundary_angle at theta = pi; _native.c folds through boundary_apply's
boundary_fold with sin(pi/2) and cos(pi/2) taken once, which gives the
same bits because sin(pi/2) is exactly 1.0.
"""

import math
from array import array
from itertools import chain

from horoflow._kernels import RENORM_EVERY, TRANS_BOUNDARY, TRANS_ROTATION
from horoflow.moebius import boundary_angle, canonical_entries

_DET_TOL = 1e-12
_DESCENT_SLACK = 1e-12
_REDUCE_CAP = 10_000
_QUICK_NORM = 1e4
_QUICK_DET = 1e-9
_QUICK_MARGIN = 1e-6
_INNER_MARGIN = 1e-4
_HALF_PI = 0.5 * math.pi
_TAU = 2.0 * math.pi


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
    """Rows (q11, 2*q12, q22, la, lb, lc, ld, k), one per reduction letter,
    from the letters read as doubles.

    Q = L^T L, so that ||L g||^2 = q11*p11 + 2*q12*p12 + q22*p22 with
    P = g g^T.  Only a letter with det within _DET_TOL of 1 and
    ||L||^2 <= _QUICK_NORM may be quick-rejected; any other gets a NaN q11,
    which no threshold passes, and always takes the exact path.
    """
    letters = array("d", letters)
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


def _put_sample(samples, j, a, b, c, d, trans_kind, t0, t1, t2, t3):
    """Write (re, im, direction) of the frame plus the transverse
    coordinates of trans_kind to samples[j:j + _row_width(trans_kind)]."""
    gamma = c * c + d * d
    samples[j] = (a * c + b * d) / gamma
    samples[j + 1] = 1.0 / gamma
    samples[j + 2] = (_HALF_PI - 2.0 * math.atan2(c, d)) % _TAU
    if trans_kind == TRANS_BOUNDARY:
        samples[j + 3] = t0
    elif trans_kind == TRANS_ROTATION:
        # the pole rotated by the unit quaternion t, as (polar, azimuth)
        vx = 2.0 * (t0 * t2 + t1 * t3)
        vy = 2.0 * (t2 * t3 - t0 * t1)
        vz = 1.0 - 2.0 * t1 * t1 - 2.0 * t2 * t2
        if vz > 1.0:
            vz = 1.0
        elif vz < -1.0:
            vz = -1.0
        samples[j + 3] = math.acos(vz)
        samples[j + 4] = math.atan2(vy, vx)


def _sample_buffer(steps, sample_every, width):
    """Zeros for the caller's start row and for every row the loop emits,
    one per multiple of sample_every in 1..steps.  A repeat sizes the array
    exactly, where extend would over-allocate; a zero sampling interval is
    refused before the loop, as _native.c does."""
    if steps <= 0:
        return array("d", [0.0]) * width
    if sample_every == 0:
        raise ZeroDivisionError("integer modulo by zero")
    return array("d", [0.0]) * ((steps // abs(sample_every) + 1) * width)


def surface_orbit(frame, step, letters, trans_kind, trans_quats, trans_state,
                  steps, sample_every, first_step=0):
    """Iterate a right action on a cocompact surface quotient.

    frame: starting (a, b, c, d); step: the per-step right factor;
    letters: flat (4 per letter) reduction generators, inverses included;
    trans_quats: flat (4 per letter) holonomy quaternions when
    trans_kind == TRANS_ROTATION.  Emits one coordinate sample every
    `sample_every` steps after a zero row 0; returns (samples, final frame,
    final transverse).  first_step is added to the step index an error
    names, so a run split into calls names the step a whole call would.
    """
    a, b, c, d = frame
    sa, sb, sc, sd = step
    t0, t1, t2, t3 = trans_state
    width = _row_width(trans_kind)
    samples = _sample_buffer(steps, sample_every, width)
    j = width  # row 0 is the caller's
    table = _letter_table(letters)
    inner = _inner_bound(table)
    acosh = math.acosh
    det_tol, slack, nan = _DET_TOL, _DESCENT_SLACK, math.nan
    quick_norm, quick_det, quick_margin = _QUICK_NORM, _QUICK_DET, _QUICK_MARGIN
    for i in range(steps):
        # right multiplication by the step element
        a, b = a * sa + b * sc, a * sb + b * sd
        c, d = c * sa + d * sc, c * sb + d * sd
        det = a * d - b * c
        if (det - 1.0 > det_tol or 1.0 - det > det_tol
                or (i + 1) % RENORM_EVERY == 0):
            a, b, c, d = _renorm(a, b, c, d)
        # greedy descent toward the domain center.  The frame's cosh
        # argument is taken before the first letter loop that runs, its
        # acosh only once a candidate comes closer.
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
            det = a * d - b * c
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
                    % (_REDUCE_CAP, first_step + i)
                )
        if (i + 1) % sample_every == 0:
            _put_sample(samples, j, a, b, c, d, trans_kind, t0, t1, t2, t3)
            j += width
    return (samples, (a, b, c, d), (t0, t1, t2, t3))


def modular_orbit(frame, step, trans_kind, trans_quats, trans_state,
                  steps, sample_every, first_step=0):
    """Iterate a right action on the modular surface.

    The reduction alternates the integer horizontal shift with the
    inversion; trans_quats holds the T then S holonomy quaternions when
    trans_kind == TRANS_ROTATION.  A frame that climbs the cusp until
    c * c + d * d underflows to 0 raises ValueError naming the step,
    before the division by it.
    """
    a, b, c, d = frame
    sa, sb, sc, sd = step
    t0, t1, t2, t3 = trans_state
    width = _row_width(trans_kind)
    samples = _sample_buffer(steps, sample_every, width)
    j = width  # row 0 is the caller's
    for i in range(steps):
        a, b = a * sa + b * sc, a * sb + b * sd
        c, d = c * sa + d * sc, c * sb + d * sd
        det = a * d - b * c
        if (det - 1.0 > _DET_TOL or 1.0 - det > _DET_TOL
                or (i + 1) % RENORM_EVERY == 0):
            a, b, c, d = _renorm(a, b, c, d)
        rounds = 0
        while True:
            gamma = c * c + d * d
            if gamma == 0.0:
                raise ValueError("frame escaped into the cusp at step %d"
                                 % (first_step + i))
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
            if not re * re + im * im < 1.0 - _DET_TOL:
                break
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
            rounds += 1
            if rounds > _REDUCE_CAP:
                raise ValueError(
                    "reduction did not settle within %d rounds at step %d"
                    % (_REDUCE_CAP, first_step + i)
                )
        if (i + 1) % sample_every == 0:
            _put_sample(samples, j, a, b, c, d, trans_kind, t0, t1, t2, t3)
            j += width
    return (samples, (a, b, c, d), (t0, t1, t2, t3))


def t3a_orbit(state, lam, eigen, sol_step, steps, sample_every, first_step=0):
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
    j = 3  # row 0 is the caller's
    for i in range(steps):
        scale = lam ** tp
        xp += scale * sx
        yp += sy / scale
        tp += st
        n = math.floor(tp)
        if n != 0:
            if n > 64 or n < -64:
                raise ValueError(
                    "suspension coordinate drifted %d levels at step %d"
                    % (n, first_step + i)
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
            samples[j] = x - m1
            samples[j + 1] = y - m2
            samples[j + 2] = tp
            j += 3
    return (samples, (xp, yp, tp))


# -- boundary kernels --------------------------------------------------------

def boundary_residual(pushed, grid):
    """Worst chordal distance of a pushed frame's image of infinity, after
    each triangular step, from the transverse angle it carries.

    `pushed` is flat, five per row: the entries (a, b, c, d) of a frame and
    its angle theta; `grid` is flat, four per element.  For each row and
    element b, in order, the product m = (a, b; c, d) * b is put in the
    form canonical_entries gives it, m's image of infinity is
    boundary_angle(*m, pi) and its distance |2 sin((theta - angle) / 2)|
    from theta; the largest of these above 0.0 is returned, so a NaN
    distance is passed over.  A product whose determinant is not positive
    raises canonical_entries' ValueError.
    """
    rows = zip(*[iter(pushed)] * 5)
    grid = list(zip(*[iter(grid)] * 4))
    sin, pi = math.sin, math.pi
    worst = 0.0
    for pa, pb, pc, pd, theta in rows:
        for ba, bb, bc, bd in grid:
            a = pa * ba + pb * bc
            b = pa * bb + pb * bd
            c = pc * ba + pd * bc
            d = pc * bb + pd * bd
            a, b, c, d = canonical_entries(a, b, c, d)
            angle = boundary_angle(a, b, c, d, pi)
            dist = abs(2.0 * sin(0.5 * (theta - angle)))
            if dist > worst:
                worst = dist
    return worst


def boundary_track(start, maps, restart, plus, passage_tol):
    """Move boundary angles through a sequence of maps and measure how they
    approach the angle `plus`.

    `maps` is flat, four entries (a, b, c, d) per iteration.  Iteration n =
    1, 2, ... moves every angle by boundary_angle under map n: the angles
    of iteration n - 1, or those of `start` when `restart` is true.  A moved
    angle t lies at residual |2 sin((t - plus) / 2)| from plus.  Returns
    (angles, history, passages, max_residual, worst): the final angles, a
    list; each iteration's largest residual, or 0.0, a tuple; each point's
    first iteration whose residual is below passage_tol, or None, a tuple;
    and the largest final residual, or 0.0, with the index of the last
    point that attains it, or None.  A NaN residual is passed over
    throughout, since `>` and `>=` never take it.
    """
    start = list(start)
    current = start
    history = []
    first_passage = [None] * len(current)
    sin = math.sin
    for n in range(1, len(maps) // 4 + 1):
        a, b, c, d = maps[4 * n - 4:4 * n]
        moved = []
        worst = 0.0
        for idx, t in enumerate(start if restart else current):
            t = boundary_angle(a, b, c, d, t)
            moved.append(t)
            residual = abs(2.0 * sin(0.5 * (t - plus)))
            if residual > worst:
                worst = residual
            if residual < passage_tol and first_passage[idx] is None:
                first_passage[idx] = n
        current = moved
        history.append(worst)
    max_residual = 0.0
    worst = None
    for idx, t in enumerate(current):
        residual = abs(2.0 * sin(0.5 * (t - plus)))
        if residual >= max_residual:
            max_residual = residual
            worst = idx
    return (current, tuple(history), tuple(first_passage), max_residual, worst)


# -- output layer ------------------------------------------------------------
# _native.c renders the same text digit for digit and adds the same cells.

FLOAT_FMT = "%.17g"
# Rows bin_cells bins per pass: its column lists hold this many rows at once.
BIN_CHUNK_ROWS = 4096


def csv_rows(values, width, time_step, first_row, start, stop):
    """The CSV text of rows start..stop-1 of the flat rows `values`, each
    row's time then its coordinates, comma separated and printed "%.17g".
    Row j is orbit row first_row + j, whose time is time_step * (first_row
    + j), or +0.0 for orbit row 0 (flows.OrbitSegment.times).

    The rows are rendered by one format call: the row format repeated once
    per row, applied to the times and the coordinate columns interleaved
    into one flat tuple.
    """
    count = stop - start
    if count <= 0:
        return ""
    if width < 1:
        raise ValueError("rows need at least one coordinate, not %d" % width)
    if start < 0 or stop > len(values) // width:
        raise ValueError("rows %d..%d are not among the %d rows"
                         % (start, stop, len(values) // width))
    w = width
    first = first_row + start
    later = map(time_step.__mul__, range(max(first, 1), first_row + stop))
    args = [None] * (count * (w + 1))
    args[::w + 1] = chain((0.0,), later) if first == 0 else later
    chunk = values[start * w:stop * w].tolist()
    for c in range(w):
        args[c + 1::w + 1] = chunk[c::w]
    row_fmt = ",".join([FLOAT_FMT] * (w + 1)) + "\n"
    return (row_fmt * count) % tuple(args)


def bin_cells(values, width, bins, visited):
    """Add to the set `visited` the flat cell index of each row of the flat
    rows `values` that falls in the box of `bins`, one (axis, lo, hi, n)
    per binned axis: coordinate `axis` of a row, v, must lie in the closed
    range [lo, hi], NaN never does, and falls in cell min(int((v - lo) /
    span * n), n - 1) of that axis, span = hi - lo.  The cells of the axes
    are flattened in order, the first axis the most significant.

    A range must be finite, as must its span, and n at least 1.  The rows
    are binned BIN_CHUNK_ROWS at a time, column by column, and only the
    distinct index tuples of a call are flattened, once, at its end.
    """
    if width < 1:
        raise ValueError("rows need at least one coordinate, not %d" % width)
    bins = [(a, lo, hi, hi - lo, n) for a, lo, hi, n in bins]
    for a, lo, hi, span, n in bins:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi
                and math.isfinite(span)):
            raise ValueError("bad range (%r, %r)" % (lo, hi))
        if n < 1:
            raise ValueError("cell counts must be positive, not %d" % n)
    rows = len(values) // width
    if not rows or not bins:
        return
    top = max(a for a, _, _, _, _ in bins)
    if top >= width:
        raise ValueError(
            "sample has %d coordinates, axes need %d" % (width, top + 1))
    if min(a for a, _, _, _, _ in bins) < 0:
        raise ValueError("axes must not be negative")
    keys = set()
    for start in range(0, rows, BIN_CHUNK_ROWS):
        chunk = values[start * width:(start + BIN_CHUNK_ROWS) * width]
        keys.update(zip(*[
            [int((v - lo) / span * n) if lo <= v <= hi else None
             for v in chunk[a::width]]
            for a, lo, hi, span, n in bins
        ]))
    # An index is None outside the closed range and n on its upper edge,
    # which is clamped into cell n - 1.
    counts = [n for _, _, _, _, n in bins]
    for key in keys:
        cell = 0
        for k, n in zip(key, counts):
            if k is None:
                break
            cell = cell * n + (k if k < n else n - 1)
        else:
            visited.add(cell)
