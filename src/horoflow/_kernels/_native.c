/* Compiled orbit kernels.

   Twin of _pure.py: every float expression is mirrored operation for
   operation, in the same order and with the same libm calls, so both
   backends agree bit for bit; any change to one must be mirrored in the
   other.  Loop bookkeeping may differ: here each step tests
   (i + 1) % RENORM_EVERY and (i + 1) % sample_every, recomputes the
   determinant in every descent round and builds the letters' quick forms
   per call and takes t3a's lam ** t' every step, where _pure.py counts
   down, reuses the post-step determinant, caches its letter table and
   takes lam ** t' only when t' moves.  Each kernel returns one array('d')
   of exactly (steps / |sample_every| + 1) rows, one row when steps <= 0,
   allocated once: row 0 is left +0.0 for the caller, which writes the
   start there in place, and the samples follow it, as in _pure.py.  The
   optional last argument first_step is added to the step index of every
   "at step" error, so that a run split into calls fails as a whole-run
   call does.  csv_rows and bin_cells, the output layer, read such a buffer
   in place and return the text and add the cells that _pure.py's do.
   Building needs only a C99 compiler and the CPython headers: the first
   import of horoflow._kernels compiles this file into the package's
   __pycache__ (_build.py), where no built extension is importable. */

/* A fused multiply-add rounds once where Python's separate float operations
   round twice, so contraction would break bit parity.  The pragma comes
   before any header so that every function shares the same options.  On
   FMA targets GCC 12's SLP vectorizer still fuses the quaternion product
   into vfmaddsub, so that one function also turns the vectorizer off. */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#define UNFUSED
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#define UNFUSED __attribute__((optimize("no-tree-slp-vectorize")))
#else
#define UNFUSED
#endif

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <string.h>

#define RENORM_EVERY 64
#define DET_TOL 1e-12
#define DESCENT_SLACK 1e-12
#define REDUCE_CAP 10000
#define QUICK_NORM 1e4
#define QUICK_DET 1e-9
#define QUICK_MARGIN 1e-6
#define INNER_MARGIN 1e-4
#define TRANS_BOUNDARY 1
#define TRANS_ROTATION 2
#define RENORM_TOL 1e-12
#define SIGN_TOL 1e-12

static const double PI = 3.141592653589793;
static const double HALF_PI = 0.5 * 3.141592653589793;
static const double TAU = 2.0 * 3.141592653589793;

/* Fill out[0..n-1] from the first n items of a sequence of numbers. */
static int read_doubles(PyObject *seq, double *out, Py_ssize_t n)
{
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *item = PySequence_GetItem(seq, j);
        if (item == NULL)
            return -1;
        out[j] = PyFloat_AsDouble(item);
        Py_DECREF(item);
        if (out[j] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* Python's `(i + 1) % sample_every` raises on zero where C's would trap. */
static int check_every(long steps, long every)
{
    if (every == 0 && steps > 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
        return -1;
    }
    return 0;
}

/* math.floor, failing as it does on NaN and infinity, where the pure
   backend stops, instead of passing a non-finite value on.  math.floor
   returns an int, whose zero has no sign: adding 0.0 turns C's -0.0 into
   0.0, so that `x - floor(x)` keeps the sign of a zero x as in Python. */
static int py_floor(double v, double *out)
{
    *out = floor(v) + 0.0;
    if (isfinite(v))
        return 0;
    PyObject *as_int = PyLong_FromDouble(v); /* raises math.floor's error */
    Py_XDECREF(as_int);
    return -1;
}

/* Python's float `num / den`: a zero divisor raises the interpreter's own
   ZeroDivisionError, where C would divide on into an inf or a NaN. */
static int py_div(double num, double den, double *out)
{
    *out = num / den;
    if (den != 0.0)
        return 0;
    PyObject *x = PyFloat_FromDouble(num), *y = PyFloat_FromDouble(den);
    if (x != NULL && y != NULL)
        Py_XDECREF(PyNumber_TrueDivide(x, y)); /* raises */
    Py_XDECREF(x);
    Py_XDECREF(y);
    return -1;
}

/* Python's float `x ** y`: finite inputs whose power is infinite raise
   the interpreter's own error (OverflowError, or ZeroDivisionError for a
   zero base), where C would go on with the inf.  A negative base with a
   fractional exponent, a complex power in Python, is not handled: the
   caller rejects a negative base first. */
static int py_pow(double x, double y, double *out)
{
    *out = pow(x, y);
    if (!isinf(*out) || !isfinite(x) || !isfinite(y))
        return 0;
    PyObject *b = PyFloat_FromDouble(x), *e = PyFloat_FromDouble(y);
    if (b != NULL && e != NULL)
        Py_XDECREF(PyNumber_Power(b, e, Py_None)); /* raises */
    Py_XDECREF(b);
    Py_XDECREF(e);
    return -1;
}

/* Python's float `x % y`: fmod, the sign fix, and a zero with y's sign. */
static double py_mod(double x, double y)
{
    double mod = fmod(x, y);
    if (mod == 0.0)
        return copysign(0.0, y);
    return (y < 0) != (mod < 0) ? mod + y : mod;
}

/* array.array, looked up once.  A lookup by a fresh name string on every
   call would leave some of those strings in the interpreter's type lookup
   cache, so the memory a call keeps would vary from run to run. */
static PyObject *array_type(void)
{
    static PyObject *type = NULL;
    if (type == NULL) {
        PyObject *module = PyImport_ImportModule("array");
        if (module == NULL)
            return NULL;
        type = PyObject_GetAttrString(module, "array");
        Py_DECREF(module);
    }
    return type;
}

/* Row 0, left for the caller's start, and the rows one orbit call emits,
   one per multiple of `every` in 1..steps, as a zeroed array('d') of
   exactly (rows + 1) * width doubles, which the kernel fills through *view
   from row 1 on: a repeat sizes the array exactly, where append and extend
   over-allocate.  `every` is nonzero once check_every has passed. */
static PyObject *sample_buffer(long steps, long every, Py_ssize_t width,
                               Py_buffer *view)
{
    long rows = steps <= 0 ? 0 : steps / every;
    if (rows < 0)
        rows = -rows;
    if (rows >= PY_SSIZE_T_MAX / width)
        return PyErr_NoMemory();
    PyObject *type = array_type();
    if (type == NULL)
        return NULL;
    PyObject *zero = PyObject_CallFunction(type, "s[d]", "d", 0.0);
    if (zero == NULL)
        return NULL;
    PyObject *buffer = PySequence_Repeat(zero,
                                         ((Py_ssize_t)rows + 1) * width);
    Py_DECREF(zero);
    if (buffer != NULL && PyObject_GetBuffer(buffer, view, PyBUF_WRITABLE)) {
        Py_DECREF(buffer);
        return NULL;
    }
    return buffer;
}

/* Raise ValueError(format % text), text the value as `"%g" % value`
   formats it. */
static void value_error_g(const char *format, double value)
{
    char *text = PyOS_double_to_string(value, 'g', 6, 0, NULL);
    if (text != NULL) {
        PyErr_Format(PyExc_ValueError, format, text);
        PyMem_Free(text);
    }
}

/* Right-multiply the frame m by s, then renormalise as _pure does. */
static int step_frame(double *m, const double *s, long i)
{
    double f[4] = {m[0] * s[0] + m[1] * s[2], m[0] * s[1] + m[1] * s[3],
                   m[2] * s[0] + m[3] * s[2], m[2] * s[1] + m[3] * s[3]};
    double det = f[0] * f[3] - f[1] * f[2];
    if (det - 1.0 > DET_TOL || 1.0 - det > DET_TOL
            || (i + 1) % RENORM_EVERY == 0) {
        if (det <= 0.0) {
            value_error_g("frame determinant collapsed to %s", det);
            return -1;
        }
        double scale = 1.0 / sqrt(det);
        for (int j = 0; j < 4; j++)
            f[j] *= scale;
    }
    memcpy(m, f, sizeof f);
    return 0;
}

/* *out <- cosh of the distance from (frame f applied to i) to i. */
static int cosh_dist(const double *f, double *out)
{
    double gamma = f[2] * f[2] + f[3] * f[3];
    double re, im, excess;
    if (py_div(f[0] * f[2] + f[1] * f[3], gamma, &re)
            || py_div(1.0, gamma, &im)
            || py_div(re * re + (im - 1.0) * (im - 1.0), 2.0 * im, &excess))
        return -1;
    *out = 1.0 + excess;
    return 0;
}

/* q <- (q11, 2 q12, q22) of Q = L^T L for the letter l, with a NaN q11
   unless l may be quick-rejected: see _pure._letter_table. */
static void quick_form(const double *l, double *q)
{
    double q11 = l[0] * l[0] + l[2] * l[2];
    double q12 = l[0] * l[1] + l[2] * l[3];
    double q22 = l[1] * l[1] + l[3] * l[3];
    if (!(fabs(l[0] * l[3] - l[1] * l[2] - 1.0) <= DET_TOL
            && q11 + q22 <= QUICK_NORM))
        q11 = NAN;
    q[0] = q11;
    q[1] = 2.0 * q12;
    q[2] = q22;
}

/* T of _pure._inner_bound, the inner-ball threshold of the _pure.py
   docstring, from the n quick forms: NaN when n is 0 or a letter has a
   NaN q11. */
static double inner_bound(const double *quick, Py_ssize_t n)
{
    double norm = INFINITY;
    if (n == 0)
        return NAN;
    for (Py_ssize_t k = 0; k < n; k++) {
        const double *q = quick + 3 * k;
        if (isnan(q[0]))
            return NAN;
        if (q[0] + q[2] < norm)
            norm = q[0] + q[2];
    }
    return 2.0 * sqrt((0.5 * norm + 1.0) * 0.5) * (1.0 - INNER_MARGIN);
}

/* math.sin: an infinite x raises math.sin's own error, where C's sin would
   go on with a NaN. */
static int py_sin(double x, double *out)
{
    if (isinf(x)) {
        PyObject *math = PyImport_ImportModule("math");
        if (math != NULL) {
            Py_XDECREF(PyObject_CallMethod(math, "sin", "d", x)); /* raises */
            Py_DECREF(math);
        }
        return -1;
    }
    *out = sin(x);
    return 0;
}

/* The angle moebius.boundary_angle gives (a, b; c, d) at theta, from
   (p, q) = (sin(theta / 2), cos(theta / 2)). */
static double boundary_fold(double a, double b, double c, double d,
                            double p, double q)
{
    double pp = a * p + b * q;
    double qp = c * p + d * q;
    double phi = atan2(pp, qp);
    if (phi <= -HALF_PI)
        phi += PI;
    else if (phi > HALF_PI)
        phi -= PI;
    return 2.0 * phi;
}

/* moebius.boundary_angle of (a, b; c, d) at *theta, in place; an infinite
   theta raises as math.sin does. */
static int boundary_apply(double a, double b, double c, double d,
                          double *theta)
{
    double half = 0.5 * *theta, p;
    if (py_sin(half, &p))
        return -1;
    *theta = boundary_fold(a, b, c, d, p, cos(half));
    return 0;
}

/* t <- l * t normalised, its sign set by the first entry beyond 1e-12. */
static UNFUSED int quat_mul_norm(const double *l, double *t)
{
    double q[4] = {l[0] * t[0] - l[1] * t[1] - l[2] * t[2] - l[3] * t[3],
                   l[0] * t[1] + l[1] * t[0] + l[2] * t[3] - l[3] * t[2],
                   l[0] * t[2] - l[1] * t[3] + l[2] * t[0] + l[3] * t[1],
                   l[0] * t[3] + l[1] * t[2] - l[2] * t[1] + l[3] * t[0]};
    double n = sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]);
    int lead = 0;
    for (int j = 0; j < 4; j++)
        if (py_div(q[j], n, &q[j]))
            return -1;
    while (lead < 3 && !(fabs(q[lead]) > 1e-12))
        lead++;
    for (int j = 0; j < 4; j++)
        t[j] = q[lead] < -1e-12 ? -q[j] : q[j];
    return 0;
}

static Py_ssize_t row_width(int kind)
{
    return 3 + (kind == TRANS_BOUNDARY ? 1 : kind == TRANS_ROTATION ? 2 : 0);
}

/* Write (re, im, direction) plus the transverse coordinates of `kind` to
   row[0..row_width(kind) - 1]. */
static int put_sample(double *row, const double *m, int kind, const double *t)
{
    double gamma = m[2] * m[2] + m[3] * m[3];
    if (py_div(m[0] * m[2] + m[1] * m[3], gamma, &row[0])
            || py_div(1.0, gamma, &row[1]))
        return -1;
    row[2] = py_mod(HALF_PI - 2.0 * atan2(m[2], m[3]), TAU);
    if (kind == TRANS_BOUNDARY) {
        row[3] = t[0];
    }
    else if (kind == TRANS_ROTATION) {
        double vx = 2.0 * (t[0] * t[2] + t[1] * t[3]);
        double vy = 2.0 * (t[2] * t[3] - t[0] * t[1]);
        double vz = 1.0 - 2.0 * t[1] * t[1] - 2.0 * t[2] * t[2];
        vz = vz > 1.0 ? 1.0 : vz < -1.0 ? -1.0 : vz;
        row[3] = acos(vz);
        row[4] = atan2(vy, vx);
    }
    return 0;
}

static PyObject *surface_orbit(PyObject *self, PyObject *args,
                               PyObject *kwargs)
{
    static char *names[] = {"frame", "step", "letters", "trans_kind",
                            "trans_quats", "trans_state", "steps",
                            "sample_every", "first_step", NULL};
    double m[4], s[4], t[4];
    PyObject *letters, *trans_quats, *samples = NULL, *result = NULL;
    Py_buffer view = {0};
    int kind;
    long steps, every, first = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "(dddd)(dddd)OiO(dddd)ll|l",
            names, &m[0], &m[1], &m[2], &m[3], &s[0], &s[1], &s[2], &s[3],
            &letters, &kind, &trans_quats, &t[0], &t[1], &t[2], &t[3],
            &steps, &every, &first) || check_every(steps, every))
        return NULL;
    Py_ssize_t n_letters = PySequence_Size(letters);
    if (n_letters < 0)
        return NULL;
    n_letters /= 4;
    /* any number of letters, then as many holonomy quaternions, then the
       letters' quick forms */
    double *lets = PyMem_New(double, 11 * n_letters + 1);
    if (lets == NULL)
        return PyErr_NoMemory();
    double *quats = lets + 4 * n_letters;
    double *quick = quats + 4 * n_letters;
    if (read_doubles(letters, lets, 4 * n_letters)
            || (kind == TRANS_ROTATION
                && read_doubles(trans_quats, quats, 4 * n_letters))
            || (samples = sample_buffer(steps, every, row_width(kind),
                                        &view)) == NULL)
        goto done;
    double *row = (double *)view.buf + row_width(kind);
    for (Py_ssize_t k = 0; k < n_letters; k++)
        quick_form(lets + 4 * k, quick + 3 * k);
    double inner = inner_bound(quick, n_letters);
    for (long i = 0; i < steps; i++) {
        if (step_frame(m, s, i))
            goto done;
        /* greedy descent toward the domain center, with the quick reject
           and the inner-ball skip of _pure.surface_orbit, where their error
           bounds are derived; the frame's cosh argument is taken before
           the first letter loop that runs */
        double arg = 0.0, dist = 0.0;
        int have_arg = 0, have_dist = 0, descend = 0;
        for (;;) {
            double p11 = m[0] * m[0] + m[1] * m[1];
            double p12 = m[0] * m[2] + m[1] * m[3];
            double p22 = m[2] * m[2] + m[3] * m[3];
            double n = p11 + p22;
            double det = m[0] * m[3] - m[1] * m[2];
            double thr = NAN;
            if (n <= QUICK_NORM && fabs(det - 1.0) <= QUICK_DET) {
                if (n <= inner)
                    break;
                thr = n * (1.0 + QUICK_MARGIN);
            }
            if (!have_arg) {
                if (cosh_dist(m, &arg))
                    goto done;
                have_arg = 1;
            }
            int moved = 0;
            for (Py_ssize_t k = 0; k < n_letters; k++) {
                const double *q = quick + 3 * k;
                if (q[0] * p11 + q[1] * p12 + q[2] * p22 >= thr)
                    continue;
                const double *l = lets + 4 * k;
                double cm[4] = {l[0] * m[0] + l[1] * m[2],
                                l[0] * m[1] + l[1] * m[3],
                                l[2] * m[0] + l[3] * m[2],
                                l[2] * m[1] + l[3] * m[3]};
                double carg;
                if (cosh_dist(cm, &carg))
                    goto done;
                /* acosh is monotone: no smaller argument, no descent */
                if (carg >= arg)
                    continue;
                double cand = acosh(carg);
                if (!have_dist) {
                    dist = acosh(arg);
                    have_dist = 1;
                }
                if (cand < dist - DESCENT_SLACK) {
                    memcpy(m, cm, sizeof cm);
                    arg = carg;
                    dist = cand;
                    if ((kind == TRANS_BOUNDARY
                         && boundary_apply(l[0], l[1], l[2], l[3], &t[0]))
                        || (kind == TRANS_ROTATION
                            && quat_mul_norm(quats + 4 * k, t)))
                        goto done;
                    moved = 1;
                    break;
                }
            }
            if (!moved)
                break;
            if (++descend > REDUCE_CAP) {
                PyErr_Format(PyExc_ValueError,
                    "reduction did not settle within %d descents at step %ld",
                    REDUCE_CAP, first + i);
                goto done;
            }
        }
        if ((i + 1) % every == 0) {
            if (put_sample(row, m, kind, t))
                goto done;
            row += row_width(kind);
        }
    }
    result = Py_BuildValue("(O(dddd)(dddd))", samples, m[0], m[1], m[2], m[3],
                           t[0], t[1], t[2], t[3]);
done:
    PyMem_Free(lets);
    PyBuffer_Release(&view);
    Py_XDECREF(samples);
    return result;
}

static PyObject *modular_orbit(PyObject *self, PyObject *args,
                               PyObject *kwargs)
{
    static char *names[] = {"frame", "step", "trans_kind", "trans_quats",
                            "trans_state", "steps", "sample_every",
                            "first_step", NULL};
    double m[4], s[4], t[4], quats[8];
    PyObject *trans_quats, *samples, *result = NULL;
    Py_buffer view = {0};
    int kind;
    long steps, every, first = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "(dddd)(dddd)iO(dddd)ll|l",
            names, &m[0], &m[1], &m[2], &m[3], &s[0], &s[1], &s[2], &s[3],
            &kind, &trans_quats, &t[0], &t[1], &t[2], &t[3], &steps, &every,
            &first)
            || check_every(steps, every)
            || (kind == TRANS_ROTATION && read_doubles(trans_quats, quats, 8))
            || (samples = sample_buffer(steps, every, row_width(kind),
                                        &view)) == NULL)
        return NULL;
    double *row = (double *)view.buf + row_width(kind);
    for (long i = 0; i < steps; i++) {
        if (step_frame(m, s, i))
            goto done;
        int rounds = 0;
        for (;;) {
            double gamma = m[2] * m[2] + m[3] * m[3];
            double re, im, shift;
            if (gamma == 0.0) {
                PyErr_Format(PyExc_ValueError,
                    "frame escaped into the cusp at step %ld", first + i);
                goto done;
            }
            if (py_div(m[0] * m[2] + m[1] * m[3], gamma, &re)
                    || py_div(1.0, gamma, &im)
                    || py_floor(re + 0.5, &shift))
                goto done;
            if (shift != 0.0) {
                m[0] -= shift * m[2];
                m[1] -= shift * m[3];
                re -= shift;
                if (kind == TRANS_BOUNDARY) {
                    if (boundary_apply(1.0, -shift, 0.0, 1.0, &t[0]))
                        goto done;
                }
                else if (kind == TRANS_ROTATION) {
                    /* T applied -shift times: the inverse for shift > 0 */
                    double q[4] = {quats[0], quats[1], quats[2], quats[3]};
                    for (int j = 1; shift > 0 && j < 4; j++)
                        q[j] = -q[j];
                    for (long rep = (long)fabs(shift); rep > 0; rep--)
                        if (quat_mul_norm(q, t))
                            goto done;
                }
            }
            if (!(re * re + im * im < 1.0 - DET_TOL))
                break;
            double a = m[0], b = m[1];
            m[0] = -m[2];
            m[1] = -m[3];
            m[2] = a;
            m[3] = b;
            if ((kind == TRANS_BOUNDARY
                 && boundary_apply(0.0, -1.0, 1.0, 0.0, &t[0]))
                || (kind == TRANS_ROTATION && quat_mul_norm(quats + 4, t)))
                goto done;
            if (++rounds > REDUCE_CAP) {
                PyErr_Format(PyExc_ValueError,
                    "reduction did not settle within %d rounds at step %ld",
                    REDUCE_CAP, first + i);
                goto done;
            }
        }
        if ((i + 1) % every == 0) {
            if (put_sample(row, m, kind, t))
                goto done;
            row += row_width(kind);
        }
    }
    result = Py_BuildValue("(O(dddd)(dddd))", samples, m[0], m[1], m[2], m[3],
                           t[0], t[1], t[2], t[3]);
done:
    PyBuffer_Release(&view);
    Py_DECREF(samples);
    return result;
}

static PyObject *t3a_orbit(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"state", "lam", "eigen", "sol_step", "steps",
                            "sample_every", "first_step", NULL};
    double p[3], lam, e[4], s[3];
    PyObject *samples, *result = NULL;
    Py_buffer view = {0};
    long steps, every, first = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "(ddd)d(dddd)(ddd)ll|l",
            names, &p[0], &p[1], &p[2], &lam, &e[0], &e[1], &e[2], &e[3],
            &s[0], &s[1], &s[2], &steps, &every, &first))
        return NULL;
    if (lam < 0.0) {
        value_error_g("lam must not be negative, got %s", lam);
        return NULL;
    }
    if (check_every(steps, every)
            || (samples = sample_buffer(steps, every, 3, &view)) == NULL)
        return NULL;
    double *row = (double *)view.buf + 3;
    for (long i = 0; i < steps; i++) {
        double scale, shear, n, m1, m2;
        if (py_pow(lam, p[2], &scale))
            goto done;
        p[0] += scale * s[0];
        if (py_div(s[1], scale, &shear))
            goto done;
        p[1] += shear;
        p[2] += s[2];
        if (py_floor(p[2], &n))
            goto done;
        if (n != 0.0) {
            if (n > 64 || n < -64) {
                PyObject *levels = PyLong_FromDouble(n);
                if (levels != NULL) {
                    PyErr_Format(PyExc_ValueError,
                        "suspension coordinate drifted %S levels at step %ld",
                        levels, first + i);
                    Py_DECREF(levels);
                }
                goto done;
            }
            double down;
            if (py_pow(lam, n, &down) || py_div(p[0], down, &p[0]))
                goto done;
            p[1] *= down;
            p[2] -= n;
        }
        double x = -e[3] * p[0] + e[2] * p[1];
        double y = e[1] * p[0] - e[0] * p[1];
        if (py_floor(x, &m1) || py_floor(y, &m2))
            goto done;
        if (m1 != 0.0 || m2 != 0.0) {
            p[0] -= m1 * e[0] + m2 * e[2];
            p[1] -= m1 * e[1] + m2 * e[3];
        }
        if ((i + 1) % every == 0) {
            row[0] = x - m1;
            row[1] = y - m2;
            row[2] = p[2];
            row += 3;
        }
    }
    result = Py_BuildValue("(O(ddd))", samples, p[0], p[1], p[2]);
done:
    PyBuffer_Release(&view);
    Py_DECREF(samples);
    return result;
}

/* The flat sequence of numbers `seq`, `per` to an item, as *count whole
   items in a new PyMem buffer; a partial last item is dropped. */
static double *read_items(PyObject *seq, Py_ssize_t per, Py_ssize_t *count)
{
    Py_ssize_t size = PySequence_Size(seq);
    if (size < 0)
        return NULL;
    *count = size / per;
    double *out = PyMem_New(double, per * *count + 1);
    if (out == NULL)
        return (double *)PyErr_NoMemory();
    if (read_doubles(seq, out, per * *count)) {
        PyMem_Free(out);
        return NULL;
    }
    return out;
}

/* _pure.boundary_residual: canonical_entries' determinant and sign rules
   on each product, then boundary_apply's fold at theta = pi, taking its
   (p, q) once: the inline form's bits, since sin(pi/2) is exactly 1.0. */
static PyObject *boundary_residual(PyObject *self, PyObject *args)
{
    PyObject *pushed_seq, *grid_seq, *result = NULL;
    double *pushed = NULL, *grid = NULL, worst = 0.0;
    double p_inf = sin(HALF_PI), q_inf = cos(HALF_PI);
    Py_ssize_t rows, count;
    if (!PyArg_ParseTuple(args, "OO", &pushed_seq, &grid_seq)
            || (pushed = read_items(pushed_seq, 5, &rows)) == NULL
            || (grid = read_items(grid_seq, 4, &count)) == NULL)
        goto done;
    for (Py_ssize_t r = 0; r < rows; r++) {
        const double *p = pushed + 5 * r;
        for (Py_ssize_t k = 0; k < count; k++) {
            const double *g = grid + 4 * k;
            double a = p[0] * g[0] + p[1] * g[2];
            double b = p[0] * g[1] + p[1] * g[3];
            double c = p[2] * g[0] + p[3] * g[2];
            double d = p[2] * g[1] + p[3] * g[3];
            double det = a * d - b * c;
            if (det > 0.0 && det < DBL_MIN) {
                /* a subnormal det: scale by a power of two, exactly */
                int e;
                frexp(det, &e);
                a = ldexp(a, -e / 2);
                b = ldexp(b, -e / 2);
                c = ldexp(c, -e / 2);
                d = ldexp(d, -e / 2);
                det = a * d - b * c;
            }
            if (!(det > 0.0)) {
                value_error_g(
                    "matrix must have positive determinant, got det=%s", det);
                goto done;
            }
            if (fabs(det - 1.0) > RENORM_TOL) {
                double s = sqrt(det);
                a /= s;
                b /= s;
                c /= s;
                d /= s;
            }
            if (c < -SIGN_TOL || (fabs(c) <= SIGN_TOL && a < 0.0)) {
                a = -a;
                b = -b;
                c = -c;
                d = -d;
            }
            double t = boundary_fold(a, b, c, d, p_inf, q_inf), dist;
            if (py_sin(0.5 * (p[4] - t), &dist))
                goto done;
            dist = fabs(2.0 * dist);
            if (dist > worst)
                worst = dist;
        }
    }
    result = PyFloat_FromDouble(worst);
done:
    PyMem_Free(pushed);
    PyMem_Free(grid);
    return result;
}

/* An index as a Python int, or None when it is negative. */
static PyObject *index_or_none(Py_ssize_t index)
{
    return index < 0 ? Py_NewRef(Py_None) : PyLong_FromSsize_t(index);
}

/* _pure.boundary_track.  current[] holds the angles of the last iteration,
   passage[] each point's first passage, -1 for none yet. */
static PyObject *boundary_track(PyObject *self, PyObject *args)
{
    PyObject *start_seq, *maps_seq, *angles = NULL, *history = NULL;
    PyObject *passages = NULL, *result = NULL;
    double *start = NULL, *maps = NULL, *current = NULL, plus, tol;
    Py_ssize_t *passage = NULL, n, iterations;
    int restart;
    if (!PyArg_ParseTuple(args, "OOpdd", &start_seq, &maps_seq, &restart,
                          &plus, &tol)
            || (start = read_items(start_seq, 1, &n)) == NULL
            || (maps = read_items(maps_seq, 4, &iterations)) == NULL)
        goto done;
    current = PyMem_New(double, n + 1);
    passage = PyMem_New(Py_ssize_t, n + 1);
    if (current == NULL || passage == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(current, start, n * sizeof(double));
    for (Py_ssize_t j = 0; j < n; j++)
        passage[j] = -1;
    if ((history = PyTuple_New(iterations)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < iterations; i++) {
        const double *m = maps + 4 * i;
        double worst = 0.0;
        for (Py_ssize_t j = 0; j < n; j++) {
            double t = restart ? start[j] : current[j], s;
            if (boundary_apply(m[0], m[1], m[2], m[3], &t)
                    || py_sin(0.5 * (t - plus), &s))
                goto done;
            current[j] = t;
            double residual = fabs(2.0 * s);
            if (residual > worst)
                worst = residual;
            if (residual < tol && passage[j] < 0)
                passage[j] = i + 1;
        }
        PyObject *item = PyFloat_FromDouble(worst);
        if (item == NULL)
            goto done;
        PyTuple_SET_ITEM(history, i, item);
    }
    double max_residual = 0.0;
    Py_ssize_t worst_index = -1;
    for (Py_ssize_t j = 0; j < n; j++) {
        double s;
        if (py_sin(0.5 * (current[j] - plus), &s))
            goto done;
        double residual = fabs(2.0 * s);
        if (residual >= max_residual) {
            max_residual = residual;
            worst_index = j;
        }
    }
    if ((angles = PyList_New(n)) == NULL || (passages = PyTuple_New(n)) == NULL)
        goto done;
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *angle = PyFloat_FromDouble(current[j]);
        PyObject *first = index_or_none(passage[j]);
        if (angle == NULL || first == NULL) {
            Py_XDECREF(angle);
            Py_XDECREF(first);
            goto done;
        }
        PyList_SET_ITEM(angles, j, angle);
        PyTuple_SET_ITEM(passages, j, first);
    }
    result = Py_BuildValue("(OOOdN)", angles, history, passages, max_residual,
                           index_or_none(worst_index));
done:
    PyMem_Free(start);
    PyMem_Free(maps);
    PyMem_Free(current);
    PyMem_Free(passage);
    Py_XDECREF(angles);
    Py_XDECREF(history);
    Py_XDECREF(passages);
    return result;
}

/* The flat array('d') of doubles `values` as a read-only buffer in *view. */
static int double_buffer(PyObject *values, Py_buffer *view)
{
    if (PyObject_GetBuffer(values, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT))
        return -1;
    if (view->itemsize != sizeof(double) || view->format == NULL
            || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_TypeError, "expected an array('d'), not %s",
                     Py_TYPE(values)->tp_name);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* The longest "%.17g" text, "-2.2250738585072014e-308", and a separator. */
#define NUMBER_MAX 25

#if defined(__SIZEOF_INT128__)
typedef unsigned __int128 u128;

#define E16 10000000000000000ULL
#define E17 100000000000000000ULL

static u128 pow10_128[23]; /* 10^0 .. 10^22, filled on first use */

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233"
    "34353637383940414243444546474849505152535455565758596061626364656667"
    "6869707172737475767778798081828384858687888990919293949596979899";

/* "%.17g" % x for 1e-6 <= |x| < 1e17, written to out; returns its length,
   or 0 where x lies outside that range or its decade is below 1e-6.
   x = m * 2^e exactly, and its 17 digits D are x * 10^(16 - X) rounded
   half to even, X the decade with 10^X <= x < 10^(X + 1).  The quotient
   q = floor(m * 10^(16 - X) / 2^-e) settles X: 10^16 <= q < 10^17 holds
   exactly when X is the decade.  m < 2^53 and 16 - X <= 22 keep
   m * 10^(16 - X) below 2^127. */
static int format_exact(double x, char *out)
{
    double ax = fabs(x);
    if (!(ax >= 1e-6 && ax < 1e17))
        return 0;
    if (pow10_128[0] == 0) {
        u128 p = 1;
        for (int i = 0; i < 23; i++, p *= 10)
            pow10_128[i] = p;
    }
    int E;
    uint64_t m = (uint64_t)ldexp(frexp(ax, &E), 53);
    int e = E - 53;
    /* ax >= 2^(E - 1): floor((E - 1) log10 2) is X or X - 1 */
    int X = (int)floor((E - 1) * 0.30102999566398120);
    if (X < -6)
        X = -6;
    u128 n, q;
    for (;;) {
        n = (u128)m * pow10_128[16 - X];
        q = e >= 0 ? n << e : n >> -e;
        if (q < E16)
            return 0; /* the decade is 10^-7: ax rounds to 1e-6 */
        if (q < E17)
            break;
        X++;
    }
    if (e < 0) {
        u128 rest = n & (((u128)1 << -e) - 1), half = (u128)1 << (-e - 1);
        if (rest > half || (rest == half && (q & 1)))
            q++;
    }
    /* no double in range lies close enough below a power of ten to round
       up to it, but the carry keeps the digits right if one did */
    if (q == E17) {
        q = E16;
        X++;
    }
    char digits[17];
    uint64_t d = (uint64_t)q;
    for (int i = 15; i >= 1; i -= 2, d /= 100)
        memcpy(digits + i, DIGIT_PAIRS + 2 * (d % 100), 2);
    digits[0] = (char)('0' + d);
    int nd = 17;
    while (digits[nd - 1] == '0')
        nd--;
    char *p = out;
    if (x < 0)
        *p++ = '-';
    if (X < -4 || X >= 17) {
        *p++ = digits[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, nd - 1);
            p += nd - 1;
        }
        int ex = X < 0 ? -X : X;
        *p++ = 'e';
        *p++ = X < 0 ? '-' : '+';
        memcpy(p, DIGIT_PAIRS + 2 * (ex % 100), 2);
        p += 2;
    }
    else if (X < 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', -X - 1);
        p += -X - 1;
        memcpy(p, digits, nd);
        p += nd;
    }
    else if (X + 1 >= nd) {
        memcpy(p, digits, nd);
        p += nd;
        memset(p, '0', X + 1 - nd);
        p += X + 1 - nd;
    }
    else {
        memcpy(p, digits, X + 1);
        p += X + 1;
        *p++ = '.';
        memcpy(p, digits + X + 1, nd - X - 1);
        p += nd - X - 1;
    }
    return (int)(p - out);
}
#else
static int format_exact(double x, char *out)
{
    (void)x;
    (void)out;
    return 0;
}
#endif

/* "%.17g" % x written to out, at most NUMBER_MAX - 1 chars; returns its
   length, or -1 with an exception set. */
static int format_g17(double x, char *out)
{
    int len = format_exact(x, out);
    if (len > 0)
        return len;
    char *text = PyOS_double_to_string(x, 'g', 17, 0, NULL);
    if (text == NULL)
        return -1;
    len = (int)strlen(text);
    memcpy(out, text, len);
    PyMem_Free(text);
    return len;
}

static PyObject *csv_rows(PyObject *self, PyObject *args)
{
    PyObject *values, *text = NULL;
    Py_ssize_t width, first, start, stop;
    double step;
    Py_buffer view;
    if (!PyArg_ParseTuple(args, "Ondnnn", &values, &width, &step, &first,
                          &start, &stop))
        return NULL;
    if (stop <= start)
        return PyUnicode_FromStringAndSize(NULL, 0);
    if (double_buffer(values, &view))
        return NULL;
    Py_ssize_t count = stop - start;
    if (width < 1) {
        PyErr_Format(PyExc_ValueError,
                     "rows need at least one coordinate, not %zd", width);
        goto done;
    }
    Py_ssize_t rows = view.len / (Py_ssize_t)sizeof(double) / width;
    if (start < 0 || stop > rows) {
        PyErr_Format(PyExc_ValueError, "rows %zd..%zd are not among the "
                     "%zd rows", start, stop, rows);
        goto done;
    }
    if (count > PY_SSIZE_T_MAX / NUMBER_MAX / (width + 1)) {
        PyErr_NoMemory();
        goto done;
    }
    /* the longest text the rows can take, cut to its length at the end */
    text = PyUnicode_New(count * (width + 1) * NUMBER_MAX, 127);
    if (text == NULL)
        goto done;
    char *begin = (char *)PyUnicode_1BYTE_DATA(text), *p = begin;
    const double *row = (const double *)view.buf + start * width;
    for (Py_ssize_t r = first + start; r < first + stop; r++, row += width) {
        int len = format_g17(r == 0 ? 0.0 : step * (double)r, p);
        if (len < 0)
            goto fail;
        p += len;
        for (Py_ssize_t c = 0; c < width; c++) {
            *p++ = ',';
            if ((len = format_g17(row[c], p)) < 0)
                goto fail;
            p += len;
        }
        *p++ = '\n';
    }
    if (PyUnicode_Resize(&text, p - begin) == 0)
        goto done;
fail:
    Py_CLEAR(text);
done:
    PyBuffer_Release(&view);
    return text;
}

/* A grid of more cells than a long long holds is binned by _pure.py's
   bin_cells, which counts cells in Python ints; this one counts them in a
   long long. */
static PyObject *bin_cells(PyObject *self, PyObject *args)
{
    PyObject *values, *bins, *visited, *seq = NULL, *result = NULL;
    Py_ssize_t width;
    Py_buffer view = {0};
    if (!PyArg_ParseTuple(args, "OnOO!", &values, &width, &bins, &PySet_Type,
                          &visited))
        return NULL;
    if (width < 1) {
        PyErr_Format(PyExc_ValueError,
                     "rows need at least one coordinate, not %zd", width);
        return NULL;
    }
    seq = PySequence_Fast(bins, "bins must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t k = PySequence_Fast_GET_SIZE(seq);
    /* per axis: its coordinate, lo, hi, span and n as a double, and n */
    Py_ssize_t *axis = PyMem_New(Py_ssize_t, k + 1);
    double *lim = PyMem_New(double, 4 * k + 1);
    long long *ni = PyMem_New(long long, k + 1);
    if (axis == NULL || lim == NULL || ni == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    long long total = 1;
    for (Py_ssize_t j = 0; j < k; j++) {
        double *l = lim + 4 * j;
        PyObject *n;
        if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(seq, j), "ndd"
                              "O!;a bin is (axis, lo, hi, n)", &axis[j], &l[0],
                              &l[1], &PyLong_Type, &n))
            goto done;
        l[2] = l[1] - l[0];
        if (!(isfinite(l[0]) && isfinite(l[1]) && l[0] < l[1]
              && isfinite(l[2]))) {
            PyObject *lo = PyFloat_FromDouble(l[0]);
            PyObject *hi = PyFloat_FromDouble(l[1]);
            if (lo != NULL && hi != NULL)
                PyErr_Format(PyExc_ValueError, "bad range (%R, %R)", lo, hi);
            Py_XDECREF(lo);
            Py_XDECREF(hi);
            goto done;
        }
        int over;
        ni[j] = PyLong_AsLongLongAndOverflow(n, &over);
        if (over < 0 || (!over && ni[j] < 1)) {
            PyErr_Format(PyExc_ValueError,
                         "cell counts must be positive, not %S", n);
            goto done;
        }
        if (over || total > LLONG_MAX / ni[j]) {
            PyObject *pure = PyImport_ImportModule("horoflow._kernels._pure");
            if (pure != NULL)
                result = PyObject_CallMethod(pure, "bin_cells", "OnOO",
                                             values, width, seq, visited);
            Py_XDECREF(pure);
            goto done;
        }
        total *= ni[j];
        l[3] = (double)ni[j]; /* rounded to nearest, as float(n) */
    }
    if (double_buffer(values, &view))
        goto done;
    const double *buf = view.buf;
    Py_ssize_t rows = view.len / (Py_ssize_t)sizeof(double) / width;
    if (rows == 0 || k == 0) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    Py_ssize_t top = 0, low = 0;
    for (Py_ssize_t j = 0; j < k; j++) {
        top = axis[j] > top ? axis[j] : top;
        low = axis[j] < low ? axis[j] : low;
    }
    if (top >= width) {
        PyErr_Format(PyExc_ValueError,
                     "sample has %zd coordinates, axes need %zd", width,
                     top + 1);
        goto done;
    }
    if (low < 0) {
        PyErr_SetString(PyExc_ValueError, "axes must not be negative");
        goto done;
    }
    for (Py_ssize_t r = 0; r < rows; r++) {
        const double *row = buf + r * width;
        long long cell = 0;
        Py_ssize_t j;
        for (j = 0; j < k; j++) {
            const double *l = lim + 4 * j;
            double v = row[axis[j]];
            if (!(l[0] <= v && v <= l[1]))
                break;
            /* 0 <= q <= n as a double, which may round up past 2^63 - 1 */
            double q = (v - l[0]) / l[2] * l[3];
            long long c = q < 9223372036854775808.0 ? (long long)q : ni[j];
            cell = cell * ni[j] + (c < ni[j] ? c : ni[j] - 1);
        }
        if (j < k)
            continue;
        PyObject *key = PyLong_FromLongLong(cell);
        if (key == NULL)
            goto done;
        int added = PySet_Add(visited, key);
        Py_DECREF(key);
        if (added)
            goto done;
    }
    result = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&view);
    PyMem_Free(axis);
    PyMem_Free(lim);
    PyMem_Free(ni);
    Py_DECREF(seq);
    return result;
}

static PyMethodDef methods[] = {
    {"surface_orbit", (PyCFunction)(void (*)(void))surface_orbit,
     METH_VARARGS | METH_KEYWORDS, "See _pure.surface_orbit."},
    {"modular_orbit", (PyCFunction)(void (*)(void))modular_orbit,
     METH_VARARGS | METH_KEYWORDS, "See _pure.modular_orbit."},
    {"t3a_orbit", (PyCFunction)(void (*)(void))t3a_orbit,
     METH_VARARGS | METH_KEYWORDS, "See _pure.t3a_orbit."},
    {"csv_rows", csv_rows, METH_VARARGS, "See _pure.csv_rows."},
    {"bin_cells", bin_cells, METH_VARARGS, "See _pure.bin_cells."},
    {"boundary_residual", boundary_residual, METH_VARARGS,
     "See _pure.boundary_residual."},
    {"boundary_track", boundary_track, METH_VARARGS,
     "See _pure.boundary_track."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_native",
    "Compiled orbit kernels, the bit-identical twin of _pure.",
    0, methods, NULL, NULL, NULL, NULL,
};

/* Multi-phase initialisation: a test that loads the module from a file does
   not register it in sys.modules. */
PyMODINIT_FUNC PyInit__native(void)
{
    return PyModuleDef_Init(&module);
}
