/* Compiled orbit kernels.

   Twin of _pure.py: every float expression is mirrored operation for
   operation, in the same order and with the same libm calls, so both
   backends agree bit for bit; any change to one must be mirrored in the
   other.  Loop bookkeeping may differ: here each step tests
   (i + 1) % RENORM_EVERY and (i + 1) % sample_every, recomputes the
   determinant in every descent round and builds the letters' quick forms
   per call, where _pure.py counts down, reuses the post-step determinant
   and caches its letter table.  Building needs only a C99 compiler and
   the CPython headers: `python setup.py build_ext --inplace`. */

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

/* The rows one orbit call emits, one per multiple of `every` in 1..steps,
   as a zeroed array('d') of exactly rows * width doubles, which the caller
   fills through *view: a repeat sizes the array exactly, where append and
   extend over-allocate.  `every` is nonzero once check_every has passed. */
static PyObject *sample_buffer(long steps, long every, Py_ssize_t width,
                               Py_buffer *view)
{
    long rows = steps <= 0 ? 0 : steps / every;
    if (rows < 0)
        rows = -rows;
    if (rows > PY_SSIZE_T_MAX / width)
        return PyErr_NoMemory();
    PyObject *type = array_type();
    if (type == NULL)
        return NULL;
    PyObject *zero = PyObject_CallFunction(type, "s[d]", "d", 0.0);
    if (zero == NULL)
        return NULL;
    PyObject *buffer = PySequence_Repeat(zero, (Py_ssize_t)rows * width);
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

static double boundary_apply(double a, double b, double c, double d,
                             double theta)
{
    double half = 0.5 * theta;
    double p = sin(half);
    double q = cos(half);
    double pp = a * p + b * q;
    double qp = c * p + d * q;
    double phi = atan2(pp, qp);
    if (phi <= -HALF_PI)
        phi += PI;
    else if (phi > HALF_PI)
        phi -= PI;
    return 2.0 * phi;
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
                            "sample_every", NULL};
    double m[4], s[4], t[4];
    PyObject *letters, *trans_quats, *samples = NULL, *result = NULL;
    Py_buffer view = {0};
    int kind;
    long steps, every;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "(dddd)(dddd)OiO(dddd)ll",
            names, &m[0], &m[1], &m[2], &m[3], &s[0], &s[1], &s[2], &s[3],
            &letters, &kind, &trans_quats, &t[0], &t[1], &t[2], &t[3],
            &steps, &every) || check_every(steps, every))
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
    double *row = view.buf;
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
                    if (kind == TRANS_BOUNDARY)
                        t[0] = boundary_apply(l[0], l[1], l[2], l[3], t[0]);
                    else if (kind == TRANS_ROTATION
                             && quat_mul_norm(quats + 4 * k, t))
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
                    REDUCE_CAP, i);
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
                            "trans_state", "steps", "sample_every", NULL};
    double m[4], s[4], t[4], quats[8];
    PyObject *trans_quats, *samples, *result = NULL;
    Py_buffer view = {0};
    int kind;
    long steps, every;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "(dddd)(dddd)iO(dddd)ll",
            names, &m[0], &m[1], &m[2], &m[3], &s[0], &s[1], &s[2], &s[3],
            &kind, &trans_quats, &t[0], &t[1], &t[2], &t[3], &steps, &every)
            || check_every(steps, every)
            || (kind == TRANS_ROTATION && read_doubles(trans_quats, quats, 8))
            || (samples = sample_buffer(steps, every, row_width(kind),
                                        &view)) == NULL)
        return NULL;
    double *row = view.buf;
    for (long i = 0; i < steps; i++) {
        if (step_frame(m, s, i))
            goto done;
        int rounds = 0;
        for (;;) {
            double gamma = m[2] * m[2] + m[3] * m[3];
            double re, im, shift;
            if (py_div(m[0] * m[2] + m[1] * m[3], gamma, &re)
                    || py_div(1.0, gamma, &im)
                    || py_floor(re + 0.5, &shift))
                goto done;
            if (shift != 0.0) {
                m[0] -= shift * m[2];
                m[1] -= shift * m[3];
                re -= shift;
                if (kind == TRANS_BOUNDARY) {
                    t[0] = boundary_apply(1.0, -shift, 0.0, 1.0, t[0]);
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
            if (kind == TRANS_BOUNDARY)
                t[0] = boundary_apply(0.0, -1.0, 1.0, 0.0, t[0]);
            else if (kind == TRANS_ROTATION && quat_mul_norm(quats + 4, t))
                goto done;
            if (++rounds > REDUCE_CAP) {
                PyErr_Format(PyExc_ValueError,
                    "reduction did not settle within %d rounds at step %ld",
                    REDUCE_CAP, i);
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
                            "sample_every", NULL};
    double p[3], lam, e[4], s[3];
    PyObject *samples, *result = NULL;
    Py_buffer view = {0};
    long steps, every;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "(ddd)d(dddd)(ddd)ll",
            names, &p[0], &p[1], &p[2], &lam, &e[0], &e[1], &e[2], &e[3],
            &s[0], &s[1], &s[2], &steps, &every))
        return NULL;
    if (lam < 0.0) {
        value_error_g("lam must not be negative, got %s", lam);
        return NULL;
    }
    if (check_every(steps, every)
            || (samples = sample_buffer(steps, every, 3, &view)) == NULL)
        return NULL;
    double *row = view.buf;
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
                        levels, i);
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

static PyMethodDef methods[] = {
    {"surface_orbit", (PyCFunction)(void (*)(void))surface_orbit,
     METH_VARARGS | METH_KEYWORDS, "See _pure.surface_orbit."},
    {"modular_orbit", (PyCFunction)(void (*)(void))modular_orbit,
     METH_VARARGS | METH_KEYWORDS, "See _pure.modular_orbit."},
    {"t3a_orbit", (PyCFunction)(void (*)(void))t3a_orbit,
     METH_VARARGS | METH_KEYWORDS, "See _pure.t3a_orbit."},
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
