"""Parity of the output layer, csv_rows and bin_cells, across the backends.

Each drawn call runs on both backends, and the text csv_rows returns, or
the cells bin_cells adds together with what it returns, or the (type,
message) of what either raises, must be the same.

csv_rows in _native.c prints most doubles by an exact integer path and
hands the rest to CPython's own "%.17g", so its draws aim at the seams of
that path: random bit patterns, 20 ulps either side of 1e-6 (the lower
end of the integer path), 1e-4 (where "%g" turns from exponent to fixed
notation), 1e16 and 1e17 (the upper end), values exactly half way between
two 17-digit decimals, and the zeros, infinities, NaN and subnormals.
bin_cells is drawn on box edges, NaN, the infinities and the zeros, on
rows either side of the pure backend's BIN_CHUNK_ROWS boundary, on a grid
of at least 2**63 cells and on an axis of at least 2**53.
"""

import math
import struct
from array import array
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from horoflow._kernels import _pure
from horoflow._kernels._pure import BIN_CHUNK_ROWS

SEAMS = (1e-6, 1e-4, 1e16, 1e17)
SPECIAL = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
           -5e-324, 2.2250738585072014e-308, math.nextafter(2.2250738585072014e-308, 0.0))


def outcome(call):
    """What call() returns, or its exception's type and message."""
    try:
        return call()
    except Exception as exc:  # the failure must match as well
        return (type(exc), str(exc))


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def ulps_from(x, k):
    """The double k steps from x, toward +inf for k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def tie(decade, m):
    """A double half way between two 17-digit decimals in [10^decade,
    10^(decade + 1)): m * 2^(decade - 17) with m odd, whose product with
    10^(16 - decade) is m * 5^(16 - decade) / 2.  `m` picks one of them."""
    lo = math.ceil(Fraction(10) ** decade * 2 ** (17 - decade))
    hi = min(2 ** 53, math.ceil(Fraction(10) ** (decade + 1) * 2 ** (17 - decade)))
    m = lo + m % (hi - lo)
    if m % 2 == 0:
        m += 1 if m + 1 < hi else -1
    return math.ldexp(m, decade - 17)


def doubles():
    return st.one_of(
        st.integers(0, 2 ** 64 - 1).map(from_bits),
        st.builds(lambda seam, sign, k: ulps_from(sign * seam, k),
                  st.sampled_from(SEAMS), st.sampled_from((1.0, -1.0)),
                  st.integers(-20, 20)),
        st.builds(lambda decade, m, sign: sign * tie(decade, m),
                  st.integers(-6, 15), st.integers(0, 2 ** 60),
                  st.sampled_from((1.0, -1.0))),
        st.sampled_from(SPECIAL),
        st.floats(),
    )


@st.composite
def csv_cases(draw):
    width = draw(st.integers(1, 5))
    rows = draw(st.integers(0, 12))
    values = array("d", draw(st.lists(doubles(), min_size=width * rows,
                                      max_size=width * rows)))
    time_step = draw(st.one_of(doubles(), st.floats(1e-9, 1.0)))
    first_row = draw(st.one_of(st.just(0), st.integers(1, 10 ** 8)))
    start = draw(st.integers(0, rows))
    stop = draw(st.integers(start - 1, rows))
    return values, width, time_step, first_row, start, stop


def test_native_csv_rows_matches_pure(native):
    @settings(max_examples=500, deadline=None)
    @given(csv_cases())
    def check(args):
        assert outcome(lambda: native.csv_rows(*args)) == outcome(
            lambda: _pure.csv_rows(*args))

    check()


def test_native_csv_rows_prints_each_seam_as_percent_17g(native):
    """Every decade from 1e-8 to 1e18 and 1e-6, 1e-4, 1e16, 1e17, 20 ulps
    either side of each, both signs, and 40 ties in each decade the integer
    path covers; the time column of the first rows crosses 1e-6 and
    1e-4."""
    xs = [ulps_from(sign * seam, k)
          for seam in [10.0 ** d for d in range(-8, 19)] + list(SEAMS)
          for sign in (1.0, -1.0) for k in range(-20, 21)]
    xs += [sign * tie(decade, m * 2 ** 47) for decade in range(-6, 16)
           for m in range(40) for sign in (1.0, -1.0)]
    xs += SPECIAL
    values = array("d", xs)
    text = native.csv_rows(values, 1, 1e-7, 0, 0, len(xs))
    times = [1e-7 * r if r else 0.0 for r in range(len(xs))]
    assert text == "".join("%.17g,%.17g\n" % (t, x) for t, x in zip(times, xs))
    assert text == _pure.csv_rows(values, 1, 1e-7, 0, 0, len(xs))


def test_csv_rows_refuses_rows_outside_the_buffer(native):
    values = array("d", [1.0, 2.0, 3.0, 4.0])
    for args in ((values, 2, 0.5, 0, -1, 1), (values, 2, 0.5, 0, 1, 3),
                 (values, 0, 0.5, 0, 0, 1)):
        expected = outcome(lambda: _pure.csv_rows(*args))
        assert expected[0] is ValueError
        assert outcome(lambda: native.csv_rows(*args)) == expected
    # no rows asked for: nothing to check
    assert native.csv_rows(values, 0, 0.5, 7, 3, 2) == ""


def bin_outcome(bin_cells, values, width, bins):
    """What bin_cells adds to a set that already holds -1, and returns."""
    visited = {-1}
    result = outcome(lambda: bin_cells(values, width, bins, visited))
    return result, sorted(visited)


BIG_COUNTS = (2 ** 53, 2 ** 53 + 1, 2 ** 60, 2 ** 63 - 1, 2 ** 63, 2 ** 64 + 3,
              10 ** 30)


@st.composite
def bin_cases(draw):
    width = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    bins = []
    for _ in range(k):
        lo = draw(st.floats(-1e6, 1e6))
        hi = draw(st.one_of(
            st.floats(lo, 2e6).filter(lambda hi: hi > lo),
            st.just(math.nextafter(lo, math.inf)),
        ))
        n = draw(st.one_of(st.integers(1, 64), st.integers(65, 10 ** 6),
                           st.sampled_from(BIG_COUNTS)))
        bins.append((draw(st.integers(0, width - 1)), lo, hi, n))

    def value(axis):
        edges = [v for a, lo, hi, _ in bins if a == axis for v in (
            lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
            math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf),
            0.5 * (lo + hi))]
        return st.one_of(st.sampled_from(edges or [0.0]),
                         st.sampled_from((0.0, -0.0, math.nan, math.inf,
                                          -math.inf)),
                         st.floats(-3e6, 3e6))

    rows = draw(st.lists(st.tuples(*[value(a) for a in range(width)]),
                         max_size=24))
    if draw(st.booleans()):
        # the rows on both sides of the pure backend's first chunk boundary,
        # after filler rows outside every range
        rows = [(math.nan,) * width] * (BIN_CHUNK_ROWS - len(rows) // 2) + rows
    values = array("d", [v for row in rows for v in row])
    return values, width, tuple(bins)


def test_native_bin_cells_matches_pure(native):
    @settings(max_examples=400, deadline=None)
    @given(bin_cases())
    def check(args):
        assert bin_outcome(native.bin_cells, *args) == bin_outcome(
            _pure.bin_cells, *args)

    check()


def test_bin_cells_on_grids_beyond_a_long_long(native):
    """Grids of 2**80, 10**60 and 2**65 + 6 cells, which _native.c hands
    to the pure backend, and axes of 2**63 - 1 cells, whose double rounds
    up to 2**63: the cells are those of the pure backend."""
    values = array("d", [0.0, 1.0, 0.25, 0.5, 1.0, 0.0, 0.7, 0.3, 2.0, 0.5])
    for counts in ((2 ** 40, 2 ** 40), (10 ** 30, 10 ** 30), (2 ** 64 + 3, 2),
                   (2 ** 63 - 1, 1), (1, 2 ** 63 - 1)):
        bins = ((0, 0.0, 1.0, counts[0]), (1, 0.0, 1.0, counts[1]))
        expected = bin_outcome(_pure.bin_cells, values, 2, bins)
        assert expected[0] is None and len(expected[1]) == 5
        assert bin_outcome(native.bin_cells, values, 2, bins) == expected
    assert 2 ** 63 - 2 in expected[1]  # the upper edge, clamped


def test_bin_cells_fails_alike(native):
    values = array("d", [0.5, 0.5, 2.0, 2.0])
    huge = 10 ** 400  # no double holds it
    cases = [
        (values, 2, ((0, 1.0, 0.0, 4),)),
        (values, 2, ((0, 0.0, math.nan, 4),)),
        (values, 2, ((0, -math.inf, 0.0, 4),)),
        (values, 2, ((0, -1e308, 1e308, 4),)),  # the span overflows
        (values, 2, ((0, 0.0, 1.0, 0),)),
        (values, 2, ((0, 0.0, 1.0, -3),)),
        (values, 2, ((2, 0.0, 1.0, 4),)),
        (values, 2, ((-1, 0.0, 1.0, 4),)),
        (values, 0, ((0, 0.0, 1.0, 4),)),
        (values, 2, ((0, 0.0, 1.0, huge),)),  # an in-box value meets float(n)
        (values, 2, ((0, 3.0, 4.0, huge),)),  # no in-box value does
        (values, 2, ((0, 0.0, 1.0, 4), (1, 3.0, 4.0, huge))),
        (array("d"), 2, ((5, 0.0, 1.0, 4),)),  # no rows to read
        (values, 2, ()),
    ]
    for args in cases:
        expected = bin_outcome(_pure.bin_cells, *args)
        assert bin_outcome(native.bin_cells, *args) == expected
    assert bin_outcome(_pure.bin_cells, *cases[9])[0][0] is OverflowError
    assert bin_outcome(_pure.bin_cells, *cases[10]) == (None, [-1])
