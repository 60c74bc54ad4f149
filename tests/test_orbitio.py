"""Round trips and byte determinism for the CSV and JSON emitters."""

import json
import math
import os
import random
import stat
import threading
import tracemalloc
from array import array
from functools import partial

import pytest

from horoflow import orbitio
from horoflow.diagnostics import BinningSpec, coverage
from horoflow.flows import (
    HorocycleU,
    OrbitSegment,
    Sol3U,
    flow_label,
    integrate_orbit,
)
from horoflow.models import build_modular, build_t3a
from horoflow.models.base import QuotientPoint
from horoflow.orbitio import (
    CSV_CHUNK_ROWS,
    density_json_text,
    orbit_csv_text,
    read_orbit_csv,
    write_density_json,
    write_orbit_csv,
)

CHUNK = CSV_CHUNK_ROWS
# cells whose %.17g text is easy to get wrong: a signed zero, the
# infinities, NaN and a value near the bottom of the normal range
SPECIAL_CELLS = (-0.0, math.inf, -math.inf, math.nan, 1e-300)


def synthetic_segment(rows, width, seed=0):
    """A segment of `rows` rows of `width` coordinates, every fourth cell
    taken from SPECIAL_CELLS in turn; returns it with its rows as tuples."""
    rng = random.Random(seed)
    cells = [
        SPECIAL_CELLS[k // 4 % len(SPECIAL_CELLS)] if k % 4 == 0
        else rng.uniform(-1e3, 1e3)
        for k in range(rows * width)
    ]
    names = tuple("q%d" % (i + 1) for i in range(width))
    segment = OrbitSegment("synthetic", HorocycleU(0.37), array("d", cells),
                           11, rows, names, 3,
                           partial(QuotientPoint, "synthetic"))
    return segment, list(zip(*[iter(cells)] * width))


def reference_csv_text(segment, rows):
    """The CSV renderer as it was before it wrote in chunks: the whole file
    as one string, one line per row tuple."""
    names = tuple(segment.coord_names)
    width = len(rows[0]) if rows else len(names)
    lines = [
        "# model = %s" % segment.model,
        "# flow = %s" % flow_label(segment.flow),
        "# seed = %s" % segment.seed,
        "# steps = %d" % segment.steps,
    ]
    for i in range(min(width, len(names))):
        lines.append("# c%d = %s" % (i + 1, names[i]))
    lines.append("time," + ",".join("c%d" % (i + 1) for i in range(width)))
    row_fmt = ",".join(["%.17g"] * (width + 1))
    lines.extend(row_fmt % (time, *row) for time, row in zip(segment.times(), rows))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def segment():
    return integrate_orbit(
        build_modular(), None, HorocycleU(0.13), 40, seed=6, sample_every=4
    )


def test_csv_round_trip_is_exact(segment, tmp_path):
    path = write_orbit_csv(segment, str(tmp_path / "orbit.csv"))
    legend, columns, rows = read_orbit_csv(path)
    assert columns == ["time", "c1", "c2", "c3"]
    assert legend["model"] == "modular"
    assert legend["flow"] == "HorocycleU(0.13)"
    assert legend["seed"] == "6"
    assert legend["c1"] == "re" and legend["c3"] == "direction"
    assert len(rows) == len(segment)
    for (time, point), row in zip(segment.samples, rows):
        assert row[0] == time
        assert row[1:] == point.coords


def test_csv_is_byte_deterministic(segment, tmp_path):
    a = write_orbit_csv(segment, str(tmp_path / "a.csv"))
    b = write_orbit_csv(segment, str(tmp_path / "b.csv"))
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_csv_empty_segment_is_header_only():
    empty = OrbitSegment("modular", HorocycleU(0.1), array("d"), None, 0,
                         ("re", "im", "direction"), 1,
                         partial(QuotientPoint, "modular"))
    text = orbit_csv_text(empty)
    lines = text.strip().splitlines()
    assert lines[-1] == "time,c1,c2,c3"
    assert all(line.startswith("#") for line in lines[:-1])


def test_csv_write_is_atomic(segment, tmp_path):
    target = tmp_path / "orbit.csv"
    write_orbit_csv(segment, str(target))
    write_orbit_csv(segment, str(target))  # overwrite in place
    leftovers = [p for p in os.listdir(tmp_path) if p != "orbit.csv"]
    assert leftovers == []


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    yield
    os.umask(old)


def file_mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_new_output_gets_the_mode_open_gives(segment, tmp_path, umask_027):
    with open(tmp_path / "plain.txt", "w", encoding="utf-8"):
        pass
    write_orbit_csv(segment, str(tmp_path / "orbit.csv"))
    assert file_mode(tmp_path / "orbit.csv") == file_mode(tmp_path / "plain.txt")
    assert file_mode(tmp_path / "orbit.csv") == 0o640


def test_replaced_output_keeps_its_mode(segment, tmp_path, umask_027):
    target = tmp_path / "orbit.csv"
    target.write_text("old\n")
    target.chmod(0o604)
    write_orbit_csv(segment, str(target))
    assert file_mode(target) == 0o604
    assert target.read_text() == orbit_csv_text(segment)
    assert os.listdir(tmp_path) == ["orbit.csv"]


@pytest.mark.parametrize("kind", ["csv", "json"])
def test_fifo_target_is_written_in_place(kind, segment, tmp_path):
    # A rename would put a regular file where the FIFO was, as it once did
    # to a /dev/null given as --out; the reader must get the text through
    # the FIFO, which must stay a FIFO.
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    if kind == "csv":
        write_orbit_csv(segment, str(fifo))
        expected = orbit_csv_text(segment)
    else:
        report = coverage(segment, BinningSpec(((-1.0, 1.0), (0.0, 2.0)), (4, 4)))
        write_density_json(report, str(fifo))
        expected = density_json_text(report)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["out.fifo"]


def test_csv_rejects_malformed_rows(tmp_path):
    bad_width = tmp_path / "w.csv"
    bad_width.write_text("time,c1\n0,1,2\n")
    with pytest.raises(ValueError, match=":2"):
        read_orbit_csv(str(bad_width))
    bad_cell = tmp_path / "c.csv"
    bad_cell.write_text("time,c1\n0,apple\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_orbit_csv(str(bad_cell))
    no_header = tmp_path / "h.csv"
    no_header.write_text("# model = x\n")
    with pytest.raises(ValueError, match="no header"):
        read_orbit_csv(str(no_header))
    wrong_first = tmp_path / "f.csv"
    wrong_first.write_text("tick,c1\n")
    with pytest.raises(ValueError, match="must start with 'time'"):
        read_orbit_csv(str(wrong_first))


def test_density_json_schema(tmp_path):
    t3a = build_t3a(((2, 1), (1, 1)))
    seg = integrate_orbit(t3a, None, Sol3U(0.037), 500, seed=9)
    report = coverage(seg, BinningSpec(((0.0, 1.0), (0.0, 1.0)), (10, 10)))
    path = write_density_json(report, str(tmp_path / "density.json"))
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert sorted(payload) == [
        "bins", "flow", "fraction", "model", "seed", "steps", "total", "visited",
    ]
    assert payload["model"] == "t3a"
    assert payload["bins"] == [10, 10]
    assert payload["total"] == 100
    assert payload["visited"] <= 100
    assert 0.0 <= payload["fraction"] <= 1.0
    assert density_json_text(report) == density_json_text(report)


# -- chunked writing ----------------------------------------------------------


@pytest.mark.parametrize("width", [3, 4, 5])
@pytest.mark.parametrize(
    "rows",
    # the chunk boundaries, and the multi-chunk counts 2047, 2048, 2049 and
    # 4097 (a partial last chunk, whole chunks only, one row over, and so on)
    sorted(
        {0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 2047, 2048, 2049, 4097}
    ),
)
def test_chunked_csv_matches_whole_text(rows, width, tmp_path):
    segment, row_tuples = synthetic_segment(rows, width, seed=rows + width)
    path = write_orbit_csv(segment, str(tmp_path / "orbit.csv"))
    with open(path, "rb") as handle:
        written = handle.read()
    text = orbit_csv_text(segment)
    assert written == text.encode("utf-8")
    assert text == reference_csv_text(segment, row_tuples)
    # legend, header and one line per row
    assert text.count("\n") == 5 + width + rows
    if rows > 4:
        cells = set(text.replace("\n", ",").split(","))
        assert {"-0", "inf", "-inf", "nan", "1e-300"} <= cells


def test_csv_chunks_go_through_the_module_renderer(monkeypatch, tmp_path):
    # a tracer may wrap orbitio.orbit_csv_text: the writer must call it, by
    # its module name, once per chunk
    segment, _ = synthetic_segment(2 * CHUNK + 1, 4)
    calls = []
    real = orbitio.orbit_csv_text

    def spy(seg, start=0, stop=None):
        calls.append((start, stop))
        return real(seg, start, stop)

    monkeypatch.setattr(orbitio, "orbit_csv_text", spy)
    path = write_orbit_csv(segment, str(tmp_path / "orbit.csv"))
    assert calls == [(0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK + 1)]
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.read() == real(segment)


def test_csv_write_holds_a_few_chunks_not_the_file(tmp_path):
    segment, _ = synthetic_segment(100_000, 4)
    chunk = len(orbit_csv_text(segment, 1, 1 + CHUNK))
    path = str(tmp_path / "orbit.csv")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_orbit_csv(segment, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert size > 40 * chunk
    # about 5 chunks measured: the row strings, their join and its encoding
    assert peak < 8 * chunk
