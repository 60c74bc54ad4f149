"""Round trips and byte determinism for the CSV and JSON emitters."""

import json
import os
from functools import partial

import pytest

from horoflow.diagnostics import BinningSpec, coverage
from horoflow.flows import HorocycleU, OrbitSegment, Sol3U, integrate_orbit
from horoflow.models import build_modular, build_t3a
from horoflow.models.base import QuotientPoint
from horoflow.orbitio import (
    density_json_text,
    orbit_csv_text,
    read_orbit_csv,
    write_density_json,
    write_orbit_csv,
)


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
    empty = OrbitSegment("modular", HorocycleU(0.1), (), None, 0,
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
