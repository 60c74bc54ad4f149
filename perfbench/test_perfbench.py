"""Tests of the benchmark itself: its declared metrics, its span arithmetic,
its output checks and the counters that must repeat exactly.

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from layers import END_TO_END, SpanIndex, benchmark_metrics, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Command, check_output, stable_output  # noqa: E402

from horoflow.models import build_octagon  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DETERMINISTIC = ("kernel.steps", "flows.samples", "orbitio.csv_bytes",
                 "groups.word_ball_elements", "flows.alloc_bytes_per_sample")


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_lists_the_declared_metrics_and_workloads():
    bench = load_benchmark_json()
    end_to_end, per_layer = benchmark_metrics()
    assert bench["end_to_end"] == end_to_end
    assert bench["per_layer"] == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]


def test_benchmark_json_keeps_the_format_limits():
    bench = load_benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"] for m in bench["end_to_end"]} == {n for n, *_ in END_TO_END}


def test_self_time_subtracts_children_and_nesting_counts_once():
    spans = [
        ["cli.flow", 0.0, 10.0, -1, None],
        ["flows.integrate_orbit", 1.0, 7.0, 0, {"model": "octagon", "samples": 3}],
        ["kernel.surface_orbit", 2.0, 5.0, 1, {"steps": 1000}],
        ["models.reduce", 5.0, 6.0, 1, None],
        ["models.reduce", 5.2, 5.7, 3, None],
    ]
    index = SpanIndex(spans)
    assert index.self_time == pytest.approx([4.0, 2.0, 3.0, 0.5, 0.5])
    assert index.total("models.reduce") == pytest.approx(1.0)
    traced = {"spans": spans, "import_s": 0.1,
              "commands": [{"wall_s": 10.0}], "alloc": {"bytes": 900, "samples": 3}}
    m = layer_metrics(traced, {"commands": [{"wall_s": 9.5}]})
    assert m["kernel.octagon.ns_per_step"] == pytest.approx(3e6)
    assert m["flows.materialise_s"] == pytest.approx(2.0)
    assert m["flows.alloc_bytes_per_sample"] == 300
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert m["kernel.t3a.ns_per_step"] == 0.0


def test_output_checks_catch_bad_outputs(tmp_path):
    csv = tmp_path / "orbit.csv"
    csv.write_text("# model = octagon\ntime,c1\n0,1\n0.5,2\n")
    good = Command(("flow",), "csv", str(csv), 2)
    assert check_output(good, 0, "") == (1, [], [])
    assert check_output(Command(("flow",), "csv", str(csv), 3), 0, "")[1]
    assert check_output(good, 1, "")[1]
    density = tmp_path / "density.json"
    density.write_text('{"fraction": 1.5}')
    assert check_output(Command(("density",), "json", str(density)), 0, "")[1]

    line = "criterion %2d %-28s %s  (%.2fs of %.0fs budget)  x=1"
    verdicts = [line % (n, "c%d" % n, "PASS", 0.1, 5) for n in range(1, 10)]
    check = Command(("check", "all"), "check")
    passing = "\n".join(verdicts + [line % (10, "c10", "PASS", 0.1, 5)])
    assert check_output(check, 0, passing) == (11, [], [])
    overrun = "\n".join(verdicts + [line % (10, "c10", "FAIL", 5.5, 5)])
    # Past its budget, a criterion fails unless its own verdict shows it held.
    assert check_output(check, 1, overrun, {10: True})[1:] == (
        [], ["criterion 10 c10: over its time budget"])
    for held in ({10: False}, {}):
        attempted, failures, overruns = check_output(check, 1, overrun, held)
        assert len(failures) == 1 and len(overruns) == 1
    wrong = "\n".join(verdicts + [line % (10, "c10", "FAIL", 0.1, 5)])
    attempted, failures, overruns = check_output(check, 1, wrong, {10: True})
    assert len(failures) == 1 and not overruns
    assert len(check_output(check, 0, wrong)[1]) == 2  # exit code disagrees


def test_a_budget_does_not_change_the_stable_output():
    line = "criterion  5 graph_minimal_set            %s  (%.2fs of 5s budget)  r=1e-12"
    check = Command(("check", "all"), "check")
    assert (stable_output(check, line % ("PASS", 4.8))
            == stable_output(check, line % ("FAIL", 5.2)))


def test_deterministic_counters_repeat_across_traced_runs(tmp_path):
    counters = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        argvs = []
        for name in ("dense-octagon", "sparse-all-models"):
            argvs += [c.argv for c in WORKLOADS[name].build(7, str(workdir), 0.02)]
        # word_ball runs in `check all` and `classify`; classify is quicker.
        generators = workdir / "octagon.gens"
        generators.write_text("".join(
            "g%d mat %r %r %r %r\n" % ((i,) + tuple(g.entries))
            for i, g in enumerate(build_octagon().independent_generators())))
        argvs.append(("classify", "--generators", str(generators), "--radius", "3"))
        traced = run.run_tracer(argvs, True, False, str(workdir))
        assert all(c["code"] == 0 for c in traced["commands"])
        assert not traced["unpatched"]
        m = layer_metrics(traced, traced)
        counters.append({name: m[name] for name in DETERMINISTIC})
    assert counters[0] == counters[1]
    assert all(counters[0][name] > 0 for name in DETERMINISTIC)


def test_runs_that_mix_backends_fail_loudly():
    assert run.one_backend(["pure", "pure"]) == "pure"
    with pytest.raises(run.BenchmarkError, match="mixes kernel backends"):
        run.one_backend(["pure", "native"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
