"""End-to-end checks for the command line front end.

Most tests drive ``main`` in process and inspect exit codes, written files,
and captured output.  One subprocess test exercises the real ``-m`` entry
point so the module guard and console wiring stay honest.
"""

import argparse
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horoflow
from horoflow import _kernels, acceptance, cli, models
from horoflow._kernels import _pure
from horoflow.cli import main
from horoflow.flows import (
    MAX_STEPS,
    DualBoundaryIterate,
    GeodesicD,
    HorocycleU,
    Sol3U,
)
from horoflow.groups import WORD_BALL_RADIUS_CAP
from horoflow.orbitio import read_orbit_csv


def run(argv):
    return main([str(a) for a in argv])


def must_not_run(*args, **kwargs):
    raise AssertionError("a kernel or the group search ran")


# -- flow ----------------------------------------------------------------------


def test_flow_modular_horocycle_period(tmp_path):
    # u(1) is a deck transformation of the modular quotient, so the orbit
    # returns to its start after time 1 (100 steps of the default dt 0.01).
    out = tmp_path / "orbit.csv"
    assert run(["flow", "--model", "modular", "--flow", "u",
                "--steps", 100, "--out", out]) == 0
    legend, columns, rows = read_orbit_csv(out)
    assert legend["model"] == "modular"
    assert columns == ["time", "c1", "c2", "c3"]
    assert len(rows) == 101
    for first, last in zip(rows[0][1:], rows[100][1:]):
        assert abs(first - last) < 1e-9


def test_flow_t3a_triangular_keeps_fiber(tmp_path):
    # the triangular step moves the leafwise coordinates only; the fiber
    # column must be bit-identical across the whole run.
    out = tmp_path / "orbit.csv"
    assert run(["flow", "--model", "t3a", "--A", "2 1 1 1", "--flow", "sol3u",
                "--steps", 500, "--seed", 7, "--out", out]) == 0
    _, columns, rows = read_orbit_csv(out)
    assert columns == ["time", "c1", "c2", "c3"]
    fibers = {row[3] for row in rows}
    assert len(fibers) == 1


def test_flow_zero_steps_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["flow", "--model", "octagon", "--flow", "geo",
                "--steps", 0, "--out", out]) == 0
    legend, columns, rows = read_orbit_csv(out)
    assert rows == []
    assert columns == ["time", "c1", "c2", "c3"]
    assert legend["steps"] == "0"


def test_flow_reruns_are_byte_identical(tmp_path):
    argv = ["flow", "--model", "octagon", "--flow", "b", "--dalpha", 0.02,
            "--dbeta", 0.03, "--steps", 64, "--seed", 11]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", first]) == 0
    assert run(argv + ["--out", second]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_flow_rejects_flow_model_mismatch(tmp_path, capsys):
    # the triangular flow only makes sense on the torus bundle model
    code = run(["flow", "--model", "modular", "--flow", "sol3u",
                "--steps", 5, "--out", tmp_path / "x.csv"])
    assert code == 2
    assert capsys.readouterr().err == (
        "usage error: --flow sol3u runs on --model t3a only, got --model modular\n")


@pytest.mark.parametrize("command", ["flow", "density"])
@pytest.mark.parametrize("model", [m for m in models.MODEL_NAMES if m != "t3a"])
@pytest.mark.parametrize("flow", ["sol3u", "dual"])
@pytest.mark.parametrize("seed", [[], ["--seed", 3]])
def test_every_flow_the_model_does_not_carry_is_a_usage_error(
    monkeypatch, tmp_path, capsys, command, model, flow, seed
):
    # sol3u and dual run on the torus bundle only: refused before any
    # kernel runs, with no file left
    monkeypatch.chdir(tmp_path)
    for kernel in ("surface_orbit", "modular_orbit", "t3a_orbit"):
        monkeypatch.setattr(_kernels, kernel, must_not_run)
    argv = [command, "--model", model, "--flow", flow, "--steps", 10,
            "--out", "out"] + seed
    if command == "density":
        argv += ["--bins", "4 4"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage error: --flow %s runs on --model t3a only, got --model %s\n"
        % (flow, model))
    assert os.listdir() == []


@pytest.mark.parametrize("kernel", ["pure", "native"])
def test_flow_cusp_division_by_zero_is_a_run_failure(
    kernel, tmp_path, capsys, monkeypatch, native_or_none
):
    # A modular geodesic climbs the cusp until c^2 + d^2 underflows to 0,
    # in the fourth kernel call of the stream; both kernels then raise a
    # ValueError naming the step before they divide by it, which the CLI
    # reports as a failed run without a traceback.
    if kernel == "native" and native_or_none is None:
        pytest.skip("no C compiler to build _native.c")
    module = _pure if kernel == "pure" else native_or_none
    monkeypatch.setattr(_kernels, "modular_orbit", module.modular_orbit)
    code = run(["flow", "--model", "modular", "--flow", "geo", "--dt", 0.1,
                "--steps", 10000, "--out", tmp_path / "x.csv"])
    assert code == 1
    assert capsys.readouterr().err == (
        "run failed: frame escaped into the cusp at step 7451\n")
    assert not (tmp_path / "x.csv").exists()


def test_flow_unknown_model_and_flow(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["flow", "--model", "klein", "--flow", "u",
                "--steps", 1, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "usage error: --model must be one of modular, octagon, "
        "octagon_boundary, octagon_so3, t3a, got 'klein'\n")
    assert run(["flow", "--model", "modular", "--flow", "warp",
                "--steps", 1, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "usage error: --flow must be one of u, geo, b, sol3u, dual, "
        "got 'warp'\n")


def _holonomy(model):
    return [getattr(h, "entries", h) for h in getattr(model, "holonomy", ())]


@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_cli_models_come_from_the_library_registry(name):
    for seed in (None, 0, 5):
        from_cli = cli.build_model(name, None, seed)
        # without --seed the CLI asks for seed 0, the library defaults to 7
        from_library = models.build_model(name, seed=seed or 0)
        assert from_cli.name == from_library.name == name
        assert _holonomy(from_cli) == _holonomy(from_library)
        assert getattr(from_cli, "a_mat", None) == getattr(from_library, "a_mat", None)


def test_flow_missing_out_is_usage_error(capsys):
    assert run(["flow", "--model", "modular", "--flow", "u", "--steps", 1]) == 2
    assert "--out" in capsys.readouterr().err


# -- density -------------------------------------------------------------------


def test_density_zero_steps_reports_zero_fraction(tmp_path):
    out = tmp_path / "cover.json"
    assert run(["density", "--model", "modular", "--flow", "u", "--steps", 0,
                "--bins", "4 4 4", "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["fraction"] == 0.0
    assert report["visited"] == 0
    assert report["total"] == 64


def test_density_schema_and_determinism(tmp_path):
    argv = ["density", "--model", "modular", "--flow", "u", "--steps", 400,
            "--seed", 3, "--bins", "6 6 4"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + ["--out", first]) == 0
    assert run(argv + ["--out", second]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert sorted(report) == ["bins", "flow", "fraction", "model", "seed",
                              "steps", "total", "visited"]
    assert report["bins"] == [6, 6, 4]
    assert report["seed"] == 3
    assert 0.0 < report["fraction"] <= 1.0


def test_density_explicit_box(tmp_path):
    # a box that covers the whole fiber cube with one fat cell per axis
    out = tmp_path / "cover.json"
    assert run(["density", "--model", "t3a", "--flow", "sol3u", "--steps", 50,
                "--seed", 1, "--bins", "1 1 1",
                "--box", "0 1 0 1 0 1", "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["fraction"] == 1.0


_TAU = 2.0 * math.pi


@pytest.mark.parametrize("name, flow, tail", [
    ("modular", HorocycleU(0.01), ()),
    ("octagon", HorocycleU(0.01), ()),
    ("octagon_boundary", HorocycleU(0.01), ((-math.pi, math.pi),)),
    ("octagon_so3", GeodesicD(0.01), ((0.0, math.pi), (0.0, _TAU))),
])
def test_surface_models_give_default_density_ranges(name, flow, tail):
    model = models.build_model(name)
    box = model.coverage_box()
    assert model.default_ranges(flow) == (box[0], box[1], (0.0, _TAU)) + tail


def test_t3a_default_density_ranges_depend_on_the_flow():
    model = models.build_model("t3a")
    assert model.default_ranges(Sol3U(0.037)) == ((0.0, 1.0),) * 3
    assert model.default_ranges(DualBoundaryIterate()) == (
        (-math.pi, math.pi), (-2.0, 2.0))


def test_density_needs_ranges_for_every_axis(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["density", "--model", "octagon_boundary", "--flow", "u",
                "--steps", 1, "--bins", "2 2 2 2 2", "--out", out]) == 2
    assert capsys.readouterr().err == (
        "usage error: no default ranges for 5 axes on model "
        "octagon_boundary; pass --box\n")


def test_density_bad_bins_and_box(tmp_path, capsys):
    out = tmp_path / "x.json"
    base = ["density", "--model", "modular", "--flow", "u", "--steps", 1,
            "--out", out]
    # argparse casts --bins, and refuses what does not cast as it refuses
    # any flag: with exit status 2
    with pytest.raises(SystemExit) as excinfo:
        run(base + ["--bins", "four four"])
    assert excinfo.value.code == 2
    assert "--bins" in capsys.readouterr().err
    assert run(base + ["--bins", "4 4", "--box", "0 1 0"]) == 2
    assert "--box" in capsys.readouterr().err


# -- config files --------------------------------------------------------------


def test_config_supplies_options_and_flags_win(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# orbit settings\n"
        "model = modular\n"
        "flow = u\n"
        "steps = 50\n"
        "seed = 5\n"
    )
    out = tmp_path / "orbit.csv"
    assert run(["flow", "--config", config, "--steps", 3, "--out", out]) == 0
    legend, _, rows = read_orbit_csv(out)
    # model and seed come from the file, the explicit flag overrides steps
    assert legend["model"] == "modular"
    assert legend["seed"] == "5"
    assert legend["steps"] == "3"
    assert len(rows) == 4


def test_config_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("model = modular\nwarp_factor = 9\n")
    assert run(["flow", "--config", config, "--flow", "u", "--steps", 1,
                "--out", tmp_path / "x.csv"]) == 2
    assert "warp_factor" in capsys.readouterr().err


ORBIT_CONFIG = {
    "model": "octagon", "A": (2, 1, 1, 1), "flow": "u", "dt": 0.5,
    "dalpha": 0.25, "dbeta": 0.125, "steps": 7, "sample_every": 3, "seed": 11,
    "out": "orbit.csv",
}

# Every option of each subcommand but --config, by dest, with a value of
# the option's type; a tuple is written as its items.
CONFIG_VALUES = {
    "flow": ORBIT_CONFIG,
    "density": dict(ORBIT_CONFIG, bins=(4, 4), box=(0.0, 1.0, 0.0, 1.0)),
    "classify": {"generators": "modular.gens", "radius": 3, "tol": 0.25},
    "plot": {"infile": "orbit.csv", "x": "c1", "y": "c3", "out": "plot.svg"},
}


@pytest.mark.parametrize("command", sorted(CONFIG_VALUES))
def test_a_config_file_sets_every_option(monkeypatch, tmp_path, command):
    values = CONFIG_VALUES[command]
    config = tmp_path / "run.conf"
    config.write_text("".join(
        "%s = %s\n" % (key, " ".join(map(str, value)) if type(value) is tuple
                       else value)
        for key, value in values.items()))
    seen = {}

    def handler(args):
        seen.update(vars(args))
        return 0

    monkeypatch.setitem(cli._HANDLERS, command, handler)
    assert run([command, "--config", config]) == 0
    assert {key: seen[key] for key in values} == values
    assert all(type(seen[key]) is type(value) for key, value in values.items())
    # an option the file left out would still be None
    assert [key for key, value in seen.items() if value is None] == []


@pytest.mark.parametrize("command", ["flow", "density"])
@pytest.mark.parametrize("from_config", [False, True])
def test_sample_every_zero_is_refused(tmp_path, capsys, command, from_config):
    # 0 is a value given, not a missing option: it must be refused as -3 is
    # instead of falling back to sampling every step, and before the run.
    argv = [command, "--model", "octagon", "--flow", "u", "--steps", 10,
            "--out", tmp_path / "out"]
    if command == "density":
        argv += ["--bins", "4 4"]
    if from_config:
        config = tmp_path / "run.conf"
        config.write_text("sample-every = 0\n")
        argv += ["--config", config]
    else:
        argv += ["--sample-every", 0]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "usage error: --sample-every must be an integer >= 1, got 0\n")
    assert not (tmp_path / "out").exists()


# -- option domains ------------------------------------------------------------


def parser_options():
    """(command, dest, flag) for every option of every subcommand of
    cli.build_parser() but --help and --config."""
    parser = cli.build_parser()
    [subs] = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    return [(command, action.dest, action.option_strings[0])
            for command, sub in subs.choices.items()
            for action in sub._actions
            if action.option_strings and action.dest not in ("help", "config")]


NOT_AN_INTEGER = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "nan", "inf", "2 3"])
NOT_A_NUMBER = st.sampled_from(["", "x", "1,5", "one", "--", "1 2"])
NOT_FINITE = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity",
                              "1e999", "-1e999"])
NAME = st.text("abcdefghijklmnopqrstuvwxyz_0123456789", max_size=12)


def integers_outside(low, high=None):
    """Integers below low or above high, and text that is no integer."""
    above = st.nothing() if high is None else st.integers(min_value=high + 1)
    return st.one_of(st.integers(max_value=low - 1).map(str), above.map(str),
                     NOT_AN_INTEGER)


def numbers_outside(*numbers):
    """NaN, +-inf, text that is no number, and the texts `numbers` draws."""
    return st.one_of(NOT_FINITE, NOT_A_NUMBER, *numbers)


def one_bad_among(good, bad, least=0, most=3):
    """Between least and most `good` words and one `bad` word, in any order."""
    return st.tuples(st.lists(good, min_size=least, max_size=most), bad).flatmap(
        lambda drawn: st.permutations(drawn[0] + [drawn[1]])).map(" ".join)


INTEGER = st.integers().map(str)
BAD_INTEGER_WORD = st.sampled_from(["x", "1.5", "1e3", "nan", "inf"])

# Values outside each option's domain, as the text of a flag or a config
# line, by dest; None for an option that takes any text.
OUTSIDE = {
    "model": NAME.filter(lambda name: name not in models.MODEL_NAMES),
    "A": st.one_of(
        st.lists(INTEGER, max_size=8).filter(lambda v: len(v) != 4).map(" ".join),
        one_bad_among(INTEGER, BAD_INTEGER_WORD, 3, 3)),
    "flow": NAME.filter(lambda name: name not in cli.FLOW_NAMES),
    "dt": numbers_outside(st.sampled_from(["0", "-0.0", "0e9", "+0"])),
    "dalpha": numbers_outside(),
    "dbeta": numbers_outside(),
    "steps": integers_outside(0, MAX_STEPS),
    "sample_every": integers_outside(1),
    "seed": NOT_AN_INTEGER,
    "bins": st.one_of(st.just(""), one_bad_among(
        st.integers(1, 50).map(str),
        st.one_of(st.integers(max_value=0).map(str), BAD_INTEGER_WORD))),
    "box": one_bad_among(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "1,5"])),
    "radius": integers_outside(1, WORD_BALL_RADIUS_CAP),
    "tol": numbers_outside(st.floats(max_value=0.0, allow_infinity=False).map(repr)),
    "out": None, "generators": None, "infile": None, "x": None, "y": None,
}

# A command line of each command with a domain option, by dest and text.
VALID = {
    "flow": {"model": "octagon", "flow": "u", "steps": "10", "out": "out"},
    "density": {"model": "octagon", "flow": "u", "steps": "10", "bins": "4 4",
                "out": "out"},
    "classify": {"generators": "modular.gens"},
}


@pytest.mark.parametrize("command, dest, flag", [
    option for option in parser_options() if OUTSIDE.get(option[1]) is not None])
def test_a_value_outside_an_options_domain_is_a_usage_error(
    monkeypatch, tmp_path, capsys, command, dest, flag
):
    # by flag and by config file alike: exit 2 with one message that names
    # the option, before a kernel or the group search runs, and no output;
    # a flag argparse cannot cast is refused by argparse, with exit 2 too
    monkeypatch.chdir(tmp_path)
    Path("modular.gens").write_text("T u 1\nS rot 1.5707963267948966\n")
    for kernel in ("surface_orbit", "modular_orbit", "t3a_orbit"):
        monkeypatch.setattr(_kernels, kernel, must_not_run)
    monkeypatch.setattr(cli, "classify_psl_projection", must_not_run)
    monkeypatch.setattr(cli, "detect_semi_parabolic", must_not_run)
    argv = [command] + ["--%s=%s" % (key.replace("_", "-"), text)
                        for key, text in VALID[command].items() if key != dest]

    def refused(argv, *files):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert sorted(os.listdir()) == sorted(("modular.gens",) + files)
        return captured.err.splitlines()[-1]

    @settings(max_examples=40, deadline=None)
    @given(OUTSIDE[dest])
    def check(value):
        by_flag = refused(argv + ["%s=%s" % (flag, value)])
        Path("run.conf").write_text("%s = %s\n" % (flag[2:], value))
        by_config = refused(argv + ["--config", "run.conf"], "run.conf")
        os.remove("run.conf")
        assert by_config.startswith("usage error: %s must be " % flag)
        assert by_flag == by_config or ("argument %s: invalid" % flag) in by_flag

    check()


def test_every_option_says_what_lies_outside_its_domain():
    # so that the walk above leaves out no option the parser gains
    assert {dest for _, dest, _ in parser_options()} == set(OUTSIDE)


@pytest.mark.parametrize("command, flag", sorted(
    {(command, flag) for command, _, flag in parser_options()}
    | {(command, "--config") for command, _, _ in parser_options()}))
def test_an_option_given_as_double_dash_is_a_usage_error(
    monkeypatch, tmp_path, capsys, command, flag
):
    # argparse leaves the value of `--flag=--` uncast, as []; every option,
    # text or typed, refuses it before the command runs
    monkeypatch.chdir(tmp_path)
    for kernel in ("surface_orbit", "modular_orbit", "t3a_orbit"):
        monkeypatch.setattr(_kernels, kernel, must_not_run)
    assert run([command, "%s=--" % flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: %s must be " % flag)
    assert captured.err.endswith(", got '--'\n")
    assert os.listdir() == []


@pytest.mark.parametrize("command", ["flow", "density", "plot"])
@pytest.mark.parametrize("out, error", [
    (os.path.join("missing", "out"), errno.ENOENT),
    ("target", errno.EISDIR),
])
def test_an_out_that_cannot_be_written_is_a_usage_error(
    monkeypatch, tmp_path, capsys, command, out, error
):
    monkeypatch.chdir(tmp_path)
    Path("target").mkdir()
    if command == "plot":
        Path("orbit.csv").write_text("time,c1,c2\n0,0.25,0.75\n1,0.5,0.25\n")
        argv = ["plot", "--in", "orbit.csv"]
    else:
        argv = [command, "--model", "octagon", "--flow", "u", "--steps", 10]
    if command == "density":
        argv += ["--bins", "4 4"]
    if command != "plot":  # the writer opens its file before the run
        monkeypatch.setattr(_kernels, "surface_orbit", must_not_run)
    before = sorted(os.listdir())
    assert run(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: cannot write %s: %s\n" % (
        out, os.strerror(error))
    assert captured.out == ""
    # no temp file is left, here or in the target directory
    assert sorted(os.listdir()) == before
    assert os.listdir("target") == []


# -- plot ----------------------------------------------------------------------


def test_plot_is_deterministic_svg(tmp_path):
    orbit = tmp_path / "orbit.csv"
    assert run(["flow", "--model", "modular", "--flow", "geo",
                "--steps", 80, "--out", orbit]) == 0
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(["plot", "--in", orbit, "--out", first]) == 0
    assert run(["plot", "--in", orbit, "--out", second]) == 0
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.startswith("<svg ")
    assert "circle" in text
    # axis labels come from the orbit legend
    assert "re" in text and "im" in text


def test_plot_single_point_pads_degenerate_range(tmp_path):
    orbit = tmp_path / "one.csv"
    orbit.write_text(
        "# model = demo\n"
        "# flow = none\n"
        "# seed = None\n"
        "# steps = 0\n"
        "# c1 = x\n"
        "# c2 = y\n"
        "time,c1,c2\n"
        "0,0.25,0.75\n"
    )
    out = tmp_path / "one.svg"
    assert run(["plot", "--in", orbit, "--out", out]) == 0
    assert 'r="3"' in out.read_text()


def test_plot_escapes_legend_text(tmp_path):
    # legend values reach the SVG's <text> elements and must stay well formed
    orbit = tmp_path / "odd.csv"
    orbit.write_text(
        "# model = a&b\n"
        "# flow = <none>\n"
        "# c1 = x<y\n"
        "# c2 = p>q & r\n"
        "time,c1,c2\n"
        "0,0.25,0.75\n"
        "1,0.5,0.25\n"
    )
    out = tmp_path / "odd.svg"
    assert run(["plot", "--in", orbit, "--out", out]) == 0
    root = ElementTree.parse(out).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[:3] == ["a&b / <none>", "x<y", "p>q & r"]


def test_plot_rejects_missing_column_and_bad_csv(tmp_path, capsys):
    orbit = tmp_path / "orbit.csv"
    assert run(["flow", "--model", "modular", "--flow", "u",
                "--steps", 5, "--out", orbit]) == 0
    assert run(["plot", "--in", orbit, "--x", "c9",
                "--out", tmp_path / "x.svg"]) == 2
    assert "c9" in capsys.readouterr().err

    garbage = tmp_path / "garbage.csv"
    garbage.write_text("this is not an orbit\n")
    assert run(["plot", "--in", garbage, "--out", tmp_path / "y.svg"]) == 2
    assert "cannot plot" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["c1", "c2"])
@pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
def test_plot_refuses_a_non_finite_cell(tmp_path, capsys, column, cell):
    # an SVG with cx="nan" or an axis label "inf" is not a plot
    orbit = tmp_path / "odd.csv"
    values = {"c1": "0.25", "c2": "0.75", column: cell}
    orbit.write_text("time,c1,c2\n0,0.5,0.5\n1,%(c1)s,%(c2)s\n" % values)
    out = tmp_path / "odd.svg"
    assert run(["plot", "--in", orbit, "--out", out]) == 2
    err = capsys.readouterr().err
    assert str(orbit) in err and "column %s has a non-finite value" % column in err
    assert not out.exists()


def test_plot_empty_orbit_is_an_error(tmp_path, capsys):
    orbit = tmp_path / "empty.csv"
    assert run(["flow", "--model", "modular", "--flow", "u",
                "--steps", 0, "--out", orbit]) == 0
    assert run(["plot", "--in", orbit, "--out", tmp_path / "x.svg"]) == 2
    assert "no data rows" in capsys.readouterr().err


# -- classify ------------------------------------------------------------------


def test_classify_free_fuchsian_pair(tmp_path, capsys):
    gens = tmp_path / "modular.gens"
    gens.write_text("T u 1\nS rot 1.5707963267948966\n")
    assert run(["classify", "--generators", gens, "--radius", 6]) == 0
    text = capsys.readouterr().out
    assert "DiscreteCandidate" in text
    assert "semi-parabolic" in text


def test_classify_triangular_projection_fixes_boundary(tmp_path, capsys):
    # all three dual generators fix the boundary point at infinity
    gens = tmp_path / "dual.gens"
    gens.write_text(
        "t1 u -0.7236067977499789\n"
        "t2 u -0.4472135954999579\n"
        "h geo 1.618033988749895\n"
    )
    assert run(["classify", "--generators", gens]) == 0
    assert "FixesBoundaryPoint" in capsys.readouterr().out


def test_classify_rotation(tmp_path, capsys):
    gens = tmp_path / "rot.gens"
    gens.write_text("r rot 1\n")
    assert run(["classify", "--generators", gens]) == 0
    assert "RotationLike" in capsys.readouterr().out


def test_classify_parse_error_names_the_line(tmp_path, capsys):
    gens = tmp_path / "bad.gens"
    gens.write_text("# fine so far\nT u 1\nS spin 2\n")
    assert run(["classify", "--generators", gens]) == 2
    err = capsys.readouterr().err
    assert ":3:" in err
    assert "spin" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.05"])
@pytest.mark.parametrize("from_config", [False, True])
def test_classify_refuses_a_tol_not_finite_and_positive(
    tmp_path, capsys, tol, from_config
):
    # `gap > nan` is false, so a nan tolerance would call any group dense
    gens = tmp_path / "modular.gens"
    gens.write_text("T u 1\nS rot 1.5707963267948966\n")
    argv = ["classify", "--generators", gens]
    if from_config:
        config = tmp_path / "run.conf"
        config.write_text("tol = %s\n" % tol)
        argv += ["--config", config]
    else:
        argv += ["--tol", tol]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "--tol must be a finite number > 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("radius", ["0", "-1"])
@pytest.mark.parametrize("from_config", [False, True])
def test_classify_refuses_a_radius_below_one(tmp_path, capsys, radius,
                                             from_config):
    # ball(0) holds the identity alone, so radius 0 would call any group
    # discrete (gap=inf); a negative one failed the run with exit 1
    gens = tmp_path / "modular.gens"
    gens.write_text("T u 1\nS rot 1.5707963267948966\n")
    argv = ["classify", "--generators", gens]
    if from_config:
        config = tmp_path / "run.conf"
        config.write_text("radius = %s\n" % radius)
        argv += ["--config", config]
    else:
        argv += ["--radius", radius]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "--radius must be an integer from 1 to 6, got %s" % radius in captured.err
    assert captured.out == ""


def test_classify_takes_radius_one(tmp_path, capsys):
    gens = tmp_path / "modular.gens"
    gens.write_text("T u 1\nS rot 1.5707963267948966\n")
    assert run(["classify", "--generators", gens, "--radius", "1"]) == 0
    assert "semi-parabolic words in ball(1):" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["M mat 1 0 0 inf", "T u nan", "B b 1 -inf"])
def test_classify_refuses_non_finite_generator_numbers(tmp_path, capsys, line):
    gens = tmp_path / "odd.gens"
    gens.write_text("S rot 1.5707963267948966\n%s\n" % line)
    assert run(["classify", "--generators", gens]) == 2
    err = capsys.readouterr().err
    assert "%s:2: numbers must be finite" % gens in err


# -- check ---------------------------------------------------------------------


def test_check_named_suites_pass(capsys):
    # the cheap suites only; `check all` is covered by the acceptance tests
    assert run(["check", "keylemma"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert run(["check", "t3a"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_check_unknown_suite(capsys):
    assert run(["check", "nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_check_passes_a_criterions_key_error_on(monkeypatch):
    # only an unknown suite name is a usage error
    def stub():
        raise KeyError("inside the criterion")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (stub,) * 10)
    with pytest.raises(KeyError, match="inside the criterion"):
        main(["check", "steering"])


# -- entry point ---------------------------------------------------------------


def test_module_entry_point_subprocess(tmp_path):
    # The child runs in tmp_path, where a relative PYTHONPATH (such as
    # PYTHONPATH=src) no longer resolves, so put the directory holding the
    # package this process imported first on its path.  Everything else in
    # the environment, HOROFLOW_PURE included, passes through unchanged.
    package_root = str(Path(horoflow.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    argv = ["flow", "--model", "modular", "--flow", "u", "--steps", "10"]
    out = tmp_path / "orbit.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "horoflow.cli"] + argv + ["--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert out.exists()
    # the child ran the code under test: its orbit parses and matches the
    # bytes that in-process main writes for the same argv
    _, _, rows = read_orbit_csv(out)
    assert len(rows) == 11
    expected = tmp_path / "in_process.csv"
    assert run(argv + ["--out", expected]) == 0
    assert out.read_bytes() == expected.read_bytes()


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
