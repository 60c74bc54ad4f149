"""End-to-end checks for the command line front end.

Most tests drive ``main`` in process and inspect exit codes, written files,
and captured output.  One subprocess test exercises the real ``-m`` entry
point so the module guard and console wiring stay honest.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import horoflow
from horoflow import _kernels, cli, models
from horoflow._kernels import _pure
from horoflow.cli import main
from horoflow.flows import DualBoundaryIterate, GeodesicD, HorocycleU, Sol3U
from horoflow.orbitio import read_orbit_csv


def run(argv):
    return main([str(a) for a in argv])


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
    assert code == 1
    assert "run failed" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["pure", "native"])
def test_flow_cusp_division_by_zero_is_a_run_failure(
    kernel, tmp_path, capsys, monkeypatch, native_or_none
):
    # A modular geodesic climbs the cusp until c^2 + d^2 underflows to 0;
    # both kernels then raise Python's ZeroDivisionError, which the CLI
    # reports as a failed run without a traceback.
    if kernel == "native" and native_or_none is None:
        pytest.skip("no C compiler to build _native.c")
    module = _pure if kernel == "pure" else native_or_none
    monkeypatch.setattr(_kernels, "modular_orbit", module.modular_orbit)
    code = run(["flow", "--model", "modular", "--flow", "geo", "--dt", 0.1,
                "--steps", 10000, "--out", tmp_path / "x.csv"])
    assert code == 1
    assert capsys.readouterr().err == "run failed: float division by zero\n"
    assert not (tmp_path / "x.csv").exists()


def test_flow_unknown_model_and_flow(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["flow", "--model", "klein", "--flow", "u",
                "--steps", 1, "--out", out]) == 2
    assert "unknown model" in capsys.readouterr().err
    assert run(["flow", "--model", "modular", "--flow", "warp",
                "--steps", 1, "--out", out]) == 2
    assert "unknown flow" in capsys.readouterr().err


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
    assert run(base + ["--bins", "four four"]) == 2
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
