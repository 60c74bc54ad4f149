"""tools/grid.py's command lines agree with the CLI they drive.

The grid itself runs in CI, in fresh interpreters on both backends; these
checks run none of it.  They catch a CLI change that would break the grid
between CI runs: each grid line must parse and lie inside every option's
domain, each line the grid expects refused must parse, so that horoflow's
own checks refuse it, and the grid must run every model and flow.
"""

import importlib.util
import os
import shlex
from pathlib import Path

import pytest

from horoflow import cli, models

GRID_PATH = Path(__file__).resolve().parents[1] / "tools" / "grid.py"
spec = importlib.util.spec_from_file_location("grid", GRID_PATH)
grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(grid)


def parse(line):
    return cli.build_parser().parse_args(shlex.split(line))


@pytest.mark.parametrize("line", grid.commands() + grid.DEV_NULL + ["check all"])
def test_each_grid_line_parses_inside_every_domain(line):
    args = parse(line)
    cli._merge_config(args)
    cli._check_domains(args)


@pytest.mark.parametrize("line", grid.REFUSED)
def test_each_line_the_grid_expects_refused_parses(line):
    parse(line)


def test_the_grid_runs_every_model_flow_and_subcommand():
    parsed = [parse(line) for line in grid.commands()]
    orbits = [args for args in parsed if args.command in ("flow", "density")]
    assert {args.model for args in orbits} == set(models.MODEL_NAMES)
    assert {args.flow for args in orbits} == set(cli.FLOW_NAMES)
    # check all runs in grid.CHECK, on three CPU sets
    assert {args.command for args in parsed} == set(cli.COMMANDS) - {"check"}


def test_each_grid_file_has_its_own_name_in_the_grid_directory():
    outs = [parse(line).out for line in grid.commands() if line != grid.CLASSIFY]
    assert len(set(outs)) == len(outs)
    assert all(os.path.basename(out) == out for out in outs)
