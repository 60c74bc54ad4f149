"""README agrees with the code: its tables, its commands and its example."""

import ast
import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from horoflow import acceptance, cli, models
from horoflow.diagnostics import DensityReport

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
TESTS = Path(__file__).resolve().parent


def section(title):
    """The text under the `## title` heading, up to the next one."""
    match = re.search(r"^## %s\n(.*?)(?=^## |\Z)" % re.escape(title), README,
                      re.M | re.S)
    assert match, "README has no section %r" % title
    return match.group(1)


def table(title):
    """The body rows of the one table in a section, as lists of cells
    with their backticks stripped."""
    rows = [line for line in section(title).splitlines() if line.startswith("|")]
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")]
            for row in rows[2:]]


def horoflow_commands():
    """Every `horoflow ...` line of the sh blocks, continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv and argv[0] == "horoflow":
                commands.append(argv[1:])
    return commands


def test_models_table_names_every_model():
    assert tuple(row[0] for row in table("Models")) == models.MODEL_NAMES


def test_flows_table_names_every_flow():
    assert tuple(row[0] for row in table("Flows")) == cli.FLOW_NAMES


def test_criteria_table_matches_the_suite():
    rows = table("Acceptance suite")
    assert [int(row[0]) for row in rows] == list(range(1, 11))
    assert [row[1] for row in rows] == [
        c.__name__ for c in acceptance.ALL_CRITERIA]
    suites = {}
    for number, _, suite, _ in rows:
        suites.setdefault(suite, []).append(int(number))
    suites["all"] = [int(row[0]) for row in rows]
    assert {name: tuple(numbers) for name, numbers in suites.items()} == \
        acceptance.SUITES


@pytest.mark.parametrize("argv", horoflow_commands(), ids=" ".join)
def test_each_command_line_parses(argv):
    cli.build_parser().parse_args(argv)


def test_the_command_lines_cover_every_subcommand():
    assert {argv[0] for argv in horoflow_commands()} == {
        "flow", "density", "classify", "check", "plot"}


def test_the_library_example_streams_the_whole_runs_report():
    [example] = re.findall(r"```python\n(.*?)```", section("Library use"),
                           re.S)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(example, "README.md", "exec"), namespace)
    assert isinstance(namespace["whole"], DensityReport)
    assert namespace["streamed"] == namespace["whole"]
    assert out.getvalue() == "%r\n" % namespace["whole"].fraction


def test_every_named_test_exists():
    defined = set()
    for path in TESTS.glob("test_*.py"):
        defined.update(node.name for node in ast.walk(ast.parse(path.read_text()))
                       if isinstance(node, ast.FunctionDef))
    named = set(re.findall(r"`(test_\w+)`", README))
    assert named and named <= defined, named - defined


def test_every_named_constant_exists():
    # `module.NAME` or `package.module.NAME` for an upper-case NAME
    named = set(re.findall(r"`((?:_?[a-z]\w*\.)+[A-Z][A-Z_]*)`", README))
    assert named
    for dotted in named:
        module, name = dotted.rsplit(".", 1)
        assert hasattr(importlib.import_module("horoflow." + module), name), dotted
