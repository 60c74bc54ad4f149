"""What each entry point imports, the package's lazily resolved exports, and
that every definition in the package has a caller outside the tests.

The import checks run in fresh interpreters, where no other test can have
loaded a module first.  They read `sys.modules` only and time nothing.  A
check on the standard library subtracts what a bare interpreter loads, so a
host's `site` hook cannot decide it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import horoflow
from horoflow.models import MODEL_NAMES

PACKAGE_DIR = Path(horoflow.__file__).resolve().parent
PACKAGE_ROOT = str(PACKAGE_DIR.parent)
PERFBENCH_DIR = PACKAGE_DIR.parent.parent / "perfbench"

# Prints, as the last line of stdout, every module loaded so far, listed
# before the report itself imports json.
REPORT_MODULES = (
    "import sys\n"
    "_loaded = sorted(sys.modules)\n"
    "import json\n"
    "print(json.dumps(_loaded))\n"
)

# What `dataclasses` imports at its top and no command needs.
DATACLASS_MODULES = {"dataclasses", "inspect"}


def run_child(code, *argv, cwd=None):
    """Run `code` in a fresh interpreter that imports this checkout's horoflow."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(code, *argv, cwd=None):
    lines = run_child(code + REPORT_MODULES, *argv, cwd=cwd).splitlines()
    return set(json.loads(lines[-1]))


def loaded_after(code, *argv, cwd=None):
    """The horoflow submodules loaded after `code` runs."""
    return {name.split(".", 1)[1]
            for name in modules_after(code, *argv, cwd=cwd)
            if name.startswith("horoflow.")}


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a fresh interpreter holds before any code runs."""
    return modules_after("")


def setup_probe_code():
    """The benchmark's set-up probe, read from perfbench/run.py."""
    tree = ast.parse((PERFBENCH_DIR / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SETUP_PROBE"]):
            return ast.literal_eval(node.value)
    raise AssertionError("no SETUP_PROBE in perfbench/run.py")


# -- import boundary -----------------------------------------------------------


def test_import_horoflow_loads_no_submodule():
    assert loaded_after("import horoflow\n") == set()


def test_import_cli_leaves_out_the_command_modules():
    loaded = loaded_after("import horoflow.cli\n")
    assert "cli" in loaded and "models" in loaded
    assert not loaded & {"acceptance", "diagnostics", "flows", "orbitio"}


RUN_CLI = (
    "import sys\n"
    "from horoflow import cli\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
)


# Every subcommand, run from a directory that holds the files it reads.
COMMANDS = {
    "flow": ("flow", "--model", "octagon", "--flow", "u", "--steps", 10,
             "--out", "orbit.csv"),
    "density": ("density", "--model", "octagon", "--flow", "u", "--steps", 10,
                "--bins", "4 4", "--out", "density.json"),
    "check": ("check", "steering"),
    "classify": ("classify", "--generators", "modular.gens"),
    "plot": ("plot", "--in", "input.csv", "--out", "plot.svg"),
}


def command_modules(command, tmp_path, bare_modules):
    """The modules a CLI command loads beyond a bare interpreter's."""
    (tmp_path / "modular.gens").write_text("T u 1\nS rot 1.5707963267948966\n")
    (tmp_path / "input.csv").write_text("time,c1,c2\n0,0,0\n1,1,2\n")
    return modules_after(RUN_CLI, *COMMANDS[command], cwd=tmp_path) - bare_modules


def test_flow_run_leaves_out_acceptance_and_diagnostics(tmp_path, bare_modules):
    # nor json, which only the density writer uses, nor the fork helpers,
    # which only `check` uses
    loaded = command_modules("flow", tmp_path, bare_modules)
    assert {"horoflow.flows", "horoflow.orbitio"} <= loaded
    assert not loaded & {"horoflow.acceptance", "horoflow.diagnostics",
                         "horoflow.divergence", "horoflow._fork", "json"}
    assert (tmp_path / "orbit.csv").exists()


# Fails the run if it forks or moves itself to other CPUs.
NO_FORK = (
    "import os\n"
    "def _refused(*args):\n"
    "    raise AssertionError('the command forked or pinned itself')\n"
    "os.fork = os.sched_setaffinity = _refused\n"
)


@pytest.mark.parametrize("command", ["flow", "density"])
def test_a_multi_chunk_run_forks_nothing(tmp_path, bare_modules, command):
    # 5000 steps take three kernel calls, each run in this process
    argv = list(COMMANDS[command])
    argv[argv.index("--steps") + 1] = 5000
    loaded = modules_after(NO_FORK + RUN_CLI, *argv, cwd=tmp_path) - bare_modules
    assert "horoflow.flows" in loaded
    assert not loaded & {"horoflow._fork", "pickle"}
    assert (tmp_path / argv[-1]).exists()


def test_density_run_leaves_out_acceptance(tmp_path):
    loaded = loaded_after(
        RUN_CLI, "density", "--model", "octagon", "--flow", "u", "--steps", 10,
        "--bins", "4 4", "--out", "density.json", cwd=tmp_path)
    assert {"diagnostics", "flows", "orbitio"} <= loaded
    assert not loaded & {"acceptance", "divergence"}
    assert (tmp_path / "density.json").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_leave_out_dataclasses(command, tmp_path, bare_modules):
    loaded = command_modules(command, tmp_path, bare_modules)
    assert "horoflow.cli" in loaded
    assert not loaded & DATACLASS_MODULES


def test_setup_probe_leaves_out_dataclasses(bare_modules):
    loaded = modules_after(setup_probe_code(), 1, *MODEL_NAMES) - bare_modules
    assert {"horoflow.cli", "horoflow.models.t3a"} <= loaded
    assert not loaded & DATACLASS_MODULES


def test_a_cached_kernel_loads_none_of_the_compile_modules(
    native, unbuilt_checkout, bare_modules
):
    # A checkout with no built extension compiles the C kernel the first
    # time it is imported; the next command loads it from __pycache__
    # and imports nothing a compile needs: those modules cost start-up
    # time, and _hashlib maps OpenSSL into every process.
    env = dict(os.environ, PYTHONPATH=str(unbuilt_checkout))
    env.pop("HOROFLOW_PURE", None)
    run = RUN_CLI + REPORT_MODULES
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", run, *map(str, COMMANDS["flow"])],
            capture_output=True, text=True, cwd=unbuilt_checkout, env=env)
        assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1])) - bare_modules
    assert {"horoflow._kernels._build", "horoflow._kernels._native"} <= loaded
    assert not loaded & {"subprocess", "sysconfig", "shutil", "hashlib",
                         "_hashlib"}


def test_classify_run_leaves_out_the_command_modules(tmp_path):
    (tmp_path / "modular.gens").write_text("T u 1\nS rot 1.5707963267948966\n")
    loaded = loaded_after(
        RUN_CLI, "classify", "--generators", "modular.gens", cwd=tmp_path)
    assert "groups" in loaded
    assert not loaded & {"acceptance", "diagnostics", "flows", "orbitio"}


# -- lazy exports --------------------------------------------------------------


def test_each_export_is_the_home_module_object():
    assert set(horoflow.__all__) == {*horoflow._HOME_OF, "__version__"}
    for name, module in horoflow._HOME_OF.items():
        home = importlib.import_module("horoflow." + module)
        assert getattr(horoflow, name) is getattr(home, name), name
        # the first read caches the name on the package
        assert vars(horoflow)[name] is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from horoflow import *", namespace)
    assert set(horoflow.__all__) <= set(namespace)
    assert namespace["coverage"] is importlib.import_module(
        "horoflow.diagnostics").coverage
    assert namespace["__version__"] == horoflow.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        horoflow.no_such_name
    assert not hasattr(horoflow, "ALL_CRITERIA")
    with pytest.raises(ImportError):
        exec("from horoflow import no_such_name", {})


def test_dir_lists_the_exports():
    assert set(horoflow.__all__) <= set(dir(horoflow))


def test_from_horoflow_import_submodule_in_a_fresh_interpreter():
    loaded = loaded_after(
        "from horoflow import acceptance\n"
        "assert acceptance.__name__ == 'horoflow.acceptance'\n")
    assert "acceptance" in loaded


def test_check_honours_replaced_criteria_under_runpy():
    # The benchmark's CLI child replaces ALL_CRITERIA before it starts the
    # CLI module as `-m` does; `check` must look the criteria up afterwards.
    out = run_child(
        "import runpy, sys\n"
        "from horoflow import acceptance\n"
        "def stub():\n"
        "    return acceptance.CriterionResult(2, 'stub', False, 0.0, 1.0)\n"
        "acceptance.ALL_CRITERIA = (stub,) * len(acceptance.ALL_CRITERIA)\n"
        "sys.argv[1:] = ['check', 'steering']\n"
        "try:\n"
        "    runpy.run_module('horoflow.cli', run_name='__main__', "
        "alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
    )
    lines = out.splitlines()
    assert lines[0].startswith("criterion  2 stub")
    assert "FAIL" in lines[0]
    assert lines[-1] == "exit 1"


# -- no test-only code in the package -----------------------------------------


def _definitions_and_loads(tree):
    """The non-dunder defs and classes of a module, as (name, line) pairs, and
    the names it loads as a Name or an Attribute outside the definitions of
    the same name."""
    defined, loaded = [], set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.append((node.name, node.lineno))
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in enclosing:
                loaded.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return defined, loaded


def test_every_package_definition_is_reachable_outside_the_tests():
    # A name counts as reached when the package or the benchmark harness
    # loads it, or when the package exports it; a string naming it does not.
    sources = sorted(PACKAGE_DIR.rglob("*.py"))
    harness = [path for path in sorted(PERFBENCH_DIR.glob("*.py"))
               if path.name != "test_perfbench.py"]
    assert harness, "perfbench/ not found next to the package"
    defined, loaded = [], set(horoflow._HOME_OF)
    for path in sources + harness:
        names, loads = _definitions_and_loads(ast.parse(path.read_text()))
        loaded |= loads
        if path in sources:
            defined += [(path.relative_to(PACKAGE_DIR), line, name)
                        for name, line in names]
    unreached = ["%s:%d %s" % entry for entry in defined
                 if entry[2] not in loaded]
    assert not unreached, "only tests reach: " + ", ".join(unreached)
