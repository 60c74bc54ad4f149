"""Shared fixtures: the C orbit kernel compiled from source for the tests."""

import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from horoflow import _kernels

NATIVE_SOURCE = Path(_kernels.__file__).with_name("_native.c")


@pytest.fixture(scope="session")
def native_or_none(tmp_path_factory):
    """The C kernel built from _native.c, or None when no C compiler exists.

    It is compiled and linked the way setuptools builds extensions for this
    interpreter, into a temporary directory, and loaded from there without
    touching the backend horoflow._kernels chose.  A failed build is a test
    error, not a skip.
    """
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    if shutil.which(link[0]) is None:
        return None
    out = tmp_path_factory.mktemp("native") / (
        "_native" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    flags = shlex.split(sysconfig.get_config_var("CFLAGS") or "")
    flags += shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    build = subprocess.run(
        [*link, *flags, "-I" + sysconfig.get_paths()["include"],
         str(NATIVE_SOURCE), "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("horoflow._kernels._native", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def native(native_or_none):
    """The compiled kernel; skips the test only when no C compiler exists."""
    if native_or_none is None:
        pytest.skip("no C compiler to build _native.c")
    return native_or_none
