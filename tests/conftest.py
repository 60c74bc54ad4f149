"""Shared fixtures: the C orbit kernel compiled from source for the tests,
and a copy of the package that has none built."""

import importlib.util
import shutil
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

import horoflow
from horoflow._kernels import _build


@pytest.fixture(scope="session")
def native_or_none(tmp_path_factory):
    """The C kernel built from _native.c, or None when no C compiler exists.

    It is compiled by the package's own recipe, _build.compile_native, into
    a temporary directory, and loaded from there without touching the
    backend horoflow._kernels chose.  A failed build is a test error, not a
    skip.
    """
    out = tmp_path_factory.mktemp("native") / ("_native" + EXTENSION_SUFFIXES[0])
    reason = _build.compile_native(str(out))
    if reason == _build.NO_COMPILER:
        return None
    assert reason is None, reason
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


@pytest.fixture
def unbuilt_checkout(tmp_path):
    """A directory holding a copy of the horoflow package with no
    __pycache__, as a fresh source checkout has it."""
    shutil.copytree(Path(horoflow.__file__).parent, tmp_path / "horoflow",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path
