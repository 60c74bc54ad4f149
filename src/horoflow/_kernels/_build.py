"""The C kernel compiled on first import into the package's __pycache__.

horoflow._kernels comes here when it is imported, unless HOROFLOW_PURE
is 1; this is the only way it reaches the C kernel.
The file compiled is named for the exact bytes of _native.c and for this
interpreter's first extension suffix, so that an edited source or another
interpreter builds its own, and later imports load it without a compiler.
It is written under a temporary name and moved into place, so that imports
started side by side each load a whole file; the builds and failure
records of older sources for the same suffix are then removed.

A compile that fails is recorded beside the file it would have made, as
the reason in one line, and later imports take the pure backend at once
until _native.c changes or the record is removed: a host with a broken
compiler pays one failed compile per source, not one per command.  A
missing compiler and a cache directory that cannot be written cost no
compile and are not recorded, so that a later import that has a compiler,
or may write, builds.
subprocess, sysconfig and the other modules a compile needs are imported
only when there is no file to load, so an import that finds the file loads no more than it.
"""

import _imp
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "_native.c")
CACHE = os.path.join(HERE, "__pycache__")
NAME = "horoflow._kernels._native"
NO_COMPILER = "no compiler on PATH"


def load_native():
    """The C kernel, compiled into CACHE first if need be, and where it came
    from: (module, its file), or (None, why the pure backend is taken)."""
    try:
        with open(SOURCE, "rb") as source:
            # the fixed-key SipHash behind importlib.util.source_hash, the
            # same in every process, without importing hashlib
            key = _imp.source_hash(0, source.read()).hex()
    except OSError:
        return None, "no _native.c"
    path = os.path.join(CACHE, "_native.%s%s" % (key, EXTENSION_SUFFIXES[0]))
    if not os.path.exists(path):
        failed = path + ".failed"
        try:
            with open(failed) as record:
                return None, "%s (recorded in %s)" % (record.read(), failed)
        except OSError:
            pass
        reason = _build(path)
        if reason is not None:
            return None, reason
    try:
        return _load(path), path
    except ImportError as exc:
        return None, "load failed: %s" % exc


def _build(path):
    """Compile SOURCE to `path`, or record beside it why the compile
    failed; returns None or the reason."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        os.makedirs(CACHE, exist_ok=True)
        open(tmp, "wb").close()
    except OSError as exc:
        return "cache directory not writable: %s" % exc
    reason = None
    try:
        reason = compile_native(tmp)
        if reason is None:
            os.replace(tmp, path)
            _remove_other_builds(path)
        elif reason != NO_COMPILER:
            with open(tmp, "w") as record:
                record.write(reason)
            os.replace(tmp, path + ".failed")
    except OSError as exc:
        reason = reason or "cache directory not writable: %s" % exc
    finally:
        # gone when moved into place; else left by a failure or an interrupt
        try:
            os.unlink(tmp)
        except OSError:
            pass
    return reason


def _remove_other_builds(path):
    """Remove the builds of other sources for this interpreter, and their
    failure records, from CACHE: all but `path` and other interpreters'."""
    suffix = EXTENSION_SUFFIXES[0]
    try:
        names = os.listdir(CACHE)
    except OSError:
        return
    for name in names:
        other = os.path.join(CACHE, name)
        if (name.startswith("_native.") and other != path
                and name.endswith((suffix, suffix + ".failed"))):
            try:
                os.unlink(other)
            except OSError:
                pass


def compile_native(out):
    """Compile and link _native.c into the extension file `out` as
    setuptools builds extensions for this interpreter: its LDSHARED, CFLAGS
    and CCSHARED, and its include directory.  Returns None, or why it could
    not: NO_COMPILER, or the compiler's last line of stderr."""
    import shlex
    import shutil
    import subprocess
    import sysconfig

    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    if shutil.which(link[0]) is None:
        return NO_COMPILER
    flags = shlex.split(sysconfig.get_config_var("CFLAGS") or "")
    flags += shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    try:
        build = subprocess.run(
            [*link, *flags, "-I" + sysconfig.get_paths()["include"], SOURCE,
             "-o", out],
            capture_output=True, text=True, errors="replace",
        )
    except OSError as exc:
        return "compile failed: %s" % exc
    if build.returncode == 0:
        return None
    lines = build.stderr.strip().splitlines() or [
        "exit status %d" % build.returncode]
    return "compile failed: %s" % lines[-1]


def _load(path):
    """The extension module in `path`, entered in sys.modules as the
    package's _native, so that `from horoflow._kernels import _native`
    finds it."""
    loader = ExtensionFileLoader(NAME, path)
    spec = ModuleSpec(NAME, loader, origin=path)
    module = loader.create_module(spec)
    # the attributes importlib.util.module_from_spec would set
    module.__spec__, module.__loader__, module.__file__ = spec, loader, path
    loader.exec_module(module)
    sys.modules[NAME] = module
    return module
