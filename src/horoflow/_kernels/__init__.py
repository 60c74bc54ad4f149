"""Orbit kernel backend selection.

The compiled backend is the extension module that _build compiles from
_native.c into __pycache__ on the first import of this package, and loads
from there afterwards; a built extension beside the source is never
loaded.  Setting HOROFLOW_PURE=1 in the environment forces the
pure-Python backend, which is imported only then or as the fallback, when
no compiler, cache directory or source serves.
ORIGIN says where the kernel came from: the extension's file, or why the
pure backend was taken; `python -m horoflow._kernels` prints it.
Both expose the same functions with the same floating point behavior, so
the choice only affects speed.  Each orbit kernel returns its samples as
one flat array('d') of exactly (steps // |sample_every| + 1) rows, one row
when steps <= 0, with the final state beside it.  Row 0 is left +0.0 for
the caller, which writes the reduced start there in place; the samples
follow it.  A last argument, first_step, only shifts the step index an
error names, so that an orbit integrated in consecutive calls
(flows.orbit_chunks) fails with the message of one whole-run call.
csv_rows and bin_cells read such a buffer in place.  boundary_residual
and boundary_track are the group-side loops of criteria 5 and 1.
"""

import os

# Renormalisation interval and transverse kinds, shared with _native.c.
RENORM_EVERY = 64
TRANS_NONE = 0
TRANS_BOUNDARY = 1
TRANS_ROTATION = 2

if os.environ.get("HOROFLOW_PURE") == "1":
    _impl, ORIGIN = None, "HOROFLOW_PURE=1"
else:
    from horoflow._kernels._build import load_native

    _impl, ORIGIN = load_native()
BACKEND = "native"
if _impl is None:
    from horoflow._kernels import _pure as _impl

    BACKEND = "pure"

surface_orbit = _impl.surface_orbit
modular_orbit = _impl.modular_orbit
t3a_orbit = _impl.t3a_orbit
csv_rows = _impl.csv_rows
bin_cells = _impl.bin_cells
boundary_residual = _impl.boundary_residual
boundary_track = _impl.boundary_track

__all__ = [
    "BACKEND",
    "ORIGIN",
    "RENORM_EVERY",
    "TRANS_BOUNDARY",
    "TRANS_NONE",
    "TRANS_ROTATION",
    "bin_cells",
    "boundary_residual",
    "boundary_track",
    "csv_rows",
    "modular_orbit",
    "surface_orbit",
    "t3a_orbit",
]
