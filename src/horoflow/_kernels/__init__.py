"""Orbit kernel backend selection.

The compiled backend is picked up when the extension module built from
_native.c is importable; setting HOROFLOW_PURE=1 in the environment forces
the pure-Python backend.  Both expose the same three functions with the same
floating point behavior, so the choice only affects speed.  Each returns its
samples as one flat array('d') of exactly (steps // |sample_every| + 1)
rows, one row when steps <= 0, with the final state beside it.  Row 0 is
left +0.0 for the caller, which writes the reduced start there in place;
the samples follow it.  The orbit's buffer is thus allocated once and never
copied: the 200k-row octagon density child of the dense-octagon benchmark
peaks at 21.6 MiB of RSS, where joining the start row in front by a copy
took 25.8 MiB.
"""

import os

from horoflow._kernels import _pure
from horoflow._kernels._pure import TRANS_BOUNDARY, TRANS_NONE, TRANS_ROTATION

if os.environ.get("HOROFLOW_PURE") == "1":
    _impl = _pure
    BACKEND = "pure"
else:
    try:
        from horoflow._kernels import _native as _impl

        BACKEND = "native"
    except ImportError:
        _impl = _pure
        BACKEND = "pure"

surface_orbit = _impl.surface_orbit
modular_orbit = _impl.modular_orbit
t3a_orbit = _impl.t3a_orbit

__all__ = [
    "BACKEND",
    "TRANS_BOUNDARY",
    "TRANS_NONE",
    "TRANS_ROTATION",
    "modular_orbit",
    "surface_orbit",
    "t3a_orbit",
]
