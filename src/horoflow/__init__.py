"""Simulation and verification toolkit for unipotent (U-), geodesic (D-) and
triangular (B-) flows on foliated homogeneous quotients: cocompact and modular
surface groups, torus-bundle solvmanifolds, and products with transverse
holonomy.

The names below resolve on first use: `import horoflow` loads no submodule,
and reading `horoflow.coverage` imports `horoflow.diagnostics` then.  A
command line run thus imports only the modules its command needs."""

import importlib

__version__ = "0.1.0"

# Each exported name under the module that defines it.
_HOMES = {
    "acceptance": ("run_suite",),
    "diagnostics": (
        "BinningSpec",
        "DensityReport",
        "coverage",
        "duality_project",
        "fiber_variation",
        "kset_distance",
        "minimal_set_residual",
    ),
    "flows": (
        "BorelB",
        "DualBoundaryIterate",
        "GeodesicD",
        "HorocycleU",
        "OrbitSegment",
        "Sol3U",
        "integrate_orbit",
    ),
    "groups": (
        "GeneratedGroup",
        "ProjectionClass",
        "classify_psl_projection",
        "detect_semi_parabolic",
        "word_ball",
    ),
    "keylemma": ("boundary_grid", "keylemma_converge"),
    "models": (
        "ModularModel",
        "OctagonModel",
        "ProductModel",
        "QuotientPoint",
        "TorusBundleModel",
        "build_model",
        "build_modular",
        "build_octagon",
        "build_product",
        "build_t3a",
        "minimal_set_distance",
    ),
    "moebius": (
        "BoundaryPoint",
        "ElementClass",
        "HalfPlanePoint",
        "MoebiusElement",
        "TangentFrame",
        "classify_element",
        "fixed_points",
        "frame_to_tangent",
        "hyp_dist",
        "steer_to_diagonal",
        "tangent_to_frame",
    ),
    "orbitio": ("read_orbit_csv", "write_density_json", "write_orbit_csv"),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*sorted(_HOME_OF), "__version__"]


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("horoflow." + module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME_OF})
