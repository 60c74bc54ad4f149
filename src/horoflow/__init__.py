"""Simulation and verification toolkit for unipotent (U-), geodesic (D-) and
triangular (B-) flows on foliated homogeneous quotients: cocompact and modular
surface groups, torus-bundle solvmanifolds, and products with transverse
holonomy."""

from horoflow.acceptance import run_suite
from horoflow.diagnostics import (
    BinningSpec,
    DensityReport,
    coverage,
    duality_project,
    fiber_variation,
    kset_distance,
    minimal_set_residual,
)
from horoflow.flows import (
    BorelB,
    DualBoundaryIterate,
    GeodesicD,
    HorocycleU,
    OrbitSegment,
    Sol3U,
    boundary_grid,
    integrate_orbit,
    keylemma_converge,
)
from horoflow.groups import (
    GeneratedGroup,
    ProjectionClass,
    classify_psl_projection,
    detect_semi_parabolic,
    word_ball,
)
from horoflow.models import (
    ModularModel,
    OctagonModel,
    ProductModel,
    QuotientPoint,
    TorusBundleModel,
    build_model,
    build_modular,
    build_octagon,
    build_product,
    build_t3a,
    minimal_set_distance,
)
from horoflow.moebius import (
    BoundaryPoint,
    ElementClass,
    HalfPlanePoint,
    MoebiusElement,
    PlanePoint,
    TangentFrame,
    classify_element,
    fixed_points,
    frame_to_tangent,
    hyp_dist,
    steer_to_diagonal,
    tangent_to_frame,
)
from horoflow.orbitio import (
    read_orbit_csv,
    write_density_json,
    write_orbit_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BinningSpec",
    "BorelB",
    "BoundaryPoint",
    "DensityReport",
    "DualBoundaryIterate",
    "ElementClass",
    "GeneratedGroup",
    "GeodesicD",
    "HalfPlanePoint",
    "HorocycleU",
    "MoebiusElement",
    "ModularModel",
    "OctagonModel",
    "OrbitSegment",
    "PlanePoint",
    "ProductModel",
    "ProjectionClass",
    "QuotientPoint",
    "Sol3U",
    "TangentFrame",
    "TorusBundleModel",
    "boundary_grid",
    "build_model",
    "build_modular",
    "build_octagon",
    "build_product",
    "build_t3a",
    "classify_element",
    "classify_psl_projection",
    "coverage",
    "detect_semi_parabolic",
    "duality_project",
    "fiber_variation",
    "fixed_points",
    "frame_to_tangent",
    "hyp_dist",
    "integrate_orbit",
    "keylemma_converge",
    "kset_distance",
    "minimal_set_distance",
    "minimal_set_residual",
    "read_orbit_csv",
    "run_suite",
    "steer_to_diagonal",
    "tangent_to_frame",
    "word_ball",
    "write_density_json",
    "write_orbit_csv",
    "__version__",
]
