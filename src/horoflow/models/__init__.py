"""Concrete quotient models and the registry the CLI builds them through.

Descriptor names: `t3a` (integer matrix via the A parameter), `octagon`,
`octagon_so3` (seeded rotation holonomy), `octagon_boundary` (diagonal
boundary holonomy), `modular`.
"""

from __future__ import annotations

from horoflow.groups import BOUNDARY_CIRCLE, ROTATIONS3
from horoflow.models.base import QuotientPoint, ReductionError
from horoflow.models.modular import ModularModel, build_modular, modular_reduce
from horoflow.models.octagon import OctagonModel, build_octagon
from horoflow.models.product import (
    ProductModel,
    build_product,
    minimal_set_distance,
    random_unit_quaternion,
    seeded_rotation_holonomy,
)
from horoflow.models.t3a import (
    TorusBundleModel,
    b_affine_params,
    build_t3a,
    check_irrational_slope,
    sol3_b_embed,
    sol3_mul,
)

DEFAULT_A = ((2, 1), (1, 1))
MODEL_NAMES = ("modular", "octagon", "octagon_boundary", "octagon_so3", "t3a")


def build_model(name, a_mat=None, seed=None):
    """Build a model from its descriptor name.

    `a_mat` applies to t3a only (defaults to ((2,1),(1,1))); `seed` applies
    to octagon_so3 only (defaults to 7).
    """
    if name == "t3a":
        return build_t3a(a_mat if a_mat is not None else DEFAULT_A)
    if name == "octagon":
        return build_octagon()
    if name == "octagon_so3":
        return build_product(
            build_octagon(), ROTATIONS3, seed=7 if seed is None else seed
        )
    if name == "octagon_boundary":
        return build_product(build_octagon(), BOUNDARY_CIRCLE)
    if name == "modular":
        return build_modular()
    raise ValueError(
        "unknown model %r; known: %s" % (name, ", ".join(MODEL_NAMES))
    )


__all__ = [
    "DEFAULT_A",
    "MODEL_NAMES",
    "ModularModel",
    "OctagonModel",
    "ProductModel",
    "QuotientPoint",
    "ReductionError",
    "TorusBundleModel",
    "b_affine_params",
    "build_model",
    "build_modular",
    "build_octagon",
    "build_product",
    "build_t3a",
    "check_irrational_slope",
    "minimal_set_distance",
    "modular_reduce",
    "random_unit_quaternion",
    "seeded_rotation_holonomy",
    "sol3_b_embed",
    "sol3_mul",
]
