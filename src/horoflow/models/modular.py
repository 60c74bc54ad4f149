"""The modular surface: quotient by the group generated by z -> z + 1 and
z -> -1/z.

In contrast to the octagon surface this quotient is not compact; geodesics
can run up the cusp, which is exactly the divergence the escape diagnostics
look for.  The fundamental domain is the classical strip |Re z| <= 1/2 cut
below by the unit circle.

Frames are reduced in Python: the modular kernel differs in the last bits,
as its inversion has an exact 0 where S = rot(pi/2) has cos(pi/2) = 6.1e-17,
and it tests |z|^2 < 1 - 1e-12 where the descent tests |z| < 1 - 1e-12.
reduce_frame is the model's one Python descent.
"""

from __future__ import annotations

import math

from horoflow import _kernels
from horoflow.models.base import NO_TRANSVERSE, SurfaceModel
from horoflow.moebius import MoebiusElement

REDUCE_CAP = 10_000
_BOUNDARY_SLACK = 1e-12


class ModularModel(SurfaceModel):
    """PSL(2, Z) with the standard fundamental domain."""

    name = "modular"
    # the letters whose holonomy images a product hands the kernel: T, S
    kernel_letters = (0, 2)

    def __init__(self):
        self.gen_t = MoebiusElement.u(1.0)
        self.gen_s = MoebiusElement.rot(0.5 * math.pi)
        # letters: T, T inverse, S (self-inverse)
        self.letters = (self.gen_t, self.gen_t.inv(), self.gen_s)

    def letter(self, k):
        return self.letters[k]

    def letter_count(self):
        return 3

    def independent_generators(self):
        return (self.gen_t, self.gen_s)

    def letter_generator(self, k):
        """Letter k as (independent generator index, inverted)."""
        return ((0, False), (0, True), (1, False))[k]

    # -- reduction ---------------------------------------------------------

    def kernel_orbit(self, frame, step, steps, sample_every,
                     trans_state=NO_TRANSVERSE, trans_kind=_kernels.TRANS_NONE,
                     trans_quats=None, first_step=0):
        """The modular kernel; see _pure.modular_orbit."""
        return _kernels.modular_orbit(
            frame, step, trans_kind, trans_quats, trans_state, steps,
            sample_every, first_step,
        )

    def reduce_frame(self, f):
        """Reduce a frame into the fundamental domain and return it."""
        for _ in range(REDUCE_CAP):
            z = f.apply(1.0j)
            m = math.floor(z.real + 0.5)
            if m != 0:
                # left-multiply by T^-m in one go
                f = MoebiusElement.u(-float(m)).mul(f)
                z = complex(z.real - m, z.imag)
            if abs(z) < 1.0 - _BOUNDARY_SLACK:
                f = self.gen_s.mul(f)
            else:
                return f
        raise ValueError(
            "modular frame reduction did not settle within %d steps" % REDUCE_CAP
        )

    def coverage_box(self):
        """Window over the finite-area part of the domain.

        The domain runs to infinity up the cusp; statistics are collected
        over a fixed window covering the region below the height where the
        cusp neighborhood carries negligible area.
        """
        return ((-0.5, 0.5), (0.5 * math.sqrt(3.0), 3.0))


def build_modular():
    return ModularModel()
