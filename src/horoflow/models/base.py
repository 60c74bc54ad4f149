"""Shared plumbing for the concrete quotient models."""

from __future__ import annotations

from dataclasses import dataclass

from horoflow.moebius import MoebiusElement


# One kernel step by the identity only reduces; a model without a
# transverse factor hands the kernel the zero transverse state.
IDENTITY_STEP = (1.0, 0.0, 0.0, 1.0)
NO_TRANSVERSE = (0.0, 0.0, 0.0, 0.0)


@dataclass
class QuotientPoint:
    """A point of a quotient model in canonical coordinates.

    For the torus bundle the coordinates are (x, y, t) in [0,1)^3 and the
    frame is absent.  For surface models the frame is the reduced
    representative (base point in the fundamental domain) and `transverse`
    carries the fibre element of a product model, if any.  `coords` always
    holds the flat float coordinates used for CSV emission.
    """

    model: str
    coords: tuple
    frame: MoebiusElement | None = None
    transverse: object = None

    def __iter__(self):
        return iter(self.coords)


class ReductionError(RuntimeError):
    """The modular descent hit its iteration cap; carries how far it got."""

    def __init__(self, message, iterations):
        super().__init__(message)
        self.iterations = iterations
