"""Value semantics of the package's record classes.

The reprs, equality, hashing and validation messages below are those the
classes had as `@dataclass` classes; every string was printed by that
version.  The frozen kinds refuse assignment; the mutable ones are
unhashable.
"""

import math

import pytest

from horoflow.acceptance import CriterionResult
from horoflow.diagnostics import BinningSpec, DensityReport
from horoflow.flows import BorelB, DualBoundaryIterate, GeodesicD, HorocycleU, Sol3U
from horoflow.groups import ProjectionClass, ProjectionReport, WordBall
from horoflow.models import build_t3a
from horoflow.models.base import QuotientPoint
from horoflow.moebius import BoundaryPoint, MoebiusElement

# BoundaryPoint compares by identity, so equal records share these.
INFINITY = BoundaryPoint.infinity()
IDENTITY = MoebiusElement.identity()


def frozen_examples():
    return [
        HorocycleU(0.01),
        GeodesicD(-0.5),
        BorelB(0.01, 0.0),
        Sol3U(1),
        DualBoundaryIterate(),
        BinningSpec(((0.0, 1.0), (-2.5, 3.0)), (4, 5)),
        DensityReport("octagon", "HorocycleU(0.01)", 10, None, ((0.0, 1.0),),
                      (4,), 3, 4, 0.75, 11),
    ]


def mutable_examples():
    return [
        WordBall(1, [((), 1)]),
        ProjectionReport(ProjectionClass.DISCRETE_CANDIDATE, gap=0.5),
        ProjectionReport(ProjectionClass.FIXES_BOUNDARY_POINT,
                         boundary_point=INFINITY),
        QuotientPoint("t3a", (0.25, 0.5, 0.75)),
        QuotientPoint("octagon", (0.0, 1.0, 0.0), frame=IDENTITY),
        build_t3a(((2, 1), (1, 1))),
        CriterionResult(3, "name", True, 0.5, 10.0),
        CriterionResult(3, "name", True, 0.5, 10.0, {"a": 1.5}),
    ]


EXPECTED_REPRS = [
    "HorocycleU(time_step=0.01)",
    "GeodesicD(time_step=-0.5)",
    "BorelB(alpha_step=0.01, beta_step=0.0)",
    "Sol3U(beta_step=1)",
    "DualBoundaryIterate()",
    "BinningSpec(ranges=((0.0, 1.0), (-2.5, 3.0)), counts=(4, 5))",
    "DensityReport(model='octagon', flow='HorocycleU(0.01)', steps=10, "
    "seed=None, ranges=((0.0, 1.0),), bins=(4,), visited=3, total=4, "
    "fraction=0.75, samples=11)",
    "WordBall(radius=1, elements=[((), 1)])",
    "ProjectionReport(label=<ProjectionClass.DISCRETE_CANDIDATE: "
    "'DiscreteCandidate'>, gap=0.5, boundary_point=None, interior_point=None)",
    "ProjectionReport(label=<ProjectionClass.FIXES_BOUNDARY_POINT: "
    "'FixesBoundaryPoint'>, gap=None, boundary_point=BoundaryPoint(inf), "
    "interior_point=None)",
    "QuotientPoint(model='t3a', coords=(0.25, 0.5, 0.75), frame=None, "
    "transverse=None)",
    "QuotientPoint(model='octagon', coords=(0.0, 1.0, 0.0), "
    "frame=MoebiusElement(1, 0, 0, 1), transverse=None)",
    "TorusBundleModel(a_mat=((2, 1), (1, 1)), lam=2.618033988749895, "
    "a_prime=-0.7236067977499789, b_prime=-0.6180339887498949, "
    "c_prime=-0.4472135954999579, d_prime=1.0, name='t3a', "
    "log_lam=0.9624236501192069)",
    "CriterionResult(number=3, name='name', passed=True, elapsed=0.5, "
    "budget=10.0, details={})",
    "CriterionResult(number=3, name='name', passed=True, elapsed=0.5, "
    "budget=10.0, details={'a': 1.5})",
]


def test_reprs_are_unchanged():
    examples = frozen_examples() + mutable_examples()
    assert [repr(x) for x in examples] == EXPECTED_REPRS


def test_equality_is_by_class_and_value():
    for a, b in zip(frozen_examples() + mutable_examples(),
                    frozen_examples() + mutable_examples()):
        assert a is not b
        assert a == b and not a != b
    assert HorocycleU(0.01) != HorocycleU(0.02)
    assert HorocycleU(0.01) != GeodesicD(0.01)
    assert HorocycleU(0.01) != (0.01,)
    assert DualBoundaryIterate() != ()
    assert QuotientPoint("t3a", (0.0,)) != QuotientPoint("t3a", (0.0,), transverse=1)
    # the derived log_lam takes part, as every field does
    model = build_t3a(((2, 1), (1, 1)))
    other = build_t3a(((2, 1), (1, 1)))
    other.log_lam = 1.0
    assert model != other


def test_frozen_records_hash_by_value():
    for a, b in zip(frozen_examples(), frozen_examples()):
        assert hash(a) == hash(b)
    assert hash(HorocycleU(0.01)) == hash((0.01,))
    assert hash(DualBoundaryIterate()) == hash(())
    assert len({HorocycleU(0.01), HorocycleU(0.01), GeodesicD(0.01)}) == 2


def test_mutable_records_are_unhashable():
    for record in mutable_examples():
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def test_frozen_records_refuse_assignment():
    for record in frozen_examples():
        fields = list(vars(record))
        for name in (*fields, "other"):
            with pytest.raises(AttributeError, match="cannot assign to field %r" % name):
                setattr(record, name, 1)
        for name in fields:
            with pytest.raises(AttributeError, match="cannot delete field %r" % name):
                delattr(record, name)
    flow = HorocycleU(0.01)
    with pytest.raises(AttributeError):
        flow.time_step = 0.5
    assert flow.time_step == 0.01
    assert not hasattr(flow, "other")


def test_mutable_records_take_assignment():
    point = QuotientPoint("t3a", (0.25, 0.5, 0.75))
    point.coords = (0.0, 0.0, 0.0)
    assert point == QuotientPoint("t3a", (0.0, 0.0, 0.0))


def test_criterion_details_are_a_fresh_dict_each():
    a = CriterionResult(1, "a", True, 0.0, 1.0)
    b = CriterionResult(1, "a", True, 0.0, 1.0)
    a.details["x"] = 1.0
    assert b.details == {}
    details = {"y": 2.0}
    assert CriterionResult(1, "a", True, 0.0, 1.0, details).details is details


def test_keyword_construction_and_defaults():
    assert BorelB(beta_step=0.5, alpha_step=0.0) == BorelB(0.0, 0.5)
    assert ProjectionReport(ProjectionClass.DENSE_CANDIDATE).gap is None
    model = build_t3a(((2, 1), (1, 1)))
    assert model.name == "t3a"
    assert model.log_lam == math.log(model.lam)


@pytest.mark.parametrize("make, error, message", [
    (lambda: HorocycleU(0.0), ValueError, "time_step must be nonzero"),
    (lambda: HorocycleU(math.nan), ValueError, "time_step must be finite"),
    (lambda: GeodesicD(0), ValueError, "time_step must be nonzero"),
    (lambda: GeodesicD(math.inf), ValueError, "time_step must be finite"),
    (lambda: BorelB(0.0, 0.0), ValueError,
     "alpha_step and beta_step cannot both be zero"),
    (lambda: BorelB(math.nan, 1.0), ValueError, "alpha_step must be finite"),
    (lambda: BorelB(1.0, math.inf), ValueError, "beta_step must be finite"),
    (lambda: Sol3U(0.0), ValueError, "beta_step must be nonzero"),
    (lambda: Sol3U(-math.inf), ValueError, "beta_step must be finite"),
    (lambda: HorocycleU("x"), TypeError, "must be real number, not str"),
    (lambda: BinningSpec((), ()), ValueError, "binning needs at least one axis"),
    (lambda: BinningSpec(((0, 1),), (1, 2)), ValueError, "1 ranges but 2 counts"),
    (lambda: BinningSpec(((1, 0),), (2,)), ValueError, "bad range (1, 0)"),
    (lambda: BinningSpec(((0, 1),), (0,)), ValueError,
     "cell counts must be positive integers"),
    (lambda: BinningSpec(((0, 1),), (2.0,)), ValueError,
     "cell counts must be positive integers"),
    (lambda: BinningSpec(((-1e308, 1e308),), (2,)), ValueError,
     "bad range (-1e+308, 1e+308)"),
])
def test_validation_messages_are_unchanged(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message
