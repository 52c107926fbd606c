"""The value-class contract: equality, hash and repr over the fields, as a
frozen dataclass gives them, on one __slots__ base."""

import pytest

from zqu.codes import BchCertificate, CanonicalGenerators, build_crt
from zqu.errors import PreconditionError
from zqu.howell import ZqSpan
from zqu.metrics import DistanceReport, WordR
from zqu.poly import RPoly, ZqPoly, factor_xn_minus_1
from zqu.ring import IdealDescriptor, RingParams, make_ring
from zqu.value import Value
from zqu.verify import CheckResult

R = make_ring(2, 2)
X1 = ZqPoly(R, (1, 1))


def samples():
    """One instance of every value class of the package."""
    word = WordR(R, ((1, 0), (0, 1)))
    return [
        R,
        IdealDescriptor("p_power_plus_alpha_u", 1, (1,)),
        ZqSpan.from_rows([[1, 2], [0, 2]], 2, 2, 2),
        X1,
        RPoly(X1, ZqPoly(R, (2,))),
        factor_xn_minus_1(3, R),
        build_crt(3, R),
        CanonicalGenerators(X1, X1, X1, 1, 1, True, True, True),
        BchCertificate(3, 0, 2, (0,)),
        word,
        DistanceReport("hamming", 2, word, True, 15, True),
        CheckResult("census", True, "ok", 0.5),
    ]


def test_samples_cover_every_value_class():
    package = {cls for cls in Value.__subclasses__() if cls.__module__.startswith("zqu.")}
    assert {type(v) for v in samples()} == package
    assert len(package) == 12


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_fields_give_equality_hash_and_repr(value):
    fields = tuple(getattr(value, name) for name in value.__slots__)
    twin = type(value).__new__(type(value))
    for name, field in zip(value.__slots__, fields):
        setattr(twin, name, field)
    assert twin == value and not twin != value
    assert hash(value) == hash(fields)  # the frozen-dataclass hash
    assert value != fields and fields != value
    assert repr(value) == f"{type(value).__name__}(" + ", ".join(
        f"{name}={field!r}" for name, field in zip(value.__slots__, fields)) + ")"
    assert not hasattr(value, "__dict__")


def test_ring_params_equality_and_hash():
    assert make_ring(2, 2) == make_ring(2, 2)
    assert make_ring(2, 2) != make_ring(2, 3)
    assert hash(make_ring(2, 2)) == hash((2, 2, 4))
    assert RingParams(p=3, s=2).q == 9


def test_no_equality_across_classes():
    # same field values, different classes
    assert ZqPoly(R, ((1, 0),)) != WordR(R, ((1, 0),))
    assert WordR(R, ((1, 0),)) != ZqPoly(R, ((1, 0),))
    assert IdealDescriptor("p_power", 0) != ("p_power", 0, None)
    assert make_ring(2, 2) != (2, 2, 4)


def test_pinned_reprs():
    assert repr(make_ring(2, 2)) == "RingParams(p=2, s=2, q=4)"
    assert repr(IdealDescriptor("p_power", 0)) == \
        "IdealDescriptor(kind='p_power', index=0, alpha=None)"
    assert repr(ZqPoly(R, (1, 3))) == \
        "ZqPoly(params=RingParams(p=2, s=2, q=4), coeffs=(1, 3))"


def test_keyword_construction():
    can = CanonicalGenerators(f0=X1, f1=ZqPoly(R, ()), g1=X1, k0=1, k1=1,
                              g1_divides_f0=True, f0_divides_xn1=True, g1_divides_xn1=True)
    assert can == CanonicalGenerators(X1, ZqPoly(R, ()), X1, 1, 1, True, True, True)
    assert can.hypotheses_ok and can.predicted_size_exponent(3, 2) == 8
    word = WordR(params=R, pairs=((1, 0),))
    report = DistanceReport(metric="lee", value=1, witness=word, exhaustive=False,
                            words_scanned=7, exact=True)
    assert report == DistanceReport("lee", 1, word, False, 7, True)
    assert report.to_json()["words_scanned"] == 7


def test_invalid_values_still_raise():
    with pytest.raises(PreconditionError, match="not prime"):
        RingParams(4, 2)
    with pytest.raises(PreconditionError, match="nonzero residue-field element"):
        IdealDescriptor("p_power_plus_alpha_u", 1)
    with pytest.raises(PreconditionError, match="carries no alpha"):
        IdealDescriptor("p_power", 1, (1,))
    with pytest.raises(PreconditionError, match="unknown ideal family"):
        IdealDescriptor("p_power_or_u", 1)
    with pytest.raises(TypeError):
        RingParams(2, 2, 4)  # q is derived, never passed


def test_a_value_class_needs_two_fields():
    with pytest.raises(TypeError, match="at least two fields"):
        type("Single", (Value,), {"__slots__": ("x",)})
