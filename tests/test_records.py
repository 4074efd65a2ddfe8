"""The result records: fields, repr, equality, hashing and immutability."""

from fractions import Fraction

import pytest

from cubeharm.coefficients import CoefficientRecord
from cubeharm.generating import IdentityCheck, IdentityReport
from cubeharm.harmonics import HarmonicBasisReport, MvpReport
from cubeharm.invariants import InvariantExpansion
from cubeharm.multipoly import MultiPoly


def _mvp_report():
    f = MultiPoly(2, {(2, 0): 1, (0, 2): -1})
    return MvpReport(f, 2, 1, MultiPoly(3, {}), True)


def _identity_report():
    return IdentityReport(4, (IdentityCheck("a", True), IdentityCheck("b", False, "bad")))


# (factory of one sample, its fields, its repr as the frozen dataclasses printed it)
SAMPLES = [
    (
        lambda: CoefficientRecord(3, 2, 1, Fraction(28, 3), "partition"),
        ("n", "m", "k", "value", "route"),
        "CoefficientRecord(n=3, m=2, k=1, value=Fraction(28, 3), route='partition')",
    ),
    (
        lambda: IdentityCheck("x", True),
        ("name", "ok", "detail"),
        "IdentityCheck(name='x', ok=True, detail='')",
    ),
    (
        _identity_report,
        ("order", "checks"),
        "IdentityReport(order=4, checks=(IdentityCheck(name='a', ok=True, detail=''),"
        " IdentityCheck(name='b', ok=False, detail='bad')))",
    ),
    (
        _mvp_report,
        ("f", "n", "k", "residual", "holds"),
        "MvpReport(f=MultiPoly(2, {(0, 2): -1, (2, 0): 1}), n=2, k=1,"
        " residual=MultiPoly(3, {}), holds=True)",
    ),
    (
        lambda: HarmonicBasisReport(2, 8, 8, ((0, 1, 2),), True),
        ("n", "dimension", "expected_dimension", "mvp_failures", "closure_ok"),
        "HarmonicBasisReport(n=2, dimension=8, expected_dimension=8,"
        " mvp_failures=((0, 1, 2),), closure_ok=True)",
    ),
    (
        lambda: InvariantExpansion(3, 2, 1, Fraction(28, 3), (((1, 1), Fraction(11, 3)),)),
        ("n", "m", "k", "leading", "lower_terms"),
        "InvariantExpansion(n=3, m=2, k=1, leading=Fraction(28, 3),"
        " lower_terms=(((1, 1), Fraction(11, 3)),))",
    ),
]
IDS = [text.split("(", 1)[0] for _, _, text in SAMPLES]


@pytest.mark.parametrize("make, fields, text", SAMPLES, ids=IDS)
def test_record_contract(make, fields, text):
    record, twin = make(), make()
    assert type(record)._fields == fields
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], getattr(record, fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_identity_check_detail_defaults_to_empty():
    assert IdentityCheck("x", True).detail == ""


def test_all_ok():
    assert IdentityReport(2, (IdentityCheck("a", True),)).all_ok
    assert not _identity_report().all_ok
    assert HarmonicBasisReport(2, 8, 8, (), True).all_ok
    assert not HarmonicBasisReport(2, 7, 8, (), True).all_ok
    assert not HarmonicBasisReport(2, 8, 8, ((0, 1, 2),), True).all_ok
    assert not HarmonicBasisReport(2, 8, 8, (), False).all_ok
