"""The package's records: immutable values that hash and compare by value."""

from fractions import Fraction

import pytest

from quivercoha import (DimensionMismatchError, DomainError, EigenData, LegData, Quiver,
                        RootCertificate)

FROZEN = [
    (lambda: Quiver(((2,),)), "Quiver(arrows=((2,),))"),
    (lambda: RootCertificate(True, "real", (0,), (1, 0)),
     "RootCertificate(result=True, kind='real', reflections=(0,), witness=(1, 0))"),
    (lambda: EigenData(((1, -1),)),
     "EigenData(values=((Fraction(1, 1), Fraction(-1, 1)),))"),
    (lambda: LegData((2, 1), ((0, 0), (0, 1)), Quiver(((0, 1), (0, 0)))),
     "LegData(tilde_gamma=(2, 1), vertex_labels=((0, 0), (0, 1)), "
     "half_quiver=Quiver(arrows=((0, 1), (0, 0))))"),
]


@pytest.mark.parametrize("make, text", FROZEN,
                         ids=[text.partition("(")[0] for _, text in FROZEN])
def test_frozen_record_is_a_hashable_value(make, text):
    rec, twin = make(), make()
    assert rec is not twin and rec == twin and hash(rec) == hash(twin)
    assert len({rec, twin}) == 1
    assert repr(rec) == text
    field = text.partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_records_differ_by_field():
    assert Quiver(((2,),)) != Quiver(((3,),))


def test_quiver_validates_its_matrix():
    with pytest.raises(DimensionMismatchError):
        Quiver(((0, 1),))
    with pytest.raises(DomainError):
        Quiver(((0, -1), (0, 0)))


def test_eigendata_coerces_and_validates():
    t = EigenData([[1, Fraction(-1, 2)], ["-1/2"]])
    assert t.values == ((Fraction(1), Fraction(-1, 2)), (Fraction(-1, 2),))
    assert all(type(v) is Fraction for vs in t.values for v in vs)
    with pytest.raises(DomainError):
        EigenData(((1, 1),))

