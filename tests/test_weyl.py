from __future__ import annotations

import pytest

from borelline.characters import RationalPower
from borelline.classify import TorusCharacter, report
from borelline.digits import ArgumentError
from borelline.weyl import RootDatum, datum_from_json, datum_to_json
from weyl_route import CLASSICAL_DEGREES, degree_product, poincare_coefficients

A1 = RootDatum(((2,),))
A2 = RootDatum(((2, -1), (-1, 2)))
B2 = RootDatum(((2, -1), (-2, 2)))
A3 = RootDatum(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))


def test_cartan_validation():
    with pytest.raises(ArgumentError):
        RootDatum(((1,),))
    with pytest.raises(ArgumentError):
        RootDatum(((2, 1), (1, 2)))
    with pytest.raises(ArgumentError):
        RootDatum(((2, -1), (0, 2)))  # zero pattern must be symmetric


def order(datum):
    return sum(poincare_coefficients(datum.cartan))


def test_weyl_orders():
    assert order(A1) == 2
    assert order(A2) == 6
    assert order(B2) == 8
    assert order(A3) == 24


def test_poincare_degrees_give_orders():
    for name, datum in (("A1", A1), ("A2", A2), ("B2", B2), ("A3", A3)):
        assert sum(degree_product(CLASSICAL_DEGREES[name])) == order(datum)


def test_poincare_coefficients_match_length_counts():
    # known answers apart from the degrees: for A_n, the permutations of
    # n + 1 letters counted by inversions; for B2, the dihedral group of order 8
    assert poincare_coefficients(A1.cartan) == (1, 1)
    assert poincare_coefficients(A2.cartan) == (1, 2, 2, 1)
    assert poincare_coefficients(B2.cartan) == (1, 2, 2, 2, 1)
    assert poincare_coefficients(A3.cartan) == (1, 3, 5, 6, 5, 3, 1)


def test_sub_datum():
    # the Levi block of J = {1, 3}: the principal block of A3's matrix there
    bounded, unbounded = RationalPower(1), RationalPower(-1)
    rep = report(A3, TorusCharacter(A3, (bounded, unbounded, bounded)), 2)
    assert rep.j_set == (1, 3)
    assert rep.levi_cartan == ((2, 0), (0, 2))
    assert order(RootDatum(rep.levi_cartan)) == 4


def test_datum_json_roundtrip():
    for datum in (A1, A2, B2, A3):
        assert datum_from_json(datum_to_json(datum)) == datum
    with pytest.raises(ArgumentError):
        datum_from_json({"cartan": [[2, -1]]})
