from __future__ import annotations

import pytest

from borelline.characters import RationalPower
from borelline.classify import TorusCharacter, report
from borelline.digits import ArgumentError
from borelline.towers import CapabilityError
from borelline.weyl import (
    CLASSICAL_DEGREES,
    RootDatum,
    RootSystem,
    datum_from_json,
    datum_to_json,
    poincare_product,
    weyl_group,
)

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


def test_root_counts():
    assert len(RootSystem(A1).positive_roots) == 1
    assert len(RootSystem(A2).positive_roots) == 3
    assert len(RootSystem(B2).positive_roots) == 4
    assert len(RootSystem(A3).positive_roots) == 6


def test_coroots_pair_correctly():
    system = RootSystem(B2)
    A = B2.cartan
    for root in system.positive_roots:
        coroot = system.coroot_of[root]
        # the pairing of a root with its own coroot is always 2
        pairing = sum(
            r * d * A[i][k]
            for i, r in enumerate(root)
            for k, d in enumerate(coroot)
        )
        assert pairing == 2


def test_weyl_orders():
    assert weyl_group(A1).order == 2
    assert weyl_group(A2).order == 6
    assert weyl_group(B2).order == 8
    assert weyl_group(A3).order == 24


def test_poincare_degrees_give_orders():
    for name, datum in (("A1", A1), ("A2", A2), ("B2", B2), ("A3", A3)):
        degrees = CLASSICAL_DEGREES[name]
        assert sum(poincare_product(degrees)) == weyl_group(datum).order


def test_poincare_coefficients_match_length_counts():
    for datum, name in ((A1, "A1"), (A2, "A2"), (B2, "B2"), (A3, "A3")):
        group = weyl_group(datum)
        coeffs = group.poincare_coefficients()
        assert coeffs == poincare_product(CLASSICAL_DEGREES[name])
        assert sum(coeffs) == group.order


def test_length_is_inversion_count():
    group = weyl_group(B2)
    for w in group.elements:
        assert w.length == len(w.inversion_set())


def test_length_additivity_on_reduced_products():
    group = weyl_group(A2)
    s1, s2 = group.simple_reflection(0), group.simple_reflection(1)
    w = s1 * s2
    assert w.length == 2
    assert (w * s1).length == 3
    longest = group.longest
    assert longest.length == 3
    assert (longest * longest).length == 0


def test_min_coset_reps_partition():
    for datum in (A2, B2, A3):
        group = weyl_group(datum)
        rank = datum.rank
        for subset in _subsets(rank):
            reps = group.min_coset_reps(subset)
            sub = group.subgroup_elements(subset)
            assert len(reps) * len(sub) == group.order
            # every element factors as rep * subgroup element, lengths adding
            seen = set()
            for rep in reps:
                for u in sub:
                    w = rep * u
                    assert w.length == rep.length + u.length
                    seen.add(w)
            assert len(seen) == group.order


def _subsets(rank):
    out = []
    for mask in range(1 << rank):
        out.append(tuple(i for i in range(rank) if mask >> i & 1))
    return out


def test_sub_datum():
    # the Levi block of J = {1, 3}: the principal block of A3's matrix there
    bounded, unbounded = RationalPower(1), RationalPower(-1)
    rep = report(A3, TorusCharacter(A3, (bounded, unbounded, bounded)), 2)
    assert rep.j_set == (1, 3)
    assert rep.levi_cartan == ((2, 0), (0, 2))
    assert weyl_group(RootDatum(rep.levi_cartan)).order == 4


def test_affine_cartan_is_refused():
    affine = RootDatum(((2, -2), (-2, 2)))
    with pytest.raises(CapabilityError):
        RootSystem(affine)


def test_datum_json_roundtrip():
    for datum in (A1, A2, B2, A3):
        assert datum_from_json(datum_to_json(datum)) == datum
    with pytest.raises(ArgumentError):
        datum_from_json({"cartan": [[2, -1]]})
