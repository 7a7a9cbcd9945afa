from __future__ import annotations

import random
from fractions import Fraction

import pytest

from borelline.characters import GaloisTwist, RationalPower, Trivial, TwistedDigitSum
from borelline.classify import (
    TorusCharacter,
    _bounded_classes,
    _require_finite_type,
    report,
    report_to_json,
    steinberg_decompose,
    torus_character_from_json,
    trivial_support,
)
from borelline.digits import ArgumentError
from borelline.towers import LEVEL_CAP
from borelline.weyl import RootDatum

A1 = RootDatum(((2,),))
A2 = RootDatum(((2, -1), (-1, 2)))


def _decompose(tchar, p, level=3):
    """The factors from the classes `report` hands `steinberg_decompose`."""
    return steinberg_decompose(tchar, p, level, _bounded_classes(tchar, p, level))


def test_torus_character_needs_simply_connected():
    datum = RootDatum(((2,),), simply_connected=False)
    with pytest.raises(ArgumentError):
        TorusCharacter(datum, (RationalPower(1),))


def test_torus_character_rank_check():
    with pytest.raises(ArgumentError):
        TorusCharacter(A2, (RationalPower(1),))


def test_trivial_support_is_semantic():
    tchar = TorusCharacter(
        A2, (RationalPower(0), TwistedDigitSum(()))
    )
    assert trivial_support(tchar) == frozenset({0, 1})
    tchar = TorusCharacter(A2, (Trivial(), RationalPower(-1)))
    assert trivial_support(tchar) == frozenset({0})


def x0_support(tchar, p, level=LEVEL_CAP):
    """The 0-based J: the indices whose restriction has bounded digit sums,
    each asked of `classify.classify_exact`, which `report` reads too."""
    from borelline import classify

    return frozenset(i for i, sc in enumerate(tchar.restrictions)
                     if classify.classify_exact(sc, p, level).bounded)


def test_x0_support_collects_bounded_indices():
    tchar = TorusCharacter(A2, (RationalPower(1), RationalPower(-1)))
    assert x0_support(tchar, 2) == frozenset({0})
    assert report(A2, tchar, 2).j_set == (1,)
    tchar = TorusCharacter(A2, (RationalPower(1), RationalPower(2)))
    assert x0_support(tchar, 2) == frozenset({0, 1})
    assert report(A2, tchar, 2).j_set == (1, 2)


def test_steinberg_decompose_two_indices():
    tchar = TorusCharacter(A2, (RationalPower(1), RationalPower(2)))
    factors = _decompose(tchar, 2)
    data = [(f.weights, f.twist.residues) for f in factors]
    assert data == [((1, 0), (0, 0, 0)), ((0, 1), (0, 1, 1))]


def test_steinberg_decompose_pools_by_twist():
    tchar = TorusCharacter(A1, (RationalPower(5),))
    factors = _decompose(tchar, 3)
    data = [(f.weights, f.twist.residues) for f in factors]
    assert data == [((2,), (0, 0, 0)), ((1,), (0, 1, 1))]


def test_a_twisted_document_builds_one_twist_per_parsed_and_pattern_factor(monkeypatch):
    # the A2 document with restrictions theta = t^(3^1) twisted to level 3
    # and t^2, at p = 3: its parsed twist and the twists of the two
    # pattern factors, 3 in all. The decomposition pools the pattern
    # twists themselves and builds none; pooling their residues rebuilt
    # one per factor, 5 in all
    built = []
    real = GaloisTwist.__post_init__

    def counting(self):
        built.append(self.residues)
        real(self)

    monkeypatch.setattr(GaloisTwist, "__post_init__", counting)
    doc = {"cartan": [[2, -1], [-1, 2]], "restrictions": {
        "1": {"kind": "twisted", "factors": [{"theta": 1, "twist": [0, 1, 1]}]},
        "2": {"kind": "rational", "lambda": 2}}}
    datum, tchar = torus_character_from_json(doc)
    rep = report(datum, tchar, 3, 3)
    assert [(f.weights, f.twist.residues) for f in rep.factors] == [
        ((0, 2), (0, 0, 0)), ((1, 0), (0, 1, 1))]
    assert sorted(built) == [(0, 0, 0), (0, 1, 1), (0, 1, 1)]


def test_steinberg_decompose_weights_below_p():
    tchar = TorusCharacter(A1, (RationalPower(5),))
    for f in _decompose(tchar, 3):
        assert all(0 <= w < 3 for w in f.weights)


def test_report_empty_support_is_irreducible_induction():
    rep = report(A1, TorusCharacter(A1, (RationalPower(-1),)), 2)
    assert rep.j_set == ()
    assert not rep.finite_dimensional
    assert rep.statement == "L(theta) = M(theta) = Ind_B^G(theta), irreducible"


def test_report_full_support_is_finite_dimensional():
    tchar = TorusCharacter(A2, (RationalPower(1), RationalPower(2)))
    rep = report(A2, tchar, 2)
    assert rep.j_set == (1, 2)
    assert rep.finite_dimensional
    assert "twisted tensor product" in rep.statement


def test_report_proper_parabolic():
    tchar = TorusCharacter(A2, (Trivial(), RationalPower(-1)))
    rep = report(A2, tchar, 2)
    assert rep.j_set == (1,)
    assert rep.trivial_set == (1,)
    assert rep.levi_cartan == ((2,),)
    assert not rep.finite_dimensional
    assert "P_J" in rep.statement


def test_a1_dichotomy():
    for p in (2, 3):
        for lam in range(-16, 17):
            rep = report(A1, TorusCharacter(A1, (RationalPower(lam),)), p)
            assert rep.finite_dimensional == (lam >= 0)


def test_report_json_shape():
    tchar = TorusCharacter(A2, (Trivial(), RationalPower(-1)))
    obj = report_to_json(report(A2, tchar, 2))
    assert obj["schema"] == "v1"
    assert obj["J"] == [1]
    assert obj["trivial_support"] == [1]
    assert obj["levi"] == {"cartan": [[2]]}
    assert obj["finite_dimensional"] is False
    assert obj["central"] is None


def test_report_json_with_factors():
    tchar = TorusCharacter(A2, (RationalPower(1), RationalPower(2)))
    obj = report_to_json(report(A2, tchar, 2))
    assert obj["factors"] == [
        {"weight": [1, 0], "twist": [0, 0, 0]},
        {"weight": [0, 1], "twist": [0, 1, 1]},
    ]


def test_torus_character_from_json():
    obj = {
        "cartan": [[2, -1], [-1, 2]],
        "restrictions": {
            "1": {"kind": "trivial"},
            "2": {"kind": "rational", "lambda": -1},
        },
    }
    datum, tchar = torus_character_from_json(obj)
    assert datum == A2
    assert tchar.restrictions == (Trivial(), RationalPower(-1))


def test_torus_character_from_json_rejects_bad_keys():
    base = {
        "cartan": [[2]],
        "restrictions": {"1": {"kind": "trivial"}, "2": {"kind": "trivial"}},
    }
    with pytest.raises(ArgumentError):
        torus_character_from_json(base)
    with pytest.raises(ArgumentError):
        torus_character_from_json({"cartan": [[2]], "restrictions": {}})


def test_central_character_passthrough():
    obj = {
        "cartan": [[2]],
        "restrictions": {"1": {"kind": "rational", "lambda": 1}},
        "central": {"kind": "rational", "lambda": 3},
    }
    datum, tchar = torus_character_from_json(obj)
    assert tchar.central == RationalPower(3)
    rep = report(datum, tchar, 2)
    assert report_to_json(rep)["central"] == {"kind": "rational", "lambda": 3}


def test_twisted_restriction_decomposes():
    sc = TwistedDigitSum(((1, GaloisTwist.from_position(1, 3)),))
    tchar = TorusCharacter(A1, (sc,))
    factors = _decompose(tchar, 3)
    assert [(f.weights, f.twist.residues) for f in factors] == [((1,), (0, 1, 1))]


def _chain(n, a=-1, b=-1):
    """The Cartan matrix of a path of n nodes whose last bond is (a, b)."""
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        rows[n - 2][n - 1], rows[n - 1][n - 2] = a, b
    return rows


def _with_branch(rows, at):
    """rows with one more node bonded simply to node `at`."""
    n = len(rows)
    out = [row + [-1 if i == at else 0] for i, row in enumerate(rows)]
    return out + [[-1 if j == at else 2 if j == n else 0 for j in range(n + 1)]]


FINITE_TYPES = (
    [_chain(n) for n in range(1, 9)]                                  # A1..A8
    + [_chain(n, -2, -1) for n in range(2, 9)]                        # B2..B8
    + [_chain(n, -1, -2) for n in range(3, 9)]                        # C3..C8
    + [_with_branch(_chain(n - 1), n - 3) for n in range(4, 9)]       # D4..D8
    + [_with_branch(_chain(n - 1), 2) for n in (6, 7, 8)]             # E6..E8
    + [[[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],  # F4
       [[2, -3], [-1, 2]]]                                            # G2
)

NOT_FINITE_TYPES = {
    "affine A1": [[2, -2], [-2, 2]],
    "affine A2": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "affine D4": _with_branch(_with_branch(_chain(3), 1), 1),
    "affine E8": _with_branch(_chain(8), 2),
    "affine G2": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
    "hyperbolic": [[2, -3], [-3, 2]],
    "hyperbolic A5 with a triple bond": _chain(5, -1, -3),
    "hyperbolic, two multiple bonds": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1],
                                       [0, 0, -3, 2]],
}

PIVOT = "the Cartan matrix is not of finite type: eliminating leaf by leaf leaves the pivot"
REFUSALS = {
    "affine A1": f"{PIVOT} 0 at index 2",
    "affine A2": "the Cartan matrix is not of finite type: its Dynkin graph has a cycle",
    "affine D4": f"{PIVOT} 0 at index 2",
    "affine E8": f"{PIVOT} 0 at index 5",
    "affine G2": f"{PIVOT} 0 at index 2",
    "hyperbolic": f"{PIVOT} -5/2 at index 2",
    "hyperbolic A5 with a triple bond": f"{PIVOT} -2/3 at index 3",
    "hyperbolic, two multiple bonds": f"{PIVOT} -5/6 at index 3",
}


def test_report_accepts_every_finite_type():
    for cartan in FINITE_TYPES:
        datum = RootDatum(tuple(map(tuple, cartan)))
        tchar = TorusCharacter(datum, (RationalPower(1),) * datum.rank)
        assert report(datum, tchar, 3).finite_dimensional


@pytest.mark.parametrize("name", sorted(NOT_FINITE_TYPES))
def test_report_refuses_cartan_matrices_not_of_finite_type(name):
    datum = RootDatum(tuple(map(tuple, NOT_FINITE_TYPES[name])))
    tchar = TorusCharacter(datum, (RationalPower(1),) * datum.rank)
    with pytest.raises(ArgumentError) as refusal:
        report(datum, tchar, 3)
    assert str(refusal.value) == REFUSALS[name]


def _finite_type_refusal_by_fractions(cartan):
    """Reference route for the finite-type check: the same leaf-by-leaf
    elimination in `fractions.Fraction`. The refusal text, or None."""
    n = len(cartan)
    pivots = [Fraction(cartan[i][i]) for i in range(n)]
    nbrs = [{j for j in range(n) if j != i and cartan[i][j]} for i in range(n)]
    leaves = [i for i in range(n) if len(nbrs[i]) <= 1]
    for leaf in leaves:
        if pivots[leaf] <= 0:
            return f"{PIVOT} {pivots[leaf]} at index {leaf + 1}"
        for k in nbrs[leaf]:
            pivots[k] -= cartan[k][leaf] * cartan[leaf][k] / pivots[leaf]
            nbrs[k].discard(leaf)
            if len(nbrs[k]) == 1:
                leaves.append(k)
    if len(leaves) < n:
        return REFUSALS["affine A2"]
    return None


def test_finite_type_refusals_match_the_fraction_route():
    rng = random.Random(5)
    bonds = ((-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4), (-4, -1))
    accepted = fractional = refused = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for j in range(1, n):
            # a random tree, with now and then one more bond closing a cycle
            for i in (rng.randrange(j),) + ((rng.randrange(j),) if rng.random() < 0.1 else ()):
                cartan[i][j], cartan[j][i] = rng.choice(bonds[:3] if rng.random() < 0.7 else bonds)
        want = _finite_type_refusal_by_fractions(cartan)
        if want is None:
            _require_finite_type(cartan)
            accepted += 1
            continue
        with pytest.raises(ArgumentError) as refusal:
            _require_finite_type(cartan)
        assert str(refusal.value) == want
        refused += 1
        fractional += "/" in want
    assert accepted > 50 and refused > 100 and fractional > 50


def _twisted(*digits_at):
    """A twisted digit sum with one factor (theta, position) per pair, its
    twists given to level 3."""
    return TwistedDigitSum(tuple((t, GaloisTwist.from_position(e, 3)) for t, e in digits_at))


A8 = RootDatum(tuple(map(tuple, _chain(8))))
# rank 8, every restriction bounded; and a mixed one, bounded at 1, 3 and 5
ONE_CLASSIFICATION_CASES = {
    "rank-8": (A8, (RationalPower(5), Trivial(), _twisted((1, 1)), RationalPower(0),
                    _twisted((2, 0), (1, 2)), RationalPower(17), TwistedDigitSum(()),
                    _twisted((1, 4), (2, 5)))),
    "mixed": (RootDatum(tuple(map(tuple, _chain(5, -2, -1)))),
              (RationalPower(7), RationalPower(-1), Trivial(), RationalPower(-20),
               _twisted((2, 3)))),
}


@pytest.fixture
def classified(monkeypatch):
    """A list of the characters classify.classify_exact is asked about."""
    from borelline import classify

    asked = []
    real = classify.classify_exact

    def counting(sc, p, level):
        asked.append(sc)
        return real(sc, p, level)

    monkeypatch.setattr(classify, "classify_exact", counting)
    return asked


@pytest.mark.parametrize("name", sorted(ONE_CLASSIFICATION_CASES))
def test_report_classifies_each_restriction_once(classified, name):
    datum, restrictions = ONE_CLASSIFICATION_CASES[name]
    tchar = TorusCharacter(datum, restrictions)
    rep = report(datum, tchar, 3, 3)
    assert classified == list(restrictions)
    # J and the factors are those the public steps give on their own
    del classified[:]
    j0 = x0_support(tchar, 3, 3)
    assert rep.j_set == tuple(i + 1 for i in sorted(j0))
    assert rep.factors == _decompose(tchar, 3)
    assert rep.finite_dimensional is (name == "rank-8")
    assert len(classified) == 2 * len(restrictions)


def test_report_raises_the_classification_and_decomposition_errors_unchanged():
    from borelline.towers import CapabilityError

    # twists at positions 0 and 2 collide at level 2; 9 = 100 in base 3 has
    # a digit at position 2, past the resolution of level 2 (2! = 2 positions)
    collide, past = _twisted((1, 0), (1, 2)), RationalPower(9)
    collision = "twists collide at level 2; the pattern is not separable here"
    resolution = "index {}: digit positions exceed level-2 resolution".format
    cases = (
        ((RationalPower(1), collide, RationalPower(1)), collision),
        ((RationalPower(1), RationalPower(-1), past), resolution(3)),
        ((past, RationalPower(1), collide), collision),       # classifying comes first
        ((RationalPower(-1), past, past), resolution(2)),     # the first index
    )
    datum = RootDatum(tuple(map(tuple, _chain(3))))
    for restrictions, message in cases:
        tchar = TorusCharacter(datum, restrictions)
        for step in (report, _decompose):
            args = (datum, tchar) if step is report else (tchar,)
            with pytest.raises(CapabilityError) as refusal:
                step(*args, 3, 2)
            assert str(refusal.value) == message
