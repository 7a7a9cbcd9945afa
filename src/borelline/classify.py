"""Classification of simple modules generated by a Borel-stable line.

Input: a simply connected root datum and, for each simple factor of the
derived torus, a symbolic character. The verdict names the parabolic index
set J of bounded-digit-sum restrictions, packages the digit factors of the
J-part into weight-and-twist data, and states the induced-module shape;
finiteness of the dimension is exactly J covering the whole index set.
Index sets are reported 1-based.
"""

from __future__ import annotations

from math import gcd

from .characters import (
    GaloisTwist,
    SymbolicCharacter,
    classify_exact,
    is_trivial_symbolic,
    pattern_residue,
    symbolic_from_json,
    symbolic_to_json,
    truncate,
)
from .digits import ArgumentError, RelationError, _shown, record, require_prime
from .towers import CapabilityError, LEVEL_CAP
from .weyl import RootDatum, datum_from_json, datum_to_json


@record
class TorusCharacter:
    """One symbolic character per simple index, plus an optional central part.

    The per-index data only makes sense against the simply connected datum,
    where the fundamental-coweight coordinates are unconstrained. For other
    data, pull the character back to the simply connected cover first and
    build the TorusCharacter there; no canonical lift is chosen here.
    """

    datum: RootDatum
    restrictions: tuple[SymbolicCharacter, ...]
    central: SymbolicCharacter | None = None

    def __post_init__(self):
        if not self.datum.simply_connected:
            raise ArgumentError(
                "per-index restrictions need a simply connected datum; "
                "pass the character pulled back to the cover instead"
            )
        object.__setattr__(self, "restrictions", tuple(self.restrictions))
        if len(self.restrictions) != self.datum.rank:
            raise ArgumentError(
                f"expected {self.datum.rank} restrictions, got {len(self.restrictions)}"
            )


def trivial_support(tchar: TorusCharacter) -> frozenset[int]:
    """Indices (0-based) where the restriction is the trivial character."""
    return frozenset(
        i for i, sc in enumerate(tchar.restrictions) if is_trivial_symbolic(sc)
    )


def _bounded_classes(tchar, p, level):
    """The CharacterClass of each bounded restriction, by 0-based index: J
    and its classes, each restriction classified once, in index order."""
    classes = {}
    for i, sc in enumerate(tchar.restrictions):
        cls = classify_exact(sc, p, level)
        if cls.bounded:
            classes[i] = cls
    return classes


@record
class X1Factor:
    """A digit layer of the J-part: one weight entry per simple index of the
    ambient datum (zero off J), all entries in [0, p-1], with a twist shared
    by every index contributing to this layer."""

    weights: tuple[int, ...]
    twist: GaloisTwist


def steinberg_decompose(tchar: TorusCharacter, p, level, classes) -> tuple[X1Factor, ...]:
    """Pool the per-index digit factors over J, grouped by equal twist.

    Within one index the twists are pairwise distinct, so no group receives
    two digits at the same index and every weight entry stays below p; that
    bound is asserted, not assumed.

    `classes` maps each 0-based index of J to the CharacterClass of its
    restriction, bounded by construction (`_bounded_classes`), as `report`
    has them; nothing is classified here.
    """
    require_prime(p)
    indices = sorted(classes)
    rank = tchar.datum.rank
    pooled: dict[tuple[int, ...], tuple[GaloisTwist, dict[int, int]]] = {}
    for i in indices:
        cls = classes[i]
        if cls.pattern is None:
            raise CapabilityError(
                f"index {i + 1}: {cls.note or 'no pattern at this level'}"
            )
        for theta, twist in cls.pattern.factors:
            slot = pooled.setdefault(twist.residues, (twist, {}))[1]
            if i in slot:
                raise RelationError("twist collision inside a single index")
            slot[i] = theta
    factors = []
    for residues in sorted(pooled):
        twist, slot = pooled[residues]
        weights = [0] * rank
        for i, theta in slot.items():
            weights[i] = theta
        if any(w >= p for w in weights):
            raise RelationError("weight entry escaped [0, p-1]")
        factors.append(X1Factor(tuple(weights), twist))
    _assert_roundtrip(tchar, p, level, indices, factors)
    return tuple(factors)


def _assert_roundtrip(tchar, p, level, indices, factors):
    # re-expanding the pooled factors must reproduce each index's residues
    for i in indices:
        tc = truncate(tchar.restrictions[i], p, level)
        digits = [(f.weights[i], f.twist) for f in factors]
        for n in range(1, level + 1):
            if pattern_residue(digits, p, n) != tc.residue(n):
                raise RelationError(
                    f"factor round trip failed at index {i + 1}, level {n}"
                )


def _require_finite_type(cartan):
    """Refuse a Cartan matrix that is not of finite type, as no reductive
    group has one. Finite type means a Dynkin forest whose pivots all stay
    positive when leaves are eliminated one by one: a forest's matrix is
    symmetrized by a positive diagonal, and these pivots are then those of
    the symmetrized matrix up to positive factors. They are kept as exact
    fractions of integers."""
    n = len(cartan)
    # pivot i is the reduced fraction num[i] / den[i], den[i] > 0
    num, den = [cartan[i][i] for i in range(n)], [1] * n
    nbrs = [{j for j in range(n) if j != i and cartan[i][j]} for i in range(n)]
    leaves = [i for i in range(n) if len(nbrs[i]) <= 1]
    for leaf in leaves:
        if num[leaf] <= 0:
            pivot = num[leaf] if den[leaf] == 1 else f"{num[leaf]}/{den[leaf]}"
            raise ArgumentError(
                f"the Cartan matrix is not of finite type: eliminating leaf by "
                f"leaf leaves the pivot {pivot} at index {leaf + 1}"
            )
        for k in nbrs[leaf]:
            # num[k]/den[k] - c / (num[leaf]/den[leaf]), c the bond's product
            c = cartan[k][leaf] * cartan[leaf][k]
            top, bottom = num[k] * num[leaf] - c * den[k] * den[leaf], den[k] * num[leaf]
            g = gcd(top, bottom)
            num[k], den[k] = top // g, bottom // g
            nbrs[k].discard(leaf)
            if len(nbrs[k]) == 1:
                leaves.append(k)
    if len(leaves) < n:
        raise ArgumentError("the Cartan matrix is not of finite type: its Dynkin graph has a cycle")


@record
class ClassificationReport:
    p: int
    datum: RootDatum
    j_set: tuple[int, ...]              # 1-based
    trivial_set: tuple[int, ...]        # 1-based
    levi_cartan: tuple[tuple[int, ...], ...]
    factors: tuple[X1Factor, ...]
    finite_dimensional: bool
    statement: str
    central: SymbolicCharacter | None


def report(datum: RootDatum, tchar: TorusCharacter, p, level=LEVEL_CAP) -> ClassificationReport:
    """Classify the simple module attached to the character data.

    Each restriction is classified once: J is the set of bounded ones, and
    their classes go on to `steinberg_decompose`.
    """
    require_prime(p)
    if tchar.datum is not datum and tchar.datum != datum:
        raise ArgumentError("character data belongs to a different datum")
    _require_finite_type(datum.cartan)
    classes = _bounded_classes(tchar, p, level)
    j0 = frozenset(classes)
    triv = trivial_support(tchar)
    if not triv <= j0:
        raise RelationError("trivial restrictions must have bounded digit sums")
    factors = steinberg_decompose(tchar, p, level, classes=classes)
    j_sorted = sorted(j0)
    finite = len(j0) == datum.rank
    if not j0:
        statement = "L(theta) = M(theta) = Ind_B^G(theta), irreducible"
    elif finite:
        statement = (
            "L(theta) is the twisted tensor product of the digit layers; "
            "finite-dimensional"
        )
    else:
        j_txt = "{" + ",".join(str(i + 1) for i in j_sorted) + "}"
        statement = (
            f"L(theta) = Ind_(P_J)^G(L_J(theta)) with J = {j_txt}; "
            "L_J(theta) finite-dimensional over the Levi factor"
        )
    return ClassificationReport(
        p=p,
        datum=datum,
        j_set=tuple(i + 1 for i in j_sorted),
        trivial_set=tuple(i + 1 for i in sorted(triv)),
        # the principal block of the validated matrix on J: no second check
        levi_cartan=tuple(tuple(datum.cartan[i][j] for j in j_sorted) for i in j_sorted),
        factors=factors,
        finite_dimensional=finite,
        statement=statement,
        central=tchar.central,
    )


# -- JSON forms ------------------------------------------------------------


def torus_character_from_json(obj) -> tuple[RootDatum, TorusCharacter]:
    datum = datum_from_json(obj)
    raw = obj.get("restrictions")
    if not isinstance(raw, dict):
        raise ArgumentError("'restrictions' must map index strings to characters")
    restrictions = []
    for i in range(1, datum.rank + 1):
        key = str(i)
        if key not in raw:
            raise ArgumentError(f"missing restriction for index {key}")
        restrictions.append(symbolic_from_json(raw[key]))
    extra = set(raw) - {str(i) for i in range(1, datum.rank + 1)}
    if extra:
        raise ArgumentError(f"unexpected restriction indices: {_shown(sorted(extra))}")
    central = obj.get("central")
    central_sc = symbolic_from_json(central) if central is not None else None
    return datum, TorusCharacter(datum, tuple(restrictions), central_sc)


def report_to_json(rep: ClassificationReport) -> dict:
    return {
        "schema": "v1",
        "p": rep.p,
        "datum": datum_to_json(rep.datum),
        "J": list(rep.j_set),
        "trivial_support": list(rep.trivial_set),
        "levi": {"cartan": [list(r) for r in rep.levi_cartan]},
        "factors": [
            {"weight": list(f.weights), "twist": list(f.twist.residues)}
            for f in rep.factors
        ],
        "finite_dimensional": rep.finite_dimensional,
        "statement": rep.statement,
        "central": symbolic_to_json(rep.central) if rep.central else None,
    }
