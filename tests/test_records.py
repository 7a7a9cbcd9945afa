"""The frozen records of `digits.record` against `dataclasses` as the
reference route: for every record class of the package, a
`@dataclass(frozen=True)` twin with the same annotations, defaults and
`__post_init__` must give the same repr, equality and hash."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest

import borelline
import proof_route
from borelline import characters, classify, digits, sl2lab, weyl
from borelline.digits import ArgumentError, record
from borelline.characters import GaloisTwist, RationalPower, Trivial, TruncatedCharacter

A1 = weyl.RootDatum(((2,),))
A2 = weyl.RootDatum([[2, -1], [-1, 2]])
TWIST = GaloisTwist([0, 1])


def _module_and_report():
    # a socle of dim 2 and a head of dim 2; the socle itself on the
    # reference route, the span of the columns of t_s'
    module = sl2lab.InducedModule(2, 2, characters.truncate(RationalPower(1), 2, 2))
    return module, sl2lab.socle_head_report(module), proof_route.socle(module)


MODULE, SOCLE_HEAD, SOCLE = _module_and_report()
FACTOR = classify.X1Factor((1, 0), TWIST)

# (args, kwargs) per record class; each list holds records that differ
SAMPLES = {
    digits.DigitLemmaVerdict: [
        ((True, True, True, True, True), {}),
        ((True, False, True, False, True), {}),
        ((), dict(monotone=False, equality=False, classes_match=True,
                  equality_iff_classes=False, count_growth=True)),
    ],
    characters.TruncatedCharacter: [((3, [0, 2, 2]), {}), ((3, (0, 2)), {}),
                                    ((), dict(p=5, residues=[1]))],
    characters.CompatibilityVerdict: [((True,), {}), ((False, (1, 2)), {}),
                                      ((False,), dict(failing_pair=(2, 3)))],
    characters.GaloisTwist: [(([0, 1, 1],), {}), (((0,),), {}), ((), dict(residues=(0, 1)))],
    characters.RationalPower: [((-2,), {}), ((0,), {}), ((), dict(power=5))],
    characters.TwistedDigitSum: [(([(1, TWIST)],), {}), (((),), {}),
                                 (([(2.0, TWIST), (1, GaloisTwist((0, 0)))],), {})],
    characters.Trivial: [((), {})],
    characters.X0Pattern: [((3, 2, None, ((1, TWIST),)), {}), ((3, 2, 1, ()), {})],
    characters.NoStablePattern: [((2, "single level observed", (1, 2), (1, 1)), {}),
                                 ((3, "digit sum still growing", (1, 2, 3), (1, 1, 1)), {})],
    characters.CharacterClass: [((True, None), {}), ((True, None), dict(note="x")),
                                ((False, characters.X0Pattern(2, 1, 1, ())), {})],
    characters.LucasSearch: [((True, 2, 3), {}), ((False, None, None), {})],
    classify.TorusCharacter: [((A1, [RationalPower(1)]), {}),
                              ((A1, (RationalPower(1),)), dict(central=Trivial())),
                              ((A2, (Trivial(), RationalPower(-1))), {})],
    classify.X1Factor: [(((1, 0), TWIST), {}), (((0, 2), GaloisTwist((0, 0))), {})],
    classify.ClassificationReport: [
        ((3, A2, (1,), (), ((2,),), (FACTOR,), False, "s", None), {}),
        ((3, A2, (1, 2), (2,), A2.cartan, (FACTOR,), True, "t", RationalPower(3)), {}),
    ],
    sl2lab.Subspace: [((MODULE, SOCLE.code_rows), {}),
                      ((MODULE, MODULE.u_fixed_rows), {}), ((None, ()), {})],
    sl2lab.IrreducibilityVerdict: [((True,), {}), ((False, (1, 0, 0)), {}),
                                   ((False,), dict(witness=(0, 1, 0)))],
    sl2lab.SocleHeadReport: [((SOCLE_HEAD.whole, SOCLE_HEAD.socle_dim, SOCLE_HEAD.head_dim), {}),
                             ((SOCLE_HEAD.whole, SOCLE_HEAD.socle_dim, 3), {})],
    sl2lab.PiImageRecord: [(((1, 3), 5), {}), (((), 5), {})],
    sl2lab.ChainRecord: [((5, True, True), {}), ((5, True, False), {})],
    weyl.RootDatum: [(([[2, -1], [-1, 2]],), {}), ((((2,),), False), {}),
                     ((((2,),),), dict(simply_connected=True))],
}


def _record_classes():
    found = set()
    for info in pkgutil.iter_modules(borelline.__path__):
        mod = importlib.import_module(f"borelline.{info.name}")
        found.update(obj for obj in vars(mod).values()
                     if isinstance(obj, type) and obj.__module__ == mod.__name__
                     and "__match_args__" in vars(obj))
    return found


def _twin(cls):
    """A `@dataclass(frozen=True)` with cls's annotations, defaults and
    `__post_init__`."""
    own = vars(cls)
    ns = {"__annotations__": dict(own.get("__annotations__", {})),
          "__module__": cls.__module__, "__qualname__": cls.__qualname__}
    ns.update((name, own[name]) for name in ns["__annotations__"] if name in own)
    if "__post_init__" in own:
        ns["__post_init__"] = own["__post_init__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))


def test_every_record_class_has_samples():
    assert _record_classes() == set(SAMPLES)
    assert len(SAMPLES) == 20


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_a_record_is_its_dataclass_twin(cls):
    twin = _twin(cls)
    assert cls.__match_args__ == twin.__match_args__
    recs = [cls(*args, **kwargs) for args, kwargs in SAMPLES[cls]]
    twins = [twin(*args, **kwargs) for args, kwargs in SAMPLES[cls]]
    for rec, tw, (args, kwargs) in zip(recs, twins, SAMPLES[cls]):
        assert repr(rec) == repr(tw)
        assert hash(rec) == hash(tw)
        fields = tuple(getattr(rec, name) for name in cls.__match_args__)
        assert fields == tuple(getattr(tw, name) for name in twin.__match_args__)
        again = cls(*args, **kwargs)
        assert again == rec and not again != rec and hash(again) == hash(rec)
        assert rec != fields and fields != rec
        assert rec.__eq__(fields) is NotImplemented
    for i, (a, ta) in enumerate(zip(recs, twins)):
        for j, (b, tb) in enumerate(zip(recs, twins)):
            assert (a == b) == (ta == tb) == (i == j)
    # the same set iteration order as the twins'
    assert [repr(r) for r in set(recs)] == [repr(t) for t in set(twins)]


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_a_record_refuses_assignment_deletion_and_bad_arguments(cls):
    twin = _twin(cls)
    args, kwargs = SAMPLES[cls][0]
    rec = cls(*args, **kwargs)
    for name in cls.__match_args__ + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == repr(twin(*args, **kwargs))

    full = tuple(getattr(rec, name) for name in cls.__match_args__)
    required = [name for name in cls.__match_args__ if name not in vars(cls)]
    bad = [((*full, 0), {}), (full, {"not_a_field": 0})]
    if full:
        bad.append((full, {cls.__match_args__[0]: full[0]}))
    if required:
        bad += [((), {}), ((), {name: getattr(rec, name) for name in required[1:]})]
    for b_args, b_kwargs in bad:
        for kind in (cls, twin):
            with pytest.raises(TypeError):
                kind(*b_args, **b_kwargs)


@pytest.mark.parametrize("cls, args", (
    (TruncatedCharacter, (4, (0,))),
    (TruncatedCharacter, (3, ())),
    (TruncatedCharacter, (3, (0, 9))),
    (GaloisTwist, ((),)),
    (GaloisTwist, ((0, 2),)),
    (GaloisTwist, ((0, 1, 0),)),
    (characters.TwistedDigitSum, (((1, TWIST), (2, TWIST)),)),
    (characters.TwistedDigitSum, (((0, TWIST),),)),
    (classify.TorusCharacter, (A2, (RationalPower(1),))),
    (classify.TorusCharacter, (weyl.RootDatum(((2,),), False), (RationalPower(1),))),
    (weyl.RootDatum, ([[2, 1], [1, 2]],)),
))
def test_post_init_refuses_as_the_twin_does(cls, args):
    with pytest.raises(ArgumentError) as got:
        cls(*args)
    with pytest.raises(ArgumentError) as want:
        _twin(cls)(*args)
    assert str(got.value) == str(want.value)


def test_records_of_other_classes_are_never_equal():
    @record
    class Left:
        x: int
        y: int = 0

    @record
    class Right:
        x: int
        y: int = 0

    assert Left(1) == Left(1, 0) == Left(x=1, y=0) != Left(1, 1)
    assert Left(1) != Right(1) and hash(Left(1)) == hash(Right(1)) == hash((1, 0))
    assert Left(1) != (1, 0) and len({Left(1), Right(1), (1, 0)}) == 3
    assert repr(Left(2)) == f"{Left.__qualname__}(x=2, y=0)"
    assert Trivial() == Trivial() != () and hash(Trivial()) == hash(())
    assert RationalPower(1) != characters.LucasSearch(1, None, None) != RationalPower(1)


def test_post_init_normalises_and_cached_properties_still_cache():
    assert GaloisTwist([0, 1]) == GaloisTwist((0, 1)) and GaloisTwist([0, 1]).residues == (0, 1)
    assert SOCLE.rows is SOCLE.rows and len(SOCLE.rows) == SOCLE.dim == SOCLE_HEAD.socle_dim
    match RationalPower(3):
        case RationalPower(k):
            assert k == 3
    match sl2lab.ChainRecord(5, True, False):
        case sl2lab.ChainRecord(m, whole, pi):
            assert (m, whole, pi) == (5, True, False)
