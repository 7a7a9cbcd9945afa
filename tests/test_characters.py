from __future__ import annotations

import random
from math import factorial

import pytest

from borelline import characters, digits
from borelline.characters import (
    GaloisTwist,
    LucasSearch,
    NoStablePattern,
    RationalPower,
    TruncatedCharacter,
    Trivial,
    TwistedDigitSum,
    X0Pattern,
    classify_exact,
    digit_data,
    extract_pattern,
    is_compatible,
    is_trivial_symbolic,
    lucas_criterion,
    symbolic_from_json,
    symbolic_to_json,
    truncate,
)
from borelline.digits import ArgumentError
from borelline.towers import CapabilityError
from proof_route import lucas_search


def test_truncated_character_range_checks():
    TruncatedCharacter(2, (0, 1, 5))
    with pytest.raises(ArgumentError):
        TruncatedCharacter(2, (1,))  # 1 not in [0, 2^1 - 1)
    with pytest.raises(ArgumentError):
        TruncatedCharacter(2, (0, 3))
    with pytest.raises(ArgumentError):
        TruncatedCharacter(4, (0,))


# library calls whose error names an int past Python's 4 300-digit limit on
# int-to-string conversion: each raised ValueError ("Exceeds the limit")
# from the message itself instead of ArgumentError
HUGE = 10 ** 5000 + 7
HUGE_VALUE_CALLS = (
    (lambda: GaloisTwist((HUGE,)),
     "twist residue at level 1 out of range: 100000000000...000000000007 (5001 digits)"),
    (lambda: truncate(TwistedDigitSum(((HUGE, GaloisTwist((0,))),)), 3, 1),
     "digit value 100000000000...000000000007 (5001 digits) is not a base-3 digit"),
    (lambda: TruncatedCharacter(3, (HUGE,)),
     "residue at level 1 must lie in [0, 1], got 100000000000...000000000007 (5001 digits)"),
    (lambda: TruncatedCharacter(3, (-HUGE,)),
     "residue at level 1 must lie in [0, 1], got -10000000000...000000000007 (5001 digits)"),
)


@pytest.mark.parametrize("call, message", HUGE_VALUE_CALLS,
                         ids=("twist", "digit-value", "residue", "negative-residue"))
def test_an_int_past_the_conversion_limit_is_named_in_a_short_argument_error(call, message):
    with pytest.raises(ArgumentError) as caught:
        call()
    assert str(caught.value) == message
    assert len(str(caught.value).encode()) < 300


def _shown_by_repr(value):
    """The reference route of `digits._shown` for an int below the
    conversion limit: its repr, cut as the errors cut it."""
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"{text[:12]}...{text[-12:]} ({len(text.lstrip('-'))} digits)"


def test_a_residue_out_of_range_names_value_and_bound_shortly():
    # the bound p^(n!) - 2 is as long as the residue: at p = 10^18 + 3 and
    # level 3 a 121-digit residue and its 109-digit bound were echoed whole
    p = 10 ** 18 + 3
    hi, m = p ** 6 - 2, 10 ** 120
    with pytest.raises(ArgumentError) as caught:
        TruncatedCharacter(p, (0, 0, m))
    message = str(caught.value)
    assert message == (f"residue at level 3 must lie in [0, {_shown_by_repr(hi)}], "
                       f"got {_shown_by_repr(m)}")
    assert "(109 digits)], got 100000000000...000000000000 (121 digits)" in message
    assert len(message.encode()) < 300
    # a short value is named whole, as repr names it
    with pytest.raises(ArgumentError, match=r"must lie in \[0, 0\], got 1$"):
        TruncatedCharacter(2, (1,))


@pytest.mark.parametrize("value", (10 ** 39, 10 ** 40 - 1, 10 ** 40, -(10 ** 38), -(10 ** 39),
                                   -(10 ** 39) + 1, 123456789 ** 20, -(987654321 ** 25), True, -7),
                         ids=("1e39", "1e40-1", "1e40", "-1e38", "-1e39", "-1e39+1", "162-digits",
                              "-225-digits", "True", "-7"))
def test_shown_names_an_int_as_its_repr_would(value):
    # below the limit, the arithmetic reading gives what the repr gives
    assert digits._shown(value) == _shown_by_repr(value)


@pytest.mark.parametrize("length", range(38, 45))
def test_shown_cuts_a_str_only_where_the_cut_is_shorter(length):
    # the cut form of a str of 10 to 99 characters is 43 characters long:
    # a repr of 41 to 43 characters, a str of 39 to 41, was cut to 43
    # characters with characters lost, and is now named whole
    value = "n" * length
    cut = f"'nnnnnnnnnnn...nnnnnnnnnnn' ({length} characters)"
    assert len(cut) == 43
    shown = digits._shown(value)
    assert shown == (repr(value) if length + 2 <= 43 else cut)
    assert len(shown) <= len(repr(value))


def test_compatibility_verdict():
    # 5 = 2 + 3 is congruent to 2 mod 3, so this tower is coherent
    assert is_compatible(TruncatedCharacter(2, (0, 2, 5)))
    bad = is_compatible(TruncatedCharacter(2, (0, 1, 5)))
    assert not bad
    assert bad.failing_pair == (2, 3)


def test_truncate_rational_powers():
    tc = truncate(RationalPower(1), 2, 3)
    assert tc.residues == (0, 1, 1)
    tc = truncate(RationalPower(-1), 2, 3)
    assert tc.residues == (0, 2, 62)
    assert digit_data(tc) == ((0, 1, 5), (0, 1, 5))
    tc = truncate(RationalPower(5), 3, 2)
    assert tc.residues == (1, 5)


def test_truncate_refuses_levels_past_the_tower_cap():
    # refused before any p^(n!) is computed; 3^(10!) alone would not fit in memory
    with pytest.raises(CapabilityError):
        truncate(RationalPower(1), 3, 10)
    with pytest.raises(CapabilityError):
        truncate(Trivial(), 2, 4)


def test_truncate_trivial_and_twisted():
    assert truncate(Trivial(), 5, 2).residues == (0, 0)
    sc = TwistedDigitSum(((1, GaloisTwist.from_position(1, 3)),))
    tc = truncate(sc, 2, 3)
    # level 1 reduces mod 2^1 - 1 = 1, so every residue collapses there
    assert tc.residues == (0, 2, 2)


def test_truncate_rejects_large_digits():
    sc = TwistedDigitSum(((2, GaloisTwist.from_position(0, 3)),))
    with pytest.raises(ArgumentError):
        truncate(sc, 2, 3)
    assert truncate(sc, 3, 3).residues == (0, 2, 2)


def test_galois_twist_validation():
    GaloisTwist((0, 1, 1))
    with pytest.raises(ArgumentError):
        GaloisTwist((0, 2))  # 2 out of range mod 2!
    with pytest.raises(ArgumentError):
        GaloisTwist((0, 1, 2))  # 2 mod 2! = 0 disagrees with 1
    assert GaloisTwist.from_position(5, 3).residues == (0, 1, 5)
    assert GaloisTwist((0, 1, 5)).reduce_to(2).residues == (0, 1)


def test_twisted_digit_sum_validation():
    with pytest.raises(ArgumentError):
        TwistedDigitSum(
            ((1, GaloisTwist((0,))), (1, GaloisTwist((0,))))
        )
    with pytest.raises(ArgumentError):
        TwistedDigitSum(((0, GaloisTwist((0,))),))


def test_is_trivial_symbolic_is_semantic():
    assert is_trivial_symbolic(Trivial())
    assert is_trivial_symbolic(RationalPower(0))
    assert is_trivial_symbolic(TwistedDigitSum(()))
    assert not is_trivial_symbolic(RationalPower(1))


def test_extract_pattern_stable_power():
    tc = truncate(RationalPower(1), 2, 3)
    pattern = extract_pattern(tc)
    assert isinstance(pattern, X0Pattern)
    assert pattern.stabilized_at == 2
    assert pattern.factors == ((1, GaloisTwist((0, 0, 0))),)
    for n in (1, 2, 3):
        assert pattern.residue_at(n) == tc.residue(n)


def test_extract_pattern_growing_digit_sum():
    tc = truncate(RationalPower(-1), 2, 3)
    pattern = extract_pattern(tc)
    assert isinstance(pattern, NoStablePattern)
    assert pattern.break_level == 3
    assert pattern.f_sequence == (0, 1, 5)


def test_extract_pattern_all_zero():
    pattern = extract_pattern(truncate(Trivial(), 2, 3))
    assert isinstance(pattern, X0Pattern)
    assert pattern.factors == ()


def test_extract_pattern_needs_two_levels():
    pattern = extract_pattern(TruncatedCharacter(3, (1,)))
    assert isinstance(pattern, NoStablePattern)
    assert pattern.reason == "single level observed"


def test_extract_pattern_rejects_incompatible():
    with pytest.raises(ArgumentError):
        extract_pattern(TruncatedCharacter(2, (0, 1, 5)))


def test_extract_pattern_twisted_roundtrip():
    sc = TwistedDigitSum(
        ((1, GaloisTwist.from_position(0, 3)), (2, GaloisTwist.from_position(3, 3)))
    )
    tc = truncate(sc, 3, 3)
    pattern = extract_pattern(tc)
    assert isinstance(pattern, X0Pattern)
    got = {(t, w.residues) for t, w in pattern.factors}
    assert got == {(1, (0, 0, 0)), (2, (0, 1, 3))}


def test_extract_pattern_expands_each_residue_once(monkeypatch):
    # f, the nonzero-digit counts, the class sums of the window and the top
    # factors are read off one expansion per residue, p being proven by the
    # TruncatedCharacter; the digit sums, the nonzero counts and the
    # window's expand and class sums made about 9 expansions of 3 residues,
    # each proving p again
    towers = [truncate(sc, 3, 3) for sc in (
        TwistedDigitSum(((1, GaloisTwist.from_position(0, 3)),
                         (2, GaloisTwist.from_position(3, 3)))),
        TwistedDigitSum(((1, GaloisTwist.from_position(0, 3)),
                         (1, GaloisTwist.from_position(2, 3)))),
        RationalPower(-1),
    )]
    calls = []
    real = digits._expand

    def expanding(n, p):
        calls.append(n)
        return real(n, p)

    monkeypatch.setattr(characters, "_expand", expanding)
    monkeypatch.setattr(characters, "expand", None)
    monkeypatch.setattr(characters, "require_prime", None)
    kinds = []
    for tc in towers:
        calls.clear()
        kinds.append(type(extract_pattern(tc)))
        assert calls == list(tc.residues)
    assert kinds == [X0Pattern, NoStablePattern, NoStablePattern]


def test_extract_pattern_same_parity_twists_break():
    # positions 0 and 2 collide mod 2, so the count cannot settle by level 3
    sc = TwistedDigitSum(
        ((1, GaloisTwist.from_position(0, 3)), (1, GaloisTwist.from_position(2, 3)))
    )
    tc = truncate(sc, 3, 3)
    assert isinstance(extract_pattern(tc), NoStablePattern)


def test_classify_exact_dichotomy():
    for lam in range(-6, 7):
        cls = classify_exact(RationalPower(lam), 2)
        assert cls.bounded == (lam >= 0)


def test_classify_exact_pattern_for_positive_power():
    cls = classify_exact(RationalPower(5), 3)
    assert cls.bounded
    got = {(t, w.residues) for t, w in cls.pattern.factors}
    assert got == {(2, (0, 0, 0)), (1, (0, 1, 1))}


def test_classify_exact_deep_power_reports_level():
    cls = classify_exact(RationalPower(3), 2)
    assert cls.bounded
    assert cls.pattern is not None
    assert cls.pattern.stabilized_at == 3


def test_classify_exact_beyond_cap():
    # 2^6 needs digit position 6 >= 3!, past what level 3 towers resolve
    cls = classify_exact(RationalPower(64), 2, level=3)
    assert cls.bounded
    assert cls.pattern is None
    assert "level" in cls.note


@pytest.mark.parametrize("level", (1, 2, 3))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_classify_exact_trivial_forms_agree(p, level):
    # the trivial character is the empty digit pattern, settled at level 1
    want = characters.CharacterClass(True, X0Pattern(p, level, 1, ()))
    for sc in (Trivial(), RationalPower(0), TwistedDigitSum(())):
        assert classify_exact(sc, p, level) == want


def test_classify_exact_twist_collision_at_cap():
    # distinct at level 3, but both reduce to the identity twist at level 2:
    # no twist is longer than the tower cap, so the collision is met below it
    sc = TwistedDigitSum(
        ((1, GaloisTwist.from_position(0, 3)), (1, GaloisTwist.from_position(2, 3)))
    )
    assert classify_exact(sc, 2, level=3).bounded
    with pytest.raises(CapabilityError, match="twists collide at level 2"):
        classify_exact(sc, 2, level=2)


def test_a_twist_past_the_tower_cap_is_refused_before_its_factorials(monkeypatch):
    # a twist, given by its residues or by a digit position, is refused on
    # its length before any residue is computed or held to n!
    monkeypatch.setattr(characters, "factorial", None)
    for level in (4, 6000):
        message = f"level {level} exceeds the tower cap 3"
        with pytest.raises(CapabilityError, match=message):
            GaloisTwist((0,) * level)
        with pytest.raises(CapabilityError, match=message):
            GaloisTwist.from_position(0, level)


def test_lucas_criterion_finds_witness():
    tc = truncate(RationalPower(-1), 2, 3)
    hit = lucas_criterion(tc, 1)
    assert hit.found
    assert (hit.s, hit.k) == (2, 2)


def test_lucas_criterion_absent_for_bounded():
    tc = truncate(RationalPower(1), 2, 3)
    hit = lucas_criterion(tc, 2)
    assert not hit.found
    assert hit.s is None


def test_lucas_criterion_validates_r():
    tc = truncate(RationalPower(1), 2, 3)
    with pytest.raises(ArgumentError):
        lucas_criterion(tc, 3)
    with pytest.raises(ArgumentError):
        lucas_criterion(tc, 0)


def test_symbolic_json_roundtrip():
    cases = [
        Trivial(),
        RationalPower(-7),
        TwistedDigitSum(
            ((1, GaloisTwist((0, 0, 0))), (2, GaloisTwist((0, 1, 3))))
        ),
    ]
    for sc in cases:
        assert symbolic_from_json(symbolic_to_json(sc)) == sc


def test_symbolic_json_rejects_garbage():
    with pytest.raises(ArgumentError):
        symbolic_from_json({"kind": "mystery"})
    with pytest.raises(ArgumentError):
        symbolic_from_json({"kind": "rational", "lambda": "five"})
    with pytest.raises(ArgumentError):
        symbolic_from_json([1, 2])


def test_lucas_criterion_answers_without_a_cap_or_a_second_primality_proof(monkeypatch):
    prime_checks = []
    real = digits.require_prime
    monkeypatch.setattr(digits, "require_prime", lambda p: prime_checks.append(p) or real(p))
    # m_2 = 2 at p = 2, r = 1: k = 1 gives binom(2, 1) = 0 mod 2, k = 2 the witness
    tc = truncate(RationalPower(-1), 2, 3)
    assert lucas_criterion(tc, 1) == LucasSearch(True, 2, 2)
    # m_3 = 4 at r = 2 has the one candidate k = 1, and binom(4, 3) = 0 mod 2
    tc = truncate(RationalPower(4), 2, 3)
    assert lucas_criterion(tc, 2) == LucasSearch(False, None, None)
    # lambda = 101^5 at p = 101: one digit 1 at position 5 in m_3, so no
    # class sum reaches p - 1 or solves A_0 + A_1 p = k'(p^2 - 1). The
    # enumeration refused it after 10^5 of its ~10^8 candidates at r = 1
    tc = truncate(RationalPower(101 ** 5), 101, 3)
    assert [lucas_criterion(tc, r) for r in (1, 2)] == [LucasSearch(False, None, None)] * 2
    # the character proved p once; the search never checks it again
    assert prime_checks == []


def _reference_grid():
    """(p, level, m) for p in {2, 3, 5, 7} at levels 2 and 3: every m below
    p^(level!) - 1 when p^(level!) <= 800, else 300 seeded random m."""
    rng = random.Random(44)
    for p in (2, 3, 5, 7):
        for level in (2, 3):
            top = p ** factorial(level) - 1
            ms = range(top) if top <= 799 else (rng.randrange(top) for _ in range(300))
            for m in ms:
                yield p, level, m


def test_lucas_criterion_matches_the_enumeration_on_the_grid():
    pairs = bad = 0
    for p, level, m in _reference_grid():
        tc = truncate(RationalPower(m), p, level)
        for r in range(1, level):
            pairs += 1
            if lucas_criterion(tc, r) != lucas_search(tc, r):
                bad += 1
    assert (pairs, bad) == (2865, 0)


def test_lucas_criterion_matches_the_enumeration_on_twisted_characters():
    # two or three digits at distinct level-3 twists, with the twists'
    # lower residues read off their level-3 ones, at p in {2, 3, 5, 7}
    rng = random.Random(45)
    found = set()
    for p in (2, 3, 5, 7):
        for _ in range(40):
            positions = rng.sample(range(6), rng.choice((2, 3)))
            sc = TwistedDigitSum(tuple((rng.randrange(1, p), GaloisTwist.from_position(e, 3))
                                       for e in positions))
            tc = truncate(sc, p, 3)
            for r in (1, 2):
                hit = lucas_criterion(tc, r)
                assert hit == lucas_search(tc, r), (sc, p, r)
                found.add(hit.found)
    assert found == {True, False}
