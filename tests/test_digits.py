from __future__ import annotations

import math

import pytest

from borelline.digits import (
    PRIMALITY_CAP,
    ArgumentError,
    CapabilityError,
    check_digit_lemma,
    digit_class_sums,
    digit_sum,
    expand,
    lucas_binom,
    lucas_row,
    lucas_rows,
    nonzero_digit_count,
    power_sum,
    power_sums_direct,
    prime_power_base,
    require_prime,
)
from borelline.suites import LUCAS_BOUND, LUCAS_PRIMES


def test_expand_roundtrip():
    for p in (2, 3, 5):
        for n in range(200):
            digits = expand(n, p)
            assert type(digits) is tuple
            assert sum(d * p ** i for i, d in enumerate(digits)) == n
            assert all(0 <= d < p for d in digits)
            assert not digits or digits[-1] != 0


def test_expand_zero_is_empty():
    assert expand(0, 7) == ()
    assert digit_sum(0, 7) == 0
    assert nonzero_digit_count(0, 7) == 0


def test_digit_sum_and_count():
    assert expand(11, 2) == (1, 1, 0, 1)
    assert digit_sum(11, 2) == 3
    assert nonzero_digit_count(11, 2) == 3
    assert expand(25, 3) == (1, 2, 2)
    assert digit_sum(25, 3) == 5
    assert nonzero_digit_count(25, 3) == 3


def test_digit_expansion_validates():
    with pytest.raises(ArgumentError):
        expand(1, 4)
    with pytest.raises(ArgumentError):
        expand(3, 1)
    with pytest.raises(ArgumentError):
        expand(-1, 3)


def test_require_prime():
    assert require_prime(2) == 2
    assert require_prime(13) == 13
    assert require_prime(65537) == 65537
    assert require_prime(10 ** 18 + 3) == 10 ** 18 + 3
    # 10^18 + 1 = 101 * 9901 * 999999000001; 3215031751 is a strong
    # pseudoprime to the bases 2, 3, 5 and 7; 561 is a Carmichael number
    for bad in (0, 1, 4, 9, 15, 561, 65536, 3215031751, 10 ** 18 + 1):
        with pytest.raises(ArgumentError):
            require_prime(bad)
    with pytest.raises(CapabilityError, match="3317044064679887385961981"):
        require_prime(PRIMALITY_CAP)


def test_prime_power_base():
    assert prime_power_base(8) == (2, 3)
    assert prime_power_base(9) == (3, 2)
    assert prime_power_base(5) == (5, 1)
    with pytest.raises(ArgumentError):
        prime_power_base(12)
    with pytest.raises(ArgumentError):
        prime_power_base(1)


def test_lucas_binom_examples():
    assert lucas_binom(5, 2, 2) == 0
    assert lucas_binom(7, 3, 2) == 1
    assert lucas_binom(5, 2, 5) == 0
    assert lucas_binom(6, 2, 3) == 0
    assert lucas_binom(4, 2, 3) == 0


def test_lucas_binom_matches_factorials():
    # n > m included: math.comb is 0 there
    for p in (2, 3, 5, 7, 11):
        for m in range(61):
            for n in range(61):
                assert lucas_binom(m, n, p) == math.comb(m, n) % p


def test_lucas_binom_out_of_range():
    assert lucas_binom(3, 5, 2) == 0
    assert lucas_binom(0, 0, 3) == 1
    with pytest.raises(ArgumentError):
        lucas_binom(-1, 0, 2)
    with pytest.raises(ArgumentError):
        lucas_binom(3, -1, 2)


def test_lucas_binom_checks_its_arguments_before_answering():
    # the n > m shortcut would answer 0, and the empty digit loop 1
    for m, n, p in ((3, 5, 4), (0, 0, 1), (-1, 0, 2), (0, -1, 2)):
        with pytest.raises(ArgumentError):
            lucas_binom(m, n, p)


def test_lucas_row_matches_factorials():
    # widths below, at and past m + 1 cover truncation and zero padding
    for p in (2, 3, 5, 7, 11):
        for m in range(61):
            for width in (0, m, m + 1, m + 5):
                assert lucas_row(m, p, width) == [math.comb(m, n) % p for n in range(width)]


def test_lucas_row_agrees_with_lucas_binom_on_the_lucas_suite_grid():
    # the lucas suite checks lucas_rows against Pascal's rule, and
    # test_lucas_rows_agree_with_lucas_row_on_the_lucas_suite_grid carries
    # that evidence to lucas_row on the same grid; entry by entry here it
    # reaches the kernel of lucas_binom: Pascal -> lucas_rows -> lucas_row
    # -> lucas_binom
    width = LUCAS_BOUND + 1
    for p in LUCAS_PRIMES:
        for m in range(width):
            assert [lucas_binom(m, n, p) for n in range(width)] == lucas_row(m, p, width)


def test_lucas_row_asks_at_most_width_binomials_per_digit(monkeypatch):
    # only the b <= (width - 1) // place of each digit below width are asked,
    # and the digits past width are not walked; walking every b <= a of the
    # one digit took 0.12 s at p = 1000003. A call past the budget fails at
    # once, before a binomial of a huge b is computed.
    calls = []
    budget = [0]

    def counting(a, b):
        calls.append((a, b))
        assert len(calls) <= budget[0], "more binomials than width per digit"
        return math.comb(a, b)

    monkeypatch.setattr("borelline.digits.comb", counting)
    budget[0] = 3
    assert lucas_row(10 ** 6 + 2, 1000003, 3) == [1, 1000002, 1]
    # (m, p, width, digits below width)
    for m, p, width, walked in ((3 ** 40 - 1, 3, 10, 3), (2 ** 30 + 5, 2, 1, 0),
                                (5 ** 9 - 7, 5, 200, 4)):
        del calls[:]
        budget[0] = width * walked
        assert lucas_row(m, p, width) == [math.comb(m, n) % p for n in range(width)]


def test_lucas_row_checks_its_arguments():
    # the prime first, then the signs; an empty width still checks both
    for m, p, width in ((3, 4, 5), (-1, 1, 5), (3, 6, -1), (0, 9, 0)):
        with pytest.raises(ArgumentError, match="prime"):
            lucas_row(m, p, width)
    for m, p, width in ((-1, 2, 5), (3, 2, -1), (-1, 3, 0)):
        with pytest.raises(ArgumentError, match="nonnegative"):
            lucas_row(m, p, width)


def test_lucas_rows_match_factorials():
    # every prime below 64, and 251, the largest prime a byte holds; limit
    # 60 reaches m = 2p - 1 for every p <= 29, where a block written at
    # b = a + 1 = p would overwrite the block of b = 0
    primes = [p for p in range(2, 64) if all(p % d for d in range(2, p))] + [251]
    for p in primes:
        rows = lucas_rows(60, p)
        assert len(rows) == 61
        for m, row in enumerate(rows):
            assert type(row) is bytes
            assert row == bytes(math.comb(m, n) % p for n in range(61)), (p, m)


def test_lucas_rows_agree_with_lucas_row_on_the_lucas_suite_grid():
    # the lucas suite checks lucas_rows against Pascal's rule; row by row on
    # the same grid, that evidence carries over to lucas_row
    for p in LUCAS_PRIMES:
        rows = lucas_rows(LUCAS_BOUND, p)
        assert len(rows) == LUCAS_BOUND + 1
        for m, row in enumerate(rows):
            assert row == bytes(lucas_row(m, p, LUCAS_BOUND + 1)), (p, m)


def test_lucas_rows_check_their_arguments():
    # the prime first, then the byte bound, then the limit, each named
    for limit, p, message in ((5, 4, "prime, got 4"), (-1, 4, "prime, got 4"),
                              (5, 257, "p < 256, got 257"), (-1, 257, "p < 256, got 257"),
                              (-1, 2, "limit >= 0, got -1")):
        with pytest.raises(ArgumentError, match=message):
            lucas_rows(limit, p)
    assert lucas_rows(0, 2) == lucas_rows(0, 251) == [b"\x01"]


def test_power_sum_unit_values():
    # over the units the sum is -1 exactly when q - 1 divides k, including 0
    for q in (2, 3, 4, 5, 8, 9):
        p = prime_power_base(q)[0]
        for k in range(3 * (q - 1) + 1):
            expected = (p - 1) % p if k % (q - 1) == 0 else 0
            assert power_sum(q, k, include_zero=False) == expected


def test_power_sum_with_zero_kills_constant():
    for q in (2, 3, 4, 5, 8, 9):
        assert power_sum(q, 0, include_zero=True) == 0
        assert power_sum(q, q - 1, include_zero=True) == power_sum(q, q - 1, False)


def test_power_sum_matches_direct():
    for q in (2, 3, 4, 5, 8, 9):
        direct = power_sums_direct(q, 3 * (q - 1))
        for k in range(3 * (q - 1) + 1):
            for include_zero in (False, True):
                assert power_sum(q, k, include_zero) == direct[include_zero][k]


def test_digit_class_sums():
    assert digit_class_sums(5, 2, 2) == (2, 0)
    assert digit_class_sums(0, 2, 2) == (0, 0)
    assert digit_class_sums(25, 3, 2) == (3, 2)


def test_digit_lemma_example():
    verdict = check_digit_lemma(1, 4, 2, 2)
    assert verdict.all_hold
    assert verdict.monotone
    assert verdict.equality_iff_classes
    assert verdict.count_growth


def test_digit_lemma_strict_growth():
    # m' = 7 has digit sum 3 > 1 = digit sum of m = 1, classes cannot match
    verdict = check_digit_lemma(1, 7, 2, 2)
    assert verdict.all_hold
    assert not verdict.equality
    assert not verdict.classes_match


def test_digit_lemma_full_small_grid():
    for p in (2, 3):
        q = p ** 2
        for m in range(q):
            for m_prime in range(m, q ** 2 + 1, q - 1):
                assert check_digit_lemma(m, m_prime, p, 2).all_hold


def test_digit_lemma_validates_inputs():
    with pytest.raises(ArgumentError):
        check_digit_lemma(4, 4, 2, 2)  # m too large for q - 1 = 3
    with pytest.raises(ArgumentError):
        check_digit_lemma(1, 2, 2, 2)  # not congruent mod q - 1
    with pytest.raises(ArgumentError):
        check_digit_lemma(0, 0, 2, 1)  # r must exceed 1
