from __future__ import annotations

import math

import pytest

from borelline import digits, polyfp
from borelline.characters import TruncatedCharacter, digit_data
from borelline.digits import (
    PRIMALITY_CAP,
    ArgumentError,
    CapabilityError,
    RelationError,
    check_digit_lemma,
    expand,
    lucas_rows,
    power_sum,
    power_sums_direct,
    prime_power_base,
    require_prime,
)
from borelline.suites import LUCAS_BOUND, LUCAS_PRIMES
from proof_route import lucas_digit_product


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
    assert digit_data(TruncatedCharacter(7, (0,))) == ((0,), (0,))


def test_digit_sum_and_count():
    # the digit sum and the nonzero-digit count of each residue, read off
    # one expansion by `characters.digit_data`
    assert expand(11, 2) == (1, 1, 0, 1)
    assert digit_data(TruncatedCharacter(2, (0, 2, 11))) == ((0, 1, 3), (0, 1, 3))
    assert expand(25, 3) == (1, 2, 2)
    assert digit_data(TruncatedCharacter(3, (1, 1, 25))) == ((1, 1, 5), (1, 1, 3))


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


# binom(m, n) mod p one entry at a time is `proof_route.lucas_digit_product`,
# the digit product of the reference Lucas search, which takes a proven prime
# and checks nothing; the tests of the Lucas binomial below ask it.


def test_lucas_binom_examples():
    assert lucas_digit_product(5, 2, 2) == 0
    assert lucas_digit_product(7, 3, 2) == 1
    assert lucas_digit_product(5, 2, 5) == 0
    assert lucas_digit_product(6, 2, 3) == 0
    assert lucas_digit_product(4, 2, 3) == 0


def test_lucas_binom_matches_factorials():
    # n > m included: math.comb is 0 there
    for p in (2, 3, 5, 7, 11):
        for m in range(61):
            for n in range(61):
                assert lucas_digit_product(m, n, p) == math.comb(m, n) % p


def test_lucas_binom_out_of_range():
    assert lucas_digit_product(3, 5, 2) == 0
    assert lucas_digit_product(0, 0, 3) == 1


def lucas_row(m, p, width):
    # [binom(m, n) mod p for n in range(width)] from the exact binomials,
    # each by binom(m, n + 1) = binom(m, n) (m - n) / (n + 1): a route apart
    # from both the digit product and Pascal's rule, and fast enough for the
    # lucas suite grid, where math.comb takes seconds
    row, c = [], 1
    for n in range(width):
        row.append(c % p)
        c = c * (m - n) // (n + 1)
    return row


def test_lucas_row_agrees_with_lucas_binom_on_the_lucas_suite_grid():
    # entry by entry on the lucas suite grid, the digit product that the
    # reference Lucas search asks agrees with the exact row
    width = LUCAS_BOUND + 1
    for p in LUCAS_PRIMES:
        for m in range(width):
            assert [lucas_digit_product(m, n, p) for n in range(width)] == lucas_row(m, p, width), (p, m)


def test_lucas_digit_product_asks_one_binomial_per_digit_of_n(monkeypatch):
    # binom(a, b) is asked only for the digit pairs of n, each below p; a
    # binomial of the whole m or n would take seconds at p = 1000003
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return math.comb(a, b)

    monkeypatch.setattr("proof_route.comb", counting)
    p = 1000003
    assert [lucas_digit_product(10 ** 6 + 2, n, p) for n in range(3)] == [1, 1000002, 1]
    assert calls == [(10 ** 6 + 2, 1), (10 ** 6 + 2, 2)]
    del calls[:]
    # m = 5 + 3p and n = 2 + p: binom(5, 2) binom(3, 1) = 30
    assert lucas_digit_product(5 + 3 * p, 2 + p, p) == 30
    assert calls == [(5, 2), (3, 1)]
    del calls[:]
    for m, p, n in ((3 ** 40 - 1, 3, 10), (5 ** 9 - 1, 5, 199)):
        assert lucas_digit_product(m, n, p) == math.comb(m, n) % p
        assert len(calls) == len(expand(n, p))
        del calls[:]


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
    # the same grid they agree with the exact row, and so, by the test above,
    # with the digit product: Pascal -> lucas_rows -> exact row -> digit product
    for p in LUCAS_PRIMES:
        rows = lucas_rows(LUCAS_BOUND, p)
        assert len(rows) == LUCAS_BOUND + 1
        for m, row in enumerate(rows):
            assert row == bytes(lucas_row(m, p, LUCAS_BOUND + 1)), (p, m)


def test_lucas_rows_check_their_arguments():
    # the prime first, then the byte bound, then the limit, each named; a
    # prime past a byte is a capability limit (exit 3), not bad input
    for limit, p, error, message in (
            (5, 4, ArgumentError, "prime, got 4"), (-1, 4, ArgumentError, "prime, got 4"),
            (5, 257, CapabilityError, "p < 256, got 257"),
            (-1, 257, CapabilityError, "p < 256, got 257"),
            (-1, 2, ArgumentError, "limit >= 0, got -1")):
        with pytest.raises(error, match=message):
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


PRIME_POWERS_TO_64 = tuple(q for q in range(2, 65)
                           if len({d for d in range(2, q + 1) if q % d == 0
                                   and all(d % e for e in range(2, d))}) == 1)


def test_power_sum_matches_direct():
    # the oracle's product table and the closed form agree at every prime
    # power q <= 64, the 23 field orders the lab builds among them, for
    # every k <= 3(q - 1) and both ranges
    assert len(PRIME_POWERS_TO_64) == 27
    for q in PRIME_POWERS_TO_64:
        direct = power_sums_direct(q, 3 * (q - 1))
        assert all(len(sums) == 3 * (q - 1) + 1 for sums in direct.values())
        for k in range(3 * (q - 1) + 1):
            for include_zero in (False, True):
                assert power_sum(q, k, include_zero) == direct[include_zero][k], (q, k, include_zero)


def test_the_power_sum_oracle_catches_a_wrong_product(monkeypatch):
    # the oracle is a route apart from the closed form: a product table
    # built, after the modulus walk, from a wrong product, a b + 1 for a b,
    # gives sums the closed form refutes, or sums outside the prime field.
    # (a b x would not do: the k-th power of t is then t^k x^k, and x^k = 1
    # wherever the sum over the units is nonzero)
    real_mul, real_walk = polyfp.mul_mod, polyfp.primitive_walk
    walked = []

    def off_by_one(a, b, f, p):
        ab = real_mul(a, b, f, p)
        return ((ab[0] + 1) % p,) + ab[1:] if walked else ab

    def walking(*args):
        found = real_walk(*args)
        walked.append(found)
        return found

    monkeypatch.setattr(polyfp, "mul_mod", off_by_one)
    monkeypatch.setattr(polyfp, "primitive_walk", walking)
    for q in (4, 9):
        walked.clear()
        try:
            direct = power_sums_direct(q, 3 * (q - 1))
        except RelationError:
            continue
        assert any(power_sum(q, k, z) != direct[z][k] for k in range(3 * q - 2) for z in (False, True))


def digit_class_sums(m, p, r) -> tuple[int, ...]:
    """The reference route of the position-class digit sums: entry i adds
    the digits of m in positions congruent to i mod r, each digit read off
    m by its own division."""
    sums = [0] * r
    pos = 0
    while p ** pos <= m:
        sums[pos % r] += m // p ** pos % p
        pos += 1
    return tuple(sums)


def test_digit_class_sums():
    assert digit_class_sums(5, 2, 2) == (2, 0)
    assert digit_class_sums(0, 2, 2) == (0, 0)
    assert digit_class_sums(25, 3, 2) == (3, 2)
    # the digit lemma's class clause is the reference route's comparison
    for p in (2, 3, 5):
        for r in (2, 3):
            q = p ** r
            for m in range(q):
                for m_prime in range(m, q ** 2 + 1, q - 1):
                    want = digit_class_sums(m_prime, p, r) == digit_class_sums(m, p, r)
                    assert check_digit_lemma(m, m_prime, p, r).classes_match is want


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


def test_check_digit_lemma_proves_p_once_and_expands_each_number_once(monkeypatch):
    # f, the nonzero-digit counts and the class sums are read off one
    # expansion of m and one of m'; each expand and each digit sum and
    # nonzero-digit count proved p again and expanded again, about 4.3
    # expansions and 6.3 primality proofs per case of the digit-lemma suite
    expansions, proofs = [], []
    real_expand, real_prime = digits._expand, digits.require_prime

    def expanding(n, p):
        expansions.append(n)
        return real_expand(n, p)

    def proving(p):
        proofs.append(p)
        return real_prime(p)

    monkeypatch.setattr(digits, "_expand", expanding)
    monkeypatch.setattr(digits, "require_prime", proving)
    for m, m_prime, p, r in ((1, 4, 2, 2), (1, 7, 2, 2), (5, 77, 3, 2), (0, 0, 3, 3)):
        expansions.clear()
        proofs.clear()
        verdict = check_digit_lemma(m, m_prime, p, r)
        assert verdict.all_hold
        assert expansions == [m, m_prime]
        assert proofs == [p]


def test_digit_lemma_validates_inputs():
    with pytest.raises(ArgumentError):
        check_digit_lemma(4, 4, 2, 2)  # m too large for q - 1 = 3
    with pytest.raises(ArgumentError):
        check_digit_lemma(1, 2, 2, 2)  # not congruent mod q - 1
    with pytest.raises(ArgumentError):
        check_digit_lemma(0, 0, 2, 1)  # r must exceed 1
