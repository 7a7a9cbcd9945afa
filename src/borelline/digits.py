"""Base-p digit combinatorics.

Digit expansions (plain tuples of base-p digits, least significant first),
digit sums, binomial coefficients mod p via the digitwise product rule,
power sums over finite fields, and the digit-class growth law for residues
m' = m mod (p^r - 1). All arithmetic is exact.

Binomials come one entry at a time (`lucas_binom`, for a single entry at a
huge m) or a row at a time (`lucas_row`, binom(m, n) for n below a width:
one primality check, then one block of the row per digit value).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import polyfp


class ArgumentError(ValueError):
    """Malformed input to a combinatorial routine."""


class CapabilityError(RuntimeError):
    """The request is beyond the deliberately small scale of this library."""


class RelationError(RuntimeError):
    """An exact identity the computation relies on fails: a defining relation
    of the constructed matrices, or an internal invariant checked on the way."""


# Miller-Rabin with the first 13 prime bases is deterministic below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_CAP = 3317044064679887385961981


def require_prime(p) -> int:
    """Return p if it is prime; raise ArgumentError if not, and
    CapabilityError at or above PRIMALITY_CAP, where primality is unproven."""
    if not isinstance(p, int) or p < 2:
        raise ArgumentError(f"p must be a prime, got {p!r}")
    if p < 1 << 16:
        # trial division, at most 255 steps here, is cheapest for the small
        # primes that nearly every call passes
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise ArgumentError(f"p must be a prime, got {p}")
            d += 1
        return p
    if p >= PRIMALITY_CAP:
        raise CapabilityError(
            f"primality is proven only below the cap {PRIMALITY_CAP}, got p = {p}"
        )
    # base 2 alone rejects every even p here
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ArgumentError(f"p must be a prime, got {p}")
    return p


def prime_power_base(q) -> tuple[int, int]:
    """Split a prime power q as (p, r) with q = p**r."""
    if not isinstance(q, int) or q < 2:
        raise ArgumentError(f"q must be a prime power, got {q!r}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    r = 0
    n = q
    while n % p == 0:
        n //= p
        r += 1
    if n != 1:
        raise ArgumentError(f"q must be a prime power, got {q}")
    return p, r


def expand(n, p) -> tuple[int, ...]:
    """The base-p digits of n >= 0, least significant first, with no
    trailing zeros: zero has the empty expansion."""
    require_prime(p)
    if n < 0:
        raise ArgumentError(f"digit expansion needs n >= 0, got {n}")
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(digits)


def digit_sum(n, p) -> int:
    """f(n): the sum of the base-p digits of n."""
    return sum(expand(n, p))


def nonzero_digit_count(n, p) -> int:
    """M_n: how many base-p digits of n are nonzero."""
    return sum(1 for d in expand(n, p) if d)


def lucas_binom(m, n, p) -> int:
    """binom(m, n) mod p as the product over base-p digits of binom(a, b) mod p
    (Lucas). It is 0 when n > m or at the first digit pair with b > a; a
    factor with b <= a < p is `math.comb(a, b) % p`, which is prime to p.
    The digits of m above those of n contribute binom(a, 0) = 1."""
    require_prime(p)
    if m < 0 or n < 0:
        raise ArgumentError("binomial arguments must be nonnegative")
    return _lucas_digit_product(m, n, p)


def _lucas_digit_product(m, n, p) -> int:
    """`lucas_binom` for a proven prime p and m, n >= 0, unchecked: for
    callers that have checked p once and ask many binomials."""
    if n > m:
        return 0
    out = 1
    while n:
        m, a = divmod(m, p)
        n, b = divmod(n, p)
        if b > a:
            return 0
        out = out * comb(a, b) % p
    return out


def lucas_row(m, p, width) -> list[int]:
    """[binom(m, n) mod p for n in range(width)] by the digit product rule.

    Built a digit of m at a time, least significant first: with the row of
    m mod place in hand (its first `place` entries), the row of the next
    digit a is the blocks binom(a, b) * row at offsets b * place, b <= a,
    then zeros up to p * place. The walk stops once place >= width, since
    the digits of m from there on only contribute binom(a, 0) = 1, and each
    digit asks at most width binomials, b <= (width - 1) // place.
    After one primality check, each digit costs O(width)."""
    require_prime(p)
    if m < 0 or width < 0:
        raise ArgumentError("binomial row arguments must be nonnegative")
    row = [1]
    place = 1
    while m and place < width:
        m, a = divmod(m, p)
        block = row
        row = []
        for b in range(min(a, (width - 1) // place) + 1):
            c = comb(a, b) % p
            row += block if c == 1 else [c * v % p for v in block]
        place *= p
        row += [0] * (min(place, width) - len(row))
    return (row + [0] * (width - len(row)))[:width]


def power_sum(q, k, include_zero=True) -> int:
    """Sum of t**k over F_q (or its units), as a residue mod p.

    Closed form: the sum over units is -1 exactly when (q-1) | k, else 0.
    Including zero only changes k = 0, where the full sum is q = 0 in F_p.
    """
    p, _ = prime_power_base(q)
    if k < 0:
        raise ArgumentError("power sums need k >= 0")
    if include_zero and k == 0:
        return 0
    return (p - 1) if k % (q - 1) == 0 else 0


def power_sums_direct(q, k_max) -> dict[bool, tuple[int, ...]]:
    """Brute-force oracle for power_sum: enumerate F_q and add t**k, for
    every k in 0..k_max at once, keyed like power_sum's `include_zero`:
    the sums over the units (False) and over all of F_q (True).

    Builds F_q as F_p[x]/(f) for the first irreducible f of the right degree,
    searched once per field, independently of the closed form above. One
    pass over the field walks each element's powers upward in k, one
    product per step, with 0**0 = 1.
    """
    p, r = prime_power_base(q)
    if k_max < 0:
        raise ArgumentError("power sums need k >= 0")
    f = _field_modulus(p, r)
    units, whole = [()] * (k_max + 1), [()] * (k_max + 1)
    elems = [()]
    for _ in range(r):
        elems = [e + (c,) for e in elems for c in range(p)]
    for coords in elems:
        t = polyfp.trim(coords)
        tk = (1,)
        for k in range(k_max + 1):
            if k:
                tk = polyfp.poly_mod(polyfp.mul(tk, t, p), f, p)
            whole[k] = polyfp.add(whole[k], tk, p)
            if t:
                units[k] = polyfp.add(units[k], tk, p)
    # each sum is Galois invariant, so it must sit in the prime field
    if any(polyfp.degree(total) > 0 for total in units + whole):
        raise RelationError("power sum escaped the prime field")
    return {include_zero: tuple(total[0] if total else 0 for total in totals)
            for include_zero, totals in ((False, units), (True, whole))}


@lru_cache(maxsize=None)
def _field_modulus(p, r):
    """The modulus of `power_sums_direct`'s F_q, searched once per field."""
    return polyfp.least_irreducible(p, r)


def digit_class_sums(m, p, r) -> tuple[int, ...]:
    """Position-class digit sums: entry i adds the digits of m sitting in
    positions congruent to i mod r."""
    require_prime(p)
    if r < 1:
        raise ArgumentError("need r >= 1")
    sums = [0] * r
    for pos, d in enumerate(expand(m, p)):
        sums[pos % r] += d
    return tuple(sums)


@dataclass(frozen=True)
class DigitLemmaVerdict:
    """Which clauses of the digit growth law hold for (m, m')."""

    monotone: bool            # f(m') >= f(m)
    equality: bool            # f(m') == f(m)
    classes_match: bool       # class sums of m' reproduce the digits of m
    equality_iff_classes: bool
    count_growth: bool        # equality forces M_{m'} >= M_m

    @property
    def all_hold(self) -> bool:
        return self.monotone and self.equality_iff_classes and self.count_growth


def check_digit_lemma(m, m_prime, p, r) -> DigitLemmaVerdict:
    """Check the three digit-class clauses for 0 <= m <= p^r - 1 and
    m' = m mod (p^r - 1)."""
    require_prime(p)
    if r <= 1:
        raise ArgumentError("the digit-class law needs r > 1")
    q = p ** r
    if not 0 <= m <= q - 1:
        raise ArgumentError(f"m must lie in [0, {q - 1}], got {m}")
    if m_prime < 0 or (m_prime - m) % (q - 1) != 0:
        raise ArgumentError(f"m' must be congruent to m mod {q - 1}")

    f_m = digit_sum(m, p)
    f_mp = digit_sum(m_prime, p)
    m_digits = expand(m, p)
    classes_match = digit_class_sums(m_prime, p, r) == m_digits + (0,) * (r - len(m_digits))
    equality = f_mp == f_m
    return DigitLemmaVerdict(
        monotone=f_mp >= f_m,
        equality=equality,
        classes_match=classes_match,
        equality_iff_classes=equality == classes_match,
        count_growth=(not equality)
        or nonzero_digit_count(m_prime, p) >= nonzero_digit_count(m, p),
    )
