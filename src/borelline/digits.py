"""Base-p digit combinatorics.

Digit expansions (plain tuples of base-p digits, least significant first),
digit sums, binomial coefficients mod p via the digitwise product rule,
power sums over finite fields, and the digit-class growth law for residues
m' = m mod (p^r - 1). All arithmetic is exact.

Binomials come in two shapes, by Lucas's rule. Single entries come from
`_lucas_digit_product`, the digit product itself, for callers that have
checked p once: the Lucas search of `characters.lucas_criterion` at huge m,
and the costandard modules and their level bridge in `sl2lab`. A whole
triangle of bytes comes from `lucas_rows` (every row up to a limit, each
from the row of m // p, for p < 256), for the `lucas` suite, which holds it
to Pascal's rule, `_pascal_rows_mod` (p < 128): rows by addition alone,
which also count the socle and the head of `sl2lab`'s induced modules.
"""

from __future__ import annotations

from math import comb, prod
from operator import attrgetter

from . import polyfp


class ArgumentError(ValueError):
    """Malformed input to a combinatorial routine."""


class CapabilityError(RuntimeError):
    """The request is beyond the deliberately small scale of this library."""


class RelationError(RuntimeError):
    """An exact identity the computation relies on fails: a defining relation
    of the constructed matrices, or an internal invariant checked on the way."""


def record(cls):
    """Make cls a frozen record of the fields it annotates, in order, as
    `@dataclass(frozen=True)` would, without importing `dataclasses`.

    A class attribute is its field's default; other class attributes are
    not fields. The generated `__init__` takes the fields by position or
    keyword, then calls `__post_init__` if the class has one, which may set
    a field through `object.__setattr__`. Records repr as
    Name(field=value, ...), equal a record of the same class with equal
    fields, hash as the tuple of their fields and raise AttributeError on
    assignment and deletion."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f"_default_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_default_{n}" if n in cls.__dict__ else f", {n}" for n in names)
    body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    namespace = {"_set": object.__setattr__, **defaults}
    exec(f"def __init__(self{params}):{body or ' pass'}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    if len(names) > 1:
        fields = attrgetter(*names)
    else:  # attrgetter gives one name's bare value, and takes no zero names
        def fields(self):
            return tuple(getattr(self, n) for n in names)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = init, __repr__, __eq__, __hash__
    cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_deletion
    cls.__match_args__ = names
    return cls


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


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
    return _expand(n, p)


def _expand(n, p) -> tuple[int, ...]:
    """`expand` unchecked, for callers that have proven p and hold n >= 0:
    each expands a number once and reads its digit sum, nonzero-digit count
    and class sums off the one tuple."""
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(digits)


def _class_sums(digits, r) -> tuple[int, ...]:
    """Position-class sums of a digit tuple: entry i adds the digits in
    positions congruent to i mod r."""
    sums = [0] * r
    for pos, d in enumerate(digits):
        sums[pos % r] += d
    return tuple(sums)


def _fine_dim(n, p) -> int:
    """dim L(n), the simple SL_2-module of highest weight n >= 0 in
    characteristic p, for a proven prime p, by Fine's formula: the product
    of (d + 1) over the base-p digits d of n, the count of k <= n with
    binom(n, k) prime to p."""
    return prod(d + 1 for d in _expand(n, p))


def _lucas_digit_product(m, n, p) -> int:
    """binom(m, n) mod p as the product over base-p digits of binom(a, b) mod p
    (Lucas), for a proven prime p and m, n >= 0, unchecked: for callers that
    have checked p once and ask many binomials. It is 0 when n > m or at the
    first digit pair with b > a; a factor with b <= a < p is
    `math.comb(a, b) % p`, which is prime to p. The digits of m above those
    of n contribute binom(a, 0) = 1."""
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


def lucas_rows(limit, p) -> list[bytes]:
    """Rows 0..limit of binom(m, n) mod p, each as limit + 1 bytes.

    Built top-down by the digit product rule: for m = a + p * m' with a < p,
    binom(m, b + p * n') = binom(a, b) * binom(m', n') mod p, which is 0 for
    b > a. So row m is row m' = m // p, already built, written at the strided
    offsets b, b + p, ... for each b <= a, scaled by binom(a, b) mod p through
    a 256-byte table where that factor is not 1. Bytes hold an entry only
    below 256, hence p < 256 (ArgumentError otherwise, after the primality
    check), and limit >= 0."""
    require_prime(p)
    if p >= 256:
        raise ArgumentError(f"Lucas rows are kept in bytes, which needs p < 256, got {p}")
    if limit < 0:
        raise ArgumentError(f"Lucas rows need limit >= 0, got {limit}")
    width = limit + 1
    # binom(a, b) mod p for b <= a < p is a unit; a factor 1 needs no table
    tables = [None, None] + [bytes(c * v % p for v in range(256)) for c in range(2, p)]
    digit_blocks = [[(b, len(range(b, width, p)), tables[comb(a, b) % p]) for b in range(a + 1)]
                    for a in range(min(p, width))]
    rows = [bytes([1]) + bytes(limit)]
    for m in range(1, width):
        parent = rows[m // p]
        row = bytearray(width)
        for b, count, table in digit_blocks[m % p]:
            row[b::p] = parent[:count] if table is None else parent[:count].translate(table)
        rows.append(bytes(row))
    return rows


def _pascal_rows_mod(limit, p):
    """Rows 0..limit of the Pascal triangle mod p, by exact addition only.

    Each row is limit + 1 bytes, zero past its last entry. Read as one
    little-endian integer r, the next row is r + (r << 8) reduced bytewise
    mod p: every byte is the sum of two neighbours, below 2p < 256, so no
    byte carries into the next. Hence p < 128 (ArgumentError otherwise)."""
    if p >= 128:
        raise ArgumentError(f"Pascal rows are kept in bytes, which needs p < 128, got {p}")
    width = limit + 1
    reduce = (bytes(range(p)) * (256 // p + 1))[:256]  # byte i to i % p
    row = bytes([1]) + bytes(limit)
    rows = [row]
    for _ in range(limit):
        r = int.from_bytes(row, "little")
        row = (r + (r << 8)).to_bytes(width, "little").translate(reduce)
        rows.append(row)
    return rows


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

    Builds F_q as F_p[x]/(f) for the f that `polyfp.primitive_walk` finds
    and proves a field, independently of the closed form above, and its
    product table once, q^2 products by `polyfp.mul_mod`. One pass over the
    units walks each element's powers upward in k by table reads, with
    0**0 = 1, and adds their coordinates as ints, reduced mod p at the end.
    """
    p, r = prime_power_base(q)
    if k_max < 0:
        raise ArgumentError("power sums need k >= 0")

    def product(a, b, f):
        return polyfp.mul_mod(a, b, f, p)

    f, _ = polyfp.primitive_walk(p, r, product)
    elems = [()]
    for _ in range(r):
        elems = [e + (c,) for e in elems for c in range(p)]
    index = {coords: i for i, coords in enumerate(elems)}
    table = [[index[product(a, b, f)] for b in elems] for a in elems]
    one = index[(1,) + (0,) * (r - 1)]
    # units[k][i]: coordinate i of the sum of t**k over the units, as an int
    units = [[0] * r for _ in range(k_max + 1)]
    for times_t in table[1:]:  # elems[0] is zero
        tk = one
        for total in units:
            for i, c in enumerate(elems[tk]):
                total[i] += c
            tk = times_t[tk]
    # each sum is Galois invariant, so it must sit in the prime field
    if any(c % p for total in units for c in total[1:]):
        raise RelationError("power sum escaped the prime field")
    # zero adds 0**0 = 1 at k = 0 and nothing past it
    return {False: tuple(total[0] % p for total in units),
            True: tuple((total[0] + (k == 0)) % p for k, total in enumerate(units))}


@record
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
    m' = m mod (p^r - 1). p is proven once and m and m' expanded once
    each; f, the nonzero-digit counts M and the position-class sums of m'
    are read off the two expansions."""
    require_prime(p)
    if r <= 1:
        raise ArgumentError("the digit-class law needs r > 1")
    q = p ** r
    if not 0 <= m <= q - 1:
        raise ArgumentError(f"m must lie in [0, {q - 1}], got {m}")
    if m_prime < 0 or (m_prime - m) % (q - 1) != 0:
        raise ArgumentError(f"m' must be congruent to m mod {q - 1}")

    m_digits, mp_digits = _expand(m, p), _expand(m_prime, p)
    f_m, f_mp = sum(m_digits), sum(mp_digits)
    classes_match = _class_sums(mp_digits, r) == m_digits + (0,) * (r - len(m_digits))
    equality = f_mp == f_m
    return DigitLemmaVerdict(
        monotone=f_mp >= f_m,
        equality=equality,
        classes_match=classes_match,
        equality_iff_classes=equality == classes_match,
        count_growth=(not equality)
        or sum(map(bool, mp_digits)) >= sum(map(bool, m_digits)),
    )
