"""Characters of the units of an algebraic closure, as compatible residue towers.

A character restricted to the level-n subfield F_(p^(n!)) is t -> t^(m_n);
the residues m_n determine each other downward mod p^(n!) - 1. Symbolic
characters (integer powers, twisted digit sums, the trivial character) can
be truncated to any level and classified exactly; raw residue towers can
only be classified at the level observed, and the routines here say which
level that was instead of claiming anything about the limit.
"""

from __future__ import annotations

from math import factorial

from .digits import (
    ArgumentError, RelationError, _class_sums, _expand, _lucas_digit_product, expand, record,
    require_prime,
)
from .towers import LEVEL_CAP, CapabilityError, require_level


def _shown(value) -> str:
    """value as an error names it: its repr, or past 40 characters its
    first and last 12 with its digit count or length, so that an error
    line stays short however long the input. An int that long is read
    arithmetically, never converted whole: Python refuses to convert an
    int past 4 300 digits to a string."""
    if isinstance(value, int) and not -10 ** 39 < value < 10 ** 40:
        sign, n = "-" * (value < 0), abs(value)
        digits = (n.bit_length() - 1) * 1233 >> 12  # at most log10(n), below the count
        while n >= 10 ** digits:
            digits += 1
        head = n // 10 ** (digits - 12 + len(sign))
        return f"{sign}{head}...{n % 10 ** 12:012d} ({digits} digits)"
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"{text[:12]}...{text[-12:]} ({len(text)} characters)"


@record
class TruncatedCharacter:
    """Residues m_1..m_N, N <= LEVEL_CAP; level n constrains m_n to [0, p^(n!) - 2].

    Compatibility between levels is checked by is_compatible, not forced
    here, so that defective towers can be inspected and reported.
    """

    p: int
    residues: tuple[int, ...]

    def __post_init__(self):
        require_prime(self.p)
        object.__setattr__(self, "residues", tuple(self.residues))
        if not self.residues:
            raise ArgumentError("a truncated character needs at least one level")
        require_level(len(self.residues))
        for n, m in enumerate(self.residues, start=1):
            hi = self.p ** factorial(n) - 2
            if not 0 <= m <= hi:
                raise ArgumentError(
                    f"residue at level {n} must lie in [0, {_shown(hi)}], got {_shown(m)}"
                )

    @property
    def level(self) -> int:
        return len(self.residues)

    def residue(self, n) -> int:
        return self.residues[n - 1]


@record
class CompatibilityVerdict:
    ok: bool
    failing_pair: tuple[int, int] | None = None

    def __bool__(self):
        return self.ok


def is_compatible(tc: TruncatedCharacter) -> CompatibilityVerdict:
    """Check m_i = m_j mod (p^(i!) - 1) for every i < j; report the first gap."""
    for i in range(1, tc.level + 1):
        mod = tc.p ** factorial(i) - 1
        for j in range(i + 1, tc.level + 1):
            if (tc.residue(j) - tc.residue(i)) % mod != 0:
                return CompatibilityVerdict(False, (i, j))
    return CompatibilityVerdict(True)


def digit_data(tc: TruncatedCharacter) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The digit sums f(m_n) and nonzero-digit counts per level, off one
    unchecked expansion of each residue: the TruncatedCharacter proves p."""
    expansions = [_expand(m, tc.p) for m in tc.residues]
    return tuple(map(sum, expansions)), tuple(sum(map(bool, d)) for d in expansions)


@record
class GaloisTwist:
    """A truncated Galois-group element: residues g_n mod n!, one per level up to LEVEL_CAP.

    The top residue determines the lower ones, since g_(n+1) = g_n mod n!.
    """

    residues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "residues", tuple(self.residues))
        if not self.residues:
            raise ArgumentError("a twist needs at least one level")
        require_level(len(self.residues))
        for n, g in enumerate(self.residues, start=1):
            if not 0 <= g < factorial(n):
                raise ArgumentError(f"twist residue at level {n} out of range: {_shown(g)}")
        for n in range(1, len(self.residues)):
            if self.residues[n] % factorial(n) != self.residues[n - 1]:
                raise ArgumentError(
                    f"twist residues at levels {n} and {n + 1} are incompatible"
                )

    @classmethod
    def from_position(cls, e, level):
        if e < 0:
            raise ArgumentError("digit positions are nonnegative")
        require_level(level)
        return cls(tuple(e % factorial(n) for n in range(1, level + 1)))

    @property
    def level(self) -> int:
        return len(self.residues)

    def residue(self, n) -> int:
        return self.residues[n - 1]

    def reduce_to(self, n) -> "GaloisTwist":
        if n > self.level:
            raise ArgumentError("cannot extend a twist upward; lifts are not unique")
        return GaloisTwist(self.residues[:n])


@record
class RationalPower:
    """t -> t^power with an integer power of either sign."""

    power: int


@record
class TwistedDigitSum:
    """t -> prod_i (t^(p^(g_i)))^(theta_i): a digit pattern with Galois twists.

    Twists must be pairwise distinct; digit values theta_i are checked
    against p wherever p is known.
    """

    factors: tuple[tuple[int, GaloisTwist], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple((int(t), w) for t, w in self.factors))
        twists = [w for _, w in self.factors]
        if len(set(twists)) != len(twists):
            raise ArgumentError("twists in a digit sum must be pairwise distinct")
        for theta, _ in self.factors:
            if theta < 1:
                raise ArgumentError("digit values must be at least 1")


@record
class Trivial:
    """The trivial character."""


SymbolicCharacter = RationalPower | TwistedDigitSum | Trivial


def _check_digit_values(sc: TwistedDigitSum, p):
    for theta, _ in sc.factors:
        if theta >= p:
            raise ArgumentError(f"digit value {_shown(theta)} is not a base-{p} digit")


def pattern_residue(factors, p, n) -> int:
    """The level-n residue sum_i theta_i p^(g_(i,n)) mod (p^(n!) - 1) of
    the digit pattern given as (theta_i, twist g_i) pairs."""
    return sum(theta * p ** w.residue(n) for theta, w in factors) % (p ** factorial(n) - 1)


def truncate(sc: SymbolicCharacter, p, level) -> TruncatedCharacter:
    """Residue tower of a symbolic character at levels 1..level."""
    require_prime(p)
    require_level(level)
    if isinstance(sc, Trivial):
        residues = [0] * level
    elif isinstance(sc, RationalPower):
        residues = [sc.power % (p ** factorial(n) - 1) for n in range(1, level + 1)]
    elif isinstance(sc, TwistedDigitSum):
        _check_digit_values(sc, p)
        for _, w in sc.factors:
            if w.level < level:
                raise ArgumentError(
                    f"twist known only to level {w.level}, cannot truncate at {level}"
                )
        residues = [pattern_residue(sc.factors, p, n) for n in range(1, level + 1)]
    else:
        raise ArgumentError(f"not a symbolic character: {sc!r}")
    return TruncatedCharacter(p, tuple(residues))


def is_trivial_symbolic(sc: SymbolicCharacter) -> bool:
    """Semantic triviality: t^0 and the empty digit sum are trivial too."""
    if isinstance(sc, Trivial):
        return True
    if isinstance(sc, RationalPower):
        return sc.power == 0
    if isinstance(sc, TwistedDigitSum):
        return not sc.factors
    raise ArgumentError(f"not a symbolic character: {sc!r}")


@record
class X0Pattern:
    """Stable digit pattern m_n = sum_i theta_i p^(g_(i,n)).

    stabilized_at is the first level of the observed window where the digit
    sum and the nonzero-digit count both settled; None means the pattern is
    known exactly from a symbolic source but settles beyond the level cap.
    """

    p: int
    level: int
    stabilized_at: int | None
    factors: tuple[tuple[int, GaloisTwist], ...]

    def residue_at(self, n) -> int:
        return pattern_residue(self.factors, self.p, n)


@record
class NoStablePattern:
    """Diagnostic for towers whose digit data kept moving up to the cap."""

    break_level: int
    reason: str
    f_sequence: tuple[int, ...]
    nonzero_counts: tuple[int, ...]


def extract_pattern(tc: TruncatedCharacter) -> X0Pattern | NoStablePattern:
    """Read the digit pattern off a residue tower, when one is observable.

    Requires the digit sum f and the nonzero-digit count to be constant on a
    window [N0, N] with N0 < N: a single level is never taken as evidence.
    The factors are read from the top residue, whose digit positions refine
    all lower levels; each step inside the window is checked against the
    position-class law.
    """
    verdict = is_compatible(tc)
    if not verdict:
        raise ArgumentError(f"incompatible residue tower at levels {verdict.failing_pair}")
    n_top = tc.level
    if all(m == 0 for m in tc.residues):
        return X0Pattern(tc.p, n_top, 1, ())
    # each residue expanded once, p proven by the TruncatedCharacter
    expansions = [_expand(m, tc.p) for m in tc.residues]
    fs = tuple(map(sum, expansions))
    counts = tuple(sum(map(bool, digits)) for digits in expansions)
    if n_top < 2:
        return NoStablePattern(1, "single level observed", fs, counts)
    n0 = n_top
    while n0 > 1 and fs[n0 - 2] == fs[n_top - 1] and counts[n0 - 2] == counts[n_top - 1]:
        n0 -= 1
    if n0 == n_top:
        # report the last level where either quantity moved
        reason = (
            "digit sum still growing"
            if fs[n_top - 2] != fs[n_top - 1]
            else "nonzero digit count still moving"
        )
        return NoStablePattern(n_top, reason, fs, counts)

    # inside the window, positions of each residue must refine the previous
    # level's digits class by class: the digits of level n + 1 summed over
    # the positions congruent mod n! reproduce those of level n
    for n in range(n0, n_top):
        mod = factorial(n)
        if _class_sums(expansions[n], mod) != (expansions[n - 1] + (0,) * mod)[:mod]:
            return NoStablePattern(
                n + 1, "digit classes do not refine the level below", fs, counts
            )

    factors = tuple(
        (d, GaloisTwist.from_position(pos, n_top))
        for pos, d in enumerate(expansions[-1])
        if d
    )
    pattern = X0Pattern(tc.p, n_top, n0, factors)
    for n in range(1, n_top + 1):
        if pattern.residue_at(n) != tc.residue(n):
            raise RelationError("extracted pattern does not reproduce its source")
    return pattern


@record
class CharacterClass:
    """Exact dichotomy: bounded digit sums (with a pattern) or unbounded."""

    bounded: bool
    pattern: X0Pattern | None
    note: str = ""


def classify_exact(sc: SymbolicCharacter, p, level=LEVEL_CAP) -> CharacterClass:
    """Decide the bounded/unbounded digit-sum dichotomy from symbolic data.

    Integer powers are bounded exactly when the power is nonnegative; digit
    sums and the trivial character are always bounded.
    """
    require_prime(p)
    factors = ()  # the trivial character is the empty digit pattern
    if isinstance(sc, RationalPower):
        lam = sc.power
        if lam < 0:
            return CharacterClass(False, None)
        positions = [(pos, d) for pos, d in enumerate(expand(lam, p)) if d]
        if positions and positions[-1][0] >= factorial(level):
            return CharacterClass(
                True, None, note=f"digit positions exceed level-{level} resolution"
            )
        factors = tuple(
            (d, GaloisTwist.from_position(pos, level)) for pos, d in positions
        )
    elif isinstance(sc, TwistedDigitSum):
        _check_digit_values(sc, p)
        reduced = []
        for theta, w in sc.factors:
            if w.level < level:
                raise ArgumentError(
                    f"twist known only to level {w.level}, cannot classify at {level}"
                )
            reduced.append((theta, w.reduce_to(level)))
        if len({w for _, w in reduced}) != len(reduced):
            raise CapabilityError(
                f"twists collide at level {level}; the pattern is not separable here"
            )
        factors = tuple(sorted(reduced, key=lambda fw: fw[1].residues))
    elif not isinstance(sc, Trivial):
        raise ArgumentError(f"not a symbolic character: {sc!r}")
    return CharacterClass(True, X0Pattern(p, level, _settle_level(factors, p, level), factors))


def _settle_level(factors, p, level):
    """First level where the factor positions separate and nothing reduces."""
    for n in range(1, level + 1):
        pos = [w.residue(n) for _, w in factors]
        if len(set(pos)) != len(pos):
            continue
        total = sum(t * p ** g for (t, _), g in zip(factors, pos))
        if total <= p ** factorial(n) - 2:
            return n
    return None


@record
class LucasSearch:
    """Outcome of the binomial witness search at truncation level N."""

    found: bool
    s: int | None
    k: int | None


LUCAS_SEARCH_CAP = 10 ** 5  # candidates k tried per search before refusing


def lucas_criterion(tc: TruncatedCharacter, r) -> LucasSearch:
    """Search for s in (r, N] and k >= 1 with binom(m_s, k(p^(r!)-1)) != 0 mod p.

    Absence is absence at this truncation level, nothing more. A search
    that tries LUCAS_SEARCH_CAP candidates without a witness and has more
    left raises CapabilityError.
    """
    if not 1 <= r < tc.level:
        raise ArgumentError(f"need 1 <= r < level, got r={r}, level={tc.level}")
    p = tc.p  # proven prime by the TruncatedCharacter
    step = p ** factorial(r) - 1
    tried = 0
    for s in range(r + 1, tc.level + 1):
        m_s = tc.residue(s)
        for k in range(1, m_s // step + 1):
            if tried == LUCAS_SEARCH_CAP:
                raise CapabilityError(
                    f"the Lucas search at r = {r} reached s = {s} with no witness "
                    f"among its cap of {LUCAS_SEARCH_CAP} candidates"
                )
            tried += 1
            if _lucas_digit_product(m_s, k * step, p):
                return LucasSearch(True, s, k)
    return LucasSearch(False, None, None)


# -- JSON forms ------------------------------------------------------------


def symbolic_to_json(sc: SymbolicCharacter) -> dict:
    if isinstance(sc, Trivial):
        return {"kind": "trivial"}
    if isinstance(sc, RationalPower):
        return {"kind": "rational", "lambda": sc.power}
    if isinstance(sc, TwistedDigitSum):
        return {
            "kind": "twisted",
            "factors": [
                {"theta": t, "twist": list(w.residues)} for t, w in sc.factors
            ],
        }
    raise ArgumentError(f"not a symbolic character: {sc!r}")


def symbolic_from_json(obj) -> SymbolicCharacter:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ArgumentError("a symbolic character is an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "trivial":
        return Trivial()
    if kind == "rational":
        lam = obj.get("lambda")
        if not isinstance(lam, int) or isinstance(lam, bool):
            raise ArgumentError("'lambda' must be an integer")
        return RationalPower(lam)
    if kind == "twisted":
        raw = obj.get("factors")
        if not isinstance(raw, list):
            raise ArgumentError("'factors' must be a list")
        factors = []
        for item in raw:
            if not isinstance(item, dict):
                raise ArgumentError("each factor is an object")
            theta = item.get("theta")
            twist = item.get("twist")
            if not isinstance(theta, int) or isinstance(theta, bool):
                raise ArgumentError("factor 'theta' must be an integer")
            if not isinstance(twist, list) or not all(
                isinstance(g, int) and not isinstance(g, bool) for g in twist
            ):
                raise ArgumentError("factor 'twist' must be a list of integers")
            factors.append((theta, GaloisTwist(tuple(twist))))
        return TwistedDigitSum(tuple(factors))
    raise ArgumentError(f"unknown character kind {_shown(kind)}")
