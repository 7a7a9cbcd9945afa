"""Nested finite fields of factorial degrees with compatible embeddings.

One tower per prime p, `make_tower(p)`, holds the fields F_(p^(n!)) for
n = 1..3, each presented as F_p[x]/(f_n). f_n is the polynomial that
`polyfp.primitive_walk` finds in degree n!: the walk proves f_n irreducible
and its root x a generator g of the units, and its powers of x list the
level's units. The embedding of level m into level n sends the root of
f_m, level m's generator, to the root rho of f_m upstairs least by
coordinates, so g_m^k goes to rho^k: one power of a code.

Field representation. Each level is one `Codes`, built in O(q) from the
walk's powers on the level's first use: it codes each element as an int,
0 for zero and k + 1 for g^k. A product adds exponents and a sum is
a (1 + b/a), read off the level's row `one_plus`, so each operation is O(1)
on codes, and only this module knows the format (`Codes.power` serves the
lab's powers). A FieldElement is the interned handle of one code, so
equality is identity: `+ - *` refuse mixed levels with ArgumentError, and
`embed` first moves an element up to the other's level. FieldElements
compute only inside the tower, in its embeddings.

Exact linear algebra reads every sum, difference and product off the
level's q x q tables. `FieldTower.codes(level)` builds them on its first
call, with list slices and maps and no polynomial product: q^2 entries per
table, 4 096 at q = 64 and 531 441 at q = 729, the largest field a module
can reach (a costandard module with n <= 3 at p = 3, level 3), where the
three tables take about 13 MB. A level whose elements alone are used never
pays for them. A module takes every point as a code, from `Codes` and
`FieldTower.subfield_codes`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from math import factorial

from . import polyfp
from .digits import ArgumentError, CapabilityError, RelationError, require_prime

# Embeddings compose: the one chain, 1 -> 2 -> 3, starts at F_p; a higher cap needs a check.
LEVEL_CAP = 3


def require_level(level):
    """Refuse a level no tower has: below 1 is malformed input, past
    LEVEL_CAP a capability cap."""
    if level < 1:
        raise ArgumentError(f"level must be at least 1, got {level}")
    if level > LEVEL_CAP:
        raise CapabilityError(f"level {level} exceeds the tower cap {LEVEL_CAP}")


def field_order(p, level) -> int:
    """q = p^(level!) once p is a prime and the level one a tower has;
    nothing is built, so a size cap on q can refuse before any tower is."""
    require_prime(p)
    return p ** _level_degree(level)


def _level_degree(level) -> int:
    """[F : F_p] = level! at a level a tower has: the level rule."""
    require_level(level)
    return factorial(level)


class Codes:
    """One level of a tower, its elements coded as ints: 0 for zero and
    k + 1 for g^k.

    `elements[c]` is the FieldElement of code c, so the units come in the
    order 1, g, g^2, ... and one has code 1; `coords[c]` is its coordinate
    vector and `by_coords` maps a vector back to its code. `neg`, `inv` and
    `one_plus` are rows of q codes, of -c, 1/c and 1 + c, with inv[0] = 0
    standing in for the inverse zero lacks. `basis` codes the power basis of
    f_n, `generator` is g's code and `scalars[c]` codes the residue c mod p.
    `mul`, `add` and `sub` are q x q tables, indexed [a][b] by two codes,
    None until `FieldTower.codes` builds them. `decode` stays for
    `sl2lab.Subspace.rows`, which the benchmark tracer reads.
    """

    __slots__ = ("q", "elements", "coords", "by_coords", "neg", "inv", "one_plus", "basis",
                 "generator", "scalars", "mul", "add", "sub")

    def __init__(self, tower, level, powers):
        """The level whose units are the walk's `powers` of g, in O(q)."""
        p = tower.p
        self.q = q = len(powers) + 1
        d = len(powers[0])
        self.coords = coords = ((0,) * d,) + tuple(powers)
        self.by_coords = by_coords = {c: k for k, c in enumerate(coords)}
        self.elements = tuple(FieldElement(tower, level, c, k, self) for k, c in enumerate(coords))
        # 1 + c adds one to c's constant coordinate
        self.one_plus = one_plus = [by_coords[((c[0] + 1) % p,) + c[1:]] for c in coords]
        units = list(range(1, q))
        half = 0 if p == 2 else (q - 1) // 2     # -1 = g^half
        self.neg = [0] + units[half:] + units[:half]
        self.inv = [0, 1] + units[:0:-1]
        self.basis = tuple(by_coords[tuple(int(i == j) for i in range(d))] for j in range(d))
        self.generator = units[1 % (q - 1)]     # g = 1 when q = 2
        self.scalars = scalars = [0]             # 0, 1, 1 + 1, ...
        while one_plus[scalars[-1]]:
            scalars.append(one_plus[scalars[-1]])
        self.mul = self.add = self.sub = None

    def _tabulate(self):
        """The q x q tables: g^k g^j = g^(k + j), and
        g^k + g^j = g^k (1 + g^(j - k)), the sum read off `one_plus`."""
        q = self.q
        units = q - 1
        cyc = list(range(1, q)) * 2              # cyc[i] is the code of g^i
        self.mul = mul = [[0] * q] + [[0] + cyc[k:k + units] for k in range(units)]
        one_plus = self.one_plus[1:] * 2         # one_plus[d] is the code of 1 + g^d
        self.add = add = [list(range(q))] + [
            [a] + list(map(mul[a].__getitem__, one_plus[units - a + 1:2 * units - a + 1]))
            for a in range(1, q)]
        self.sub = [list(map(row.__getitem__, self.neg)) for row in add]

    def times(self, a, b) -> int:
        """The code of a b: exponents add."""
        return (a + b - 2) % (self.q - 1) + 1 if a and b else 0

    def plus(self, a, b) -> int:
        """The code of a + b = a (1 + b/a), or b when a is zero."""
        if not a:
            return b
        return self.times(a, self.one_plus[self.times(b, self.inv[a])])

    def power(self, c, k) -> int:
        """The code of c^k, with 0^0 = 1; zero has no negative power."""
        if c:
            return (c - 1) * k % (self.q - 1) + 1
        if k < 0:
            raise ZeroDivisionError("inverse of zero")
        return 0 if k else 1

    def code(self, x) -> int:
        """The code of a FieldElement of this level; anything else is
        refused as `+ - *` refuse it."""
        if not isinstance(x, FieldElement) or x._codes is not self:
            raise _mismatch(self.elements[0], x)
        return x.code

    def decode(self, vec):
        return tuple(map(self.elements.__getitem__, vec))


class FieldElement:
    """An element of one level of a tower: the interned handle of its code.

    Elements are interned; obtain them from their FieldTower. `coords` is the
    coordinate vector over F_p in the power basis of the defining polynomial
    and `code` its code in the level's `Codes`, on which every operator
    computes. The operators serve the tower and the tests; the benchmark
    tracer counts them.
    """

    __slots__ = ("tower", "level", "coords", "code", "_codes")

    def __init__(self, tower, level, coords, code, codes):
        self.tower = tower
        self.level = level
        self.coords = coords
        self.code = code
        self._codes = codes

    def is_zero(self) -> bool:
        return not self.code

    def __add__(self, other):
        f = self._codes
        if other.__class__ is not FieldElement or other._codes is not f:
            raise _mismatch(self, other)
        return f.elements[f.plus(self.code, other.code)]

    def __neg__(self):
        f = self._codes
        return f.elements[f.neg[self.code]]

    def __sub__(self, other):
        f = self._codes
        if other.__class__ is not FieldElement or other._codes is not f:
            raise _mismatch(self, other)
        return f.elements[f.plus(self.code, f.neg[other.code])]

    def __mul__(self, other):
        f = self._codes
        if other.__class__ is not FieldElement or other._codes is not f:
            raise _mismatch(self, other)
        return f.elements[f.times(self.code, other.code)]

    def inverse(self):
        if not self.code:
            raise ZeroDivisionError("inverse of zero")
        f = self._codes
        return f.elements[f.inv[self.code]]

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        f = self._codes
        return f.elements[f.power(self.code, e)]

    def embed(self, level):
        if level < self.level:
            raise ArgumentError("cannot embed downward")
        if level == self.level:
            return self
        f = self.tower._level(level)
        if not self.code:
            return f.elements[0]
        # g_m^k goes to rho^k
        return f.elements[f.power(self.tower._embedding(self.level, level), self.code - 1)]

    def __repr__(self):
        return f"FieldElement(p={self.tower.p}, level={self.level}, coords={self.coords})"


def _mismatch(a, b):
    """The error for an operand b off the level and tower of the field
    element a: TypeError when b is no field element, else ArgumentError."""
    if not isinstance(b, FieldElement):
        return TypeError(f"cannot combine a field element with {type(b).__name__}")
    if b.tower is not a.tower:
        return ArgumentError("elements belong to different towers")
    return ArgumentError(
        f"operands lie at levels {a.level} and {b.level}; embed one of them first")


class FieldTower:
    """The fields F_(p^(n!)) over one prime p. A tower holds nothing but p
    when it is made: each level's defining polynomial, `Codes` and memo of
    products are built on the level's first use, the level's tables on the
    first `codes` call, and each embedding on the first embed along it. No
    build takes a lock, so request the codes of every level needed, and
    embed into it once from each lower level, before sharing a tower
    between threads."""

    def __init__(self, p):
        require_prime(p)
        self.p = p
        self._polys = {}
        self._mul_cache = {}
        self._levels = {}
        self._embeddings = {}

    # -- construction internals ------------------------------------------

    def _embedding(self, m, n):
        """The code of rho at level n, rho the root of f_m that is least by
        coordinates: the image of level m's generator. The roots lie in the
        subfield of order q_m, which is zero and the powers of
        g^((q_n - 1)/(q_m - 1))."""
        rho = self._embeddings.get((m, n))
        if rho is not None:
            return rho
        qm = self.order(m)
        coeffs = [self.scalar(c, n) for c in reversed(self.defining_polynomial(m))]
        step = self.multiplicative_generator(n) ** ((self.order(n) - 1) // (qm - 1))
        roots = []
        for x in [self.zero(n)] + [step ** k for k in range(qm - 1)]:
            acc = self.zero(n)
            for c in coeffs:
                acc = acc * x + c
            if acc.is_zero():
                roots.append(x)
        if len(roots) != self.degree(m):
            raise RelationError("embedding root count mismatch")
        rho = self._embeddings[(m, n)] = min(roots, key=lambda x: x.coords).code
        return rho

    def _level(self, n) -> Codes:
        """Level n, from `polyfp.primitive_walk`, which finds f_n on the
        polynomial route through `_mul_coords`."""
        codes = self._levels.get(n)
        if codes is None:
            d = _level_degree(n)
            self._mul_cache[n] = {}
            self._polys[n], powers = polyfp.primitive_walk(self.p, d, partial(self._mul_coords, n))
            codes = self._levels[n] = Codes(self, n, powers)
        return codes

    # -- coordinate kernels ----------------------------------------------

    def _mul_coords(self, n, a, b, f):
        """a b modulo f at level n: a candidate under walk, then f_n.
        Memoised in `_mul_cache[n]`, which the benchmark tracer reads; the
        modulus is part of the key, so every walk's products stay counted."""
        key = (f, a, b) if a <= b else (f, b, a)
        cache = self._mul_cache[n]
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = polyfp.mul_mod(a, b, f, self.p)
        return hit

    # -- public surface ----------------------------------------------------

    def degree(self, level) -> int:
        return _level_degree(level)

    def order(self, level) -> int:
        return field_order(self.p, level)

    def defining_polynomial(self, level):
        """f_level, found by the walk that builds the level."""
        self._level(level)
        return self._polys[level]

    def codes(self, level) -> Codes:
        """The level, its q x q tables built on the first call."""
        codes = self._level(level)
        if codes.mul is None:
            codes._tabulate()
        return codes

    def subfield_codes(self, r, n):
        """The codes at level n of level r's elements, in the order of
        `enumerate_elements(r)`: each element embedded, then coded."""
        codes = self.codes(n)
        return tuple(codes.code(x.embed(n)) for x in self.enumerate_elements(r))

    # -- elements: for `_embedding` and `subfield_codes` --------------------

    def zero(self, level):
        return self._level(level).elements[0]

    def scalar(self, c, level):
        """The prime-field scalar c at the given level."""
        codes = self._level(level)
        return codes.elements[codes.scalars[c % self.p]]

    def multiplicative_generator(self, level):
        codes = self._level(level)
        return codes.elements[codes.generator]

    def enumerate_elements(self, level):
        """All p^(n!) elements, in lexicographic coordinate order."""
        codes = self._level(level)
        for coords in itertools.product(range(self.p), repeat=self.degree(level)):
            yield codes.elements[codes.by_coords[coords]]


@lru_cache(maxsize=None)
def make_tower(p) -> FieldTower:
    """The one tower over p."""
    return FieldTower(p)
