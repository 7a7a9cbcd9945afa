"""Nested finite fields of factorial degrees with compatible embeddings.

One tower per prime p, `make_tower(p)`, holds the fields F_(p^(n!)) for
n = 1..3, each presented as F_p[x]/(f_n). f_n is the polynomial that
`polyfp.primitive_walk` finds in degree n!: the walk proves f_n irreducible
and its root x a generator of the units, and its powers of x are the
level's antilog table. The embedding of level m into level n sends the
root of f_m, level m's generator, to the root rho of f_m upstairs least by
coordinates, so g_m^k goes to rho^k: one product of logs.

Field representation. Elements are interned: each (tower, level, value) has
exactly one FieldElement, so equality is identity. An element carries its
coordinate vector and its discrete logarithm to the base of the level's
generator. Each level keeps an antilog table and a Zech table,
z[d] = log(1 + g^d), so every operation is one table lookup that returns a
canonical element. Operands must share one level: `+ - *` refuse mixed
levels with ArgumentError, and `embed` first moves an element up to the
other's level. Nothing of a level is built before its first use: then the
walk finds f_n on the polynomial route, through the tower's memo of
`polyfp.mul_mod` modulo each candidate, with no other search.

Int codes. Exact linear algebra does not run on FieldElements: it codes
each element of a level as an int, 0 for zero and k + 1 for g^k, and reads
every sum, difference and product off the level's `Codes`, its q x q
tables. `FieldTower.codes(level)` builds them from the level's antilog and
Zech tables on its first call, with list slices and maps and no polynomial
product: q^2 entries per table, 4 096 at q = 64 and 531 441 at q = 729, the
largest field a module can reach (a costandard module with n <= 3 at
p = 3, level 3), where the three tables take about 13 MB. A module takes
every point as a code too, from `Codes` and `FieldTower.subfield_codes`, so
FieldElements compute only inside the tower: its tables, its embeddings.
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


class _Level:
    """Lookup tables of one level of a tower, with q - 1 units.

    Units have logs 0..q-2 and zero has log -(q-1). `exp` lists g^i for
    0 <= i < 2(q-1) and then zero 2(q-1) times, so a sum of two logs,
    including a zero's, indexes it directly (negative indices land in the
    zeros). `zech[d]` is log(1 + g^d), or -(q-1) where 1 + g^d = 0, listed
    twice so that differences of logs index it directly.
    """

    __slots__ = ("degree", "units", "neg", "exp", "zech", "zero", "by_coords", "codes")


class Codes:
    """The int codes of one level: 0 for zero and k + 1 for g^k.

    `mul`, `add` and `sub` are q x q tables, indexed [a][b] by two codes;
    `neg` and `inv` are rows of q codes, with inv[0] = 0 standing in for the
    inverse zero lacks. `elements[c]` is the FieldElement of code c, so the
    units come in the order 1, g, g^2, ... and one has code 1. `basis` codes
    the power basis of f_n, `generator` is g's code, `scalars[c]` codes the
    residue c mod p and `coords[c]` is code c's coordinate vector. `decode`
    stays for `sl2lab.Subspace.rows`, which the benchmark tracer reads.
    """

    __slots__ = ("q", "mul", "add", "sub", "neg", "inv", "elements", "_code", "basis",
                 "generator", "scalars", "coords")

    def __init__(self, f):
        units = f.units
        cyc = list(range(1, units + 1)) * 2      # cyc[i] is the code of g^i
        self.q = q = units + 1
        self.mul = mul = [[0] * q] + [[0] + cyc[k:k + units] for k in range(units)]
        self.neg = neg = [0] + cyc[f.neg:f.neg + units]
        self.inv = [0] + [cyc[units - k] for k in range(units)]
        # g^k + g^j = g^k (1 + g^(j - k)), and 1 + g^d has code one_plus[d]
        one_plus = [z + 1 if z >= 0 else 0 for z in f.zech[:units]] * 2
        self.add = add = [list(range(q))] + [
            [a] + list(map(mul[a].__getitem__, one_plus[units - a + 1:2 * units - a + 1]))
            for a in range(1, q)]
        self.sub = [list(map(row.__getitem__, neg)) for row in add]
        self.elements = (f.zero,) + tuple(f.exp[:units])
        self._code = {x: c for c, x in enumerate(self.elements)}
        self.coords = tuple(x.coords for x in self.elements)
        self.basis = tuple(self._code[f.by_coords[tuple(int(i == j) for i in range(f.degree))]]
                           for j in range(f.degree))
        self.generator = cyc[1]
        self.scalars = scalars = [0]             # 0, 1, 1 + 1, ...
        while add[scalars[-1]][1]:
            scalars.append(add[scalars[-1]][1])

    def code(self, x) -> int:
        """The code of a FieldElement of this level; anything else is
        refused as `+ - *` refuse it."""
        c = self._code.get(x) if isinstance(x, FieldElement) else None
        if c is None:
            raise _mismatch(self.elements[0], x)
        return c

    def decode(self, vec):
        return tuple(map(self.elements.__getitem__, vec))


class FieldElement:
    """An element of one level of a tower.

    Elements are interned; obtain them from their FieldTower. `coords` is the
    coordinate vector over F_p in the power basis of the defining polynomial.
    Its operators serve the tower and the tests; the benchmark tracer counts them.
    """

    __slots__ = ("tower", "level", "coords", "log", "_f")

    def __init__(self, tower, level, coords, log, tables):
        self.tower = tower
        self.level = level
        self.coords = coords
        self.log = log
        self._f = tables

    def is_zero(self) -> bool:
        return self.log < 0

    def __add__(self, other):
        if other.__class__ is not FieldElement or other._f is not self._f:
            raise _mismatch(self, other)
        la, lb = self.log, other.log
        if la < 0:
            return other
        if lb < 0:
            return self
        f = self._f
        return f.exp[la + f.zech[lb - la]]

    def __neg__(self):
        f = self._f
        return f.exp[self.log + f.neg]

    def __sub__(self, other):
        if other.__class__ is not FieldElement or other._f is not self._f:
            raise _mismatch(self, other)
        la, lb = self.log, other.log
        if lb < 0:
            return self
        f = self._f
        lb += f.neg
        if la < 0:
            return f.exp[lb]
        return f.exp[la + f.zech[lb - la]]

    def __mul__(self, other):
        if other.__class__ is not FieldElement or other._f is not self._f:
            raise _mismatch(self, other)
        return self._f.exp[self.log + other.log]

    def inverse(self):
        if self.log < 0:
            raise ZeroDivisionError("inverse of zero")
        f = self._f
        return f.exp[f.units - self.log]

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        f = self._f
        if self.log < 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return f.exp[0] if e == 0 else self
        return f.exp[self.log * e % f.units]

    def embed(self, level):
        if level < self.level:
            raise ArgumentError("cannot embed downward")
        if level == self.level:
            return self
        f = self.tower._tables(level)
        if self.log < 0:
            return f.zero
        return f.exp[self.log * self.tower._embedding(self.level, level) % f.units]

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
    when it is made: each level's defining polynomial, tables and memo of
    products are built on the level's first use, and each embedding on the
    first embed along it. No build takes a lock, so request an element of
    every level needed, and embed into it once from each lower level,
    before sharing a tower between threads."""

    def __init__(self, p):
        require_prime(p)
        self.p = p
        self._polys = {}
        self._mul_cache = {}
        self._levels = {}
        self._embeddings = {}

    # -- construction internals ------------------------------------------

    def _embedding(self, m, n):
        """log rho at level n, rho the root of f_m that is least by
        coordinates: the image of level m's generator. The roots lie in the
        subfield of order q_m, which is zero and the powers of
        g^((q_n - 1)/(q_m - 1))."""
        log_rho = self._embeddings.get((m, n))
        if log_rho is not None:
            return log_rho
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
        rho = min(roots, key=lambda x: x.coords)
        self._embeddings[(m, n)] = rho.log
        return rho.log

    def _tables(self, n):
        f = self._levels.get(n)
        if f is None:
            f = self._levels[n] = self._build_tables(n)
        return f

    def _build_tables(self, n):
        """Log, antilog and Zech tables of level n, from `polyfp.primitive_walk`,
        which finds f_n on the polynomial route through `_mul_coords`."""
        d = _level_degree(n)
        self._mul_cache[n] = {}
        self._polys[n], powers = polyfp.primitive_walk(self.p, d, partial(self._mul_coords, n))
        units = len(powers)
        log = {c: i for i, c in enumerate(powers)}
        zero = (0,) * d
        f = _Level()
        f.degree = d
        f.units = units
        f.neg = 0 if self.p == 2 else units // 2
        f.zero = FieldElement(self, n, zero, -units, f)
        elems = [FieldElement(self, n, c, i, f) for i, c in enumerate(powers)]
        f.exp = elems + elems + [f.zero] * (2 * units)
        f.by_coords = {e.coords: e for e in elems}
        f.by_coords[f.zero.coords] = f.zero
        zech = [log.get(((c[0] + 1) % self.p,) + c[1:], -units) for c in powers]
        f.zech = zech + zech
        f.codes = None
        return f

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
        """f_level, found by the walk that builds the level's tables."""
        self._tables(level)
        return self._polys[level]

    def codes(self, level) -> Codes:
        """The int codes of the level, built on the first call."""
        f = self._tables(level)
        if f.codes is None:
            f.codes = Codes(f)
        return f.codes

    def subfield_codes(self, r, n):
        """The codes at level n of level r's elements, in the order of
        `enumerate_elements(r)`: each element embedded, then coded."""
        codes = self.codes(n)
        return tuple(codes.code(x.embed(n)) for x in self.enumerate_elements(r))

    # -- elements: for `_embedding` and `subfield_codes` --------------------

    def zero(self, level):
        return self._tables(level).zero

    def scalar(self, c, level):
        """The prime-field scalar c at the given level."""
        f = self._tables(level)
        return f.by_coords[(c % self.p,) + f.zero.coords[1:]]

    def multiplicative_generator(self, level):
        return self._tables(level).exp[1]

    def enumerate_elements(self, level):
        """All p^(n!) elements, in lexicographic coordinate order."""
        by_coords = self._tables(level).by_coords
        for coords in itertools.product(range(self.p), repeat=self.degree(level)):
            yield by_coords[coords]


@lru_cache(maxsize=None)
def make_tower(p) -> FieldTower:
    """The one tower over p."""
    return FieldTower(p)
