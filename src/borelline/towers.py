"""Nested finite fields of factorial degrees with compatible embeddings.

One tower per prime p, `make_tower(p)`, holds the fields F_(p^(n!)) for
n = 1..3, each presented as F_p[x]/(f_n) where f_n is the first irreducible
polynomial of degree n! in the base-p enumeration whose root generates the
units. The embedding of level m into level n sends the root of f_m, level
m's generator, to the root rho of f_m upstairs least by coordinates, so
g_m^k goes to rho^k: one product of logs.

Field representation. Elements are interned: each (tower, level, value) has
exactly one FieldElement, so equality is identity. An element carries its
coordinate vector and its discrete logarithm to the base of the level's
generator. Each level keeps an antilog table and a Zech table,
z[d] = log(1 + g^d), so every operation is one table lookup that returns a
canonical element. Operands must share one level: `+ - *` refuse mixed
levels with ArgumentError, and `embed` first moves an element up to the
other's level. Nothing of a level is built before its first use: then f_n
is searched and the tables are built from q - 1 products by the generator
on the polynomial route (`polyfp` multiplication modulo f_n), which builds
the tables and nothing else.

Int codes. Exact linear algebra does not run on FieldElements: it codes
each element of a level as an int, 0 for zero and k + 1 for g^k, and reads
every sum, difference and product off the level's `Codes`, its q x q
tables. `FieldTower.codes(level)` builds them from the level's antilog and
Zech tables on its first call, with list slices and maps and no polynomial
product: q^2 entries per table, 4 096 at q = 64 and 531 441 at q = 729, the
largest field a module can reach (a costandard module with n <= 3 at
p = 3, level 3), where the three tables take about 13 MB.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
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
    units come in the order 1, g, g^2, ... and one has code 1.
    """

    __slots__ = ("q", "mul", "add", "sub", "neg", "inv", "elements", "_code")

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

    def code(self, x) -> int:
        """The code of a FieldElement of this level; anything else is
        refused as `+ - *` refuse it."""
        c = self._code.get(x) if isinstance(x, FieldElement) else None
        if c is None:
            raise _mismatch(self.elements[0], x)
        return c

    def encode(self, vec):
        """The codes of a vector of FieldElements of this level."""
        return tuple(map(self.code, vec))

    def decode(self, vec):
        return tuple(map(self.elements.__getitem__, vec))


class FieldElement:
    """An element of one level of a tower.

    Elements are interned; obtain them from their FieldTower. `coords` is the
    coordinate vector over F_p in the power basis of the defining polynomial.
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
        """Log, antilog and Zech tables of level n, from q - 1 products by
        the generator on the polynomial route."""
        units = self.order(n) - 1
        modulus = self.defining_polynomial(n)
        zero = (0,) * (len(modulus) - 1)
        one = (1,) + zero[1:]
        # the root class of f_n: x, or a for a degree-one modulus x - a
        gen = ((-modulus[0]) % self.p,) if len(zero) == 1 else (0, 1) + zero[2:]
        powers = [one]
        for _ in range(units - 1):
            powers.append(self._mul_coords(n, powers[-1], gen))
        log = {c: i for i, c in enumerate(powers)}
        if (len(log) != units or zero in log
                or self._mul_coords(n, powers[-1], gen) != one):
            raise RelationError(f"the logarithm is not a bijection onto the units at level {n}")
        f = _Level()
        f.degree = len(zero)
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

    def _mul_coords(self, n, a, b):
        key = (a, b) if a <= b else (b, a)
        f = self.defining_polynomial(n)
        cache = self._mul_cache[n]
        hit = cache.get(key)
        if hit is not None:
            return hit
        prod = polyfp.poly_mod(polyfp.mul(a, b, self.p), f, self.p)
        out = prod + (0,) * (len(f) - 1 - len(prod))
        cache[key] = out
        return out

    # -- public surface ----------------------------------------------------

    def degree(self, level) -> int:
        """level!, read off the defining polynomial."""
        return len(self.defining_polynomial(level)) - 1

    def order(self, level) -> int:
        return field_order(self.p, level)

    def defining_polynomial(self, level):
        """f_level, searched on the level's first use; its memo of products
        starts then too."""
        f = self._polys.get(level)
        if f is None:
            d = _level_degree(level)
            f = self._polys[level] = polyfp.least_irreducible(self.p, d, primitive=True)
            self._mul_cache[level] = {}
        return f

    def codes(self, level) -> Codes:
        """The int codes of the level, built on the first call."""
        f = self._tables(level)
        if f.codes is None:
            f.codes = Codes(f)
        return f.codes

    def zero(self, level):
        return self._tables(level).zero

    def one(self, level):
        return self._tables(level).exp[0]

    def scalar(self, c, level):
        """The prime-field scalar c at the given level."""
        f = self._tables(level)
        return f.by_coords[(c % self.p,) + f.zero.coords[1:]]

    def element(self, coords, level):
        f = self._tables(level)
        coords = tuple(c % self.p for c in coords)
        if len(coords) != f.degree:
            raise ArgumentError("coordinate length does not match the level degree")
        return f.by_coords[coords]

    def multiplicative_generator(self, level):
        return self._tables(level).exp[1]

    def enumerate_elements(self, level):
        """All p^(n!) elements, in lexicographic coordinate order."""
        by_coords = self._tables(level).by_coords
        for coords in itertools.product(range(self.p), repeat=self.degree(level)):
            yield by_coords[coords]

    def standard_basis(self, level):
        d = self.degree(level)
        return tuple(
            self.element(tuple(1 if i == j else 0 for i in range(d)), level)
            for j in range(d)
        )


@lru_cache(maxsize=None)
def make_tower(p) -> FieldTower:
    """The one tower over p."""
    return FieldTower(p)
