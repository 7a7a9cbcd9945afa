"""Nested finite fields of factorial degrees with compatible embeddings.

A tower over p holds the fields F_(p^(n!)) for n = 1..levels (capped at 3),
each presented as F_p[x]/(f_n) where f_n is the first irreducible polynomial
of degree n! in the base-p enumeration whose root generates the units.
Embeddings between levels are fixed once, at construction, by sending the
lower root to the lexicographically least root upstairs, and their pairwise
compatibility is asserted rather than assumed.

Field representation. Elements are interned: each (tower, level, value) has
exactly one FieldElement, so equality is identity. An element carries its
coordinate vector and its discrete logarithm to the base of the level's
generator. Each level keeps an antilog table and a Zech table,
z[d] = log(1 + g^d), so every operation is one table lookup that returns a
canonical element. Operands must share one level: `+ - *` refuse mixed
levels with ArgumentError, and `embed` first moves an element up to the
other's level. A level's tables are built the first time one of its
elements is requested, from q - 1 products by the generator on the
polynomial route (`polyfp` multiplication modulo f_n); that route is used
only to construct the tower and its tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

from . import polyfp
from .digits import ArgumentError, CapabilityError, RelationError, require_prime

LEVEL_CAP = 3


class _Level:
    """Lookup tables of one level of a tower, with q - 1 units.

    Units have logs 0..q-2 and zero has log -(q-1). `exp` lists g^i for
    0 <= i < 2(q-1) and then zero 2(q-1) times, so a sum of two logs,
    including a zero's, indexes it directly (negative indices land in the
    zeros). `zech[d]` is log(1 + g^d), or -(q-1) where 1 + g^d = 0, listed
    twice so that differences of logs index it directly.
    """

    __slots__ = ("units", "neg", "exp", "zech", "zero", "by_coords")


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
        if level > self.tower.levels:
            raise ArgumentError(f"tower has no level {level}")
        if level == self.level:
            return self
        coords = self.tower._embed_coords(self.coords, self.level, level)
        return self.tower._tables(level).by_coords[coords]

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
    """Immutable after construction, apart from the lookup tables that each
    level builds on first use. That build takes no lock, so request an
    element of every level needed before sharing a tower between threads."""

    def __init__(self, p, levels):
        require_prime(p)
        if not 1 <= levels <= LEVEL_CAP:
            raise CapabilityError(
                f"tower levels must lie in [1, {LEVEL_CAP}], got {levels}"
            )
        self.p = p
        self.levels = levels
        self._degrees = {n: factorial(n) for n in range(1, levels + 1)}
        self._polys = {}
        self._mul_cache = {n: {} for n in range(1, levels + 1)}
        self._levels = {}
        self._embed_basis = {}
        for n in range(1, levels + 1):
            self._polys[n] = polyfp.least_irreducible(p, self._degrees[n], primitive=True)
        for m in range(1, levels + 1):
            for n in range(m + 1, levels + 1):
                self._embed_basis[(m, n)] = self._build_embedding(m, n)
        self._assert_embedding_compatibility()
        for n in range(1, levels + 1):
            self._assert_primitive(n)

    # -- construction internals ------------------------------------------

    def _build_embedding(self, m, n):
        """Images of the level-m power basis inside level n."""
        dm = self._degrees[m]
        qm = self.p ** dm
        qn = self.p ** self._degrees[n]
        gen = self._gen_coords(n)
        # roots of the level-m polynomial lie in the unique subfield of
        # size qm, swept by powers of gen^((qn-1)/(qm-1))
        step = self._pow_coords(n, gen, (qn - 1) // (qm - 1))
        roots = []
        cand = self._one_coords(n)
        seen = set()
        for _ in range(qm - 1):
            if cand in seen:
                break
            seen.add(cand)
            if self._eval_poly_at(n, self._polys[m], cand) is None:
                roots.append(cand)
            cand = self._mul_coords(n, cand, step)
        zero = self._zero_coords(n)
        if self._eval_poly_at(n, self._polys[m], zero) is None:
            roots.append(zero)
        if len(roots) != dm:
            raise RelationError("embedding root count mismatch")
        rho = min(roots)
        images = [self._one_coords(n)]
        for _ in range(dm - 1):
            images.append(self._mul_coords(n, images[-1], rho))
        return tuple(images)

    def _assert_embedding_compatibility(self):
        for m in range(1, self.levels + 1):
            for k in range(m + 1, self.levels + 1):
                for n in range(k + 1, self.levels + 1):
                    for j in range(self._degrees[m]):
                        basis = tuple(
                            1 if i == j else 0 for i in range(self._degrees[m])
                        )
                        via_k = self._embed_coords(
                            self._embed_coords(basis, m, k), k, n
                        )
                        direct = self._embed_coords(basis, m, n)
                        if via_k != direct:
                            raise RelationError(
                                f"incompatible embeddings {m}->{k}->{n}"
                            )

    def _assert_primitive(self, n):
        q = self.order(n)
        gen = self._gen_coords(n)
        if self._pow_coords(n, gen, q - 1) != self._one_coords(n):
            raise RelationError("generator order check failed")
        for ell in polyfp.prime_factors(q - 1):
            if self._pow_coords(n, gen, (q - 1) // ell) == self._one_coords(n):
                raise RelationError(f"generator is not primitive at level {n}")

    def _tables(self, n):
        f = self._levels.get(n)
        if f is None:
            f = self._levels[n] = self._build_tables(n)
        return f

    def _build_tables(self, n):
        """Log, antilog and Zech tables of level n, from q - 1 products by
        the generator on the polynomial route."""
        units = self.order(n) - 1
        gen = self._gen_coords(n)
        one = self._one_coords(n)
        powers = [one]
        for _ in range(units - 1):
            powers.append(self._mul_coords(n, powers[-1], gen))
        log = {c: i for i, c in enumerate(powers)}
        if (len(log) != units or self._zero_coords(n) in log
                or self._mul_coords(n, powers[-1], gen) != one):
            raise RelationError(f"the logarithm is not a bijection onto the units at level {n}")
        f = _Level()
        f.units = units
        f.neg = 0 if self.p == 2 else units // 2
        f.zero = FieldElement(self, n, self._zero_coords(n), -units, f)
        elems = [FieldElement(self, n, c, i, f) for i, c in enumerate(powers)]
        f.exp = elems + elems + [f.zero] * (2 * units)
        f.by_coords = {e.coords: e for e in elems}
        f.by_coords[f.zero.coords] = f.zero
        zech = [log.get(((c[0] + 1) % self.p,) + c[1:], -units) for c in powers]
        f.zech = zech + zech
        return f

    # -- coordinate kernels ----------------------------------------------

    def _zero_coords(self, n):
        return (0,) * self._degrees[n]

    def _one_coords(self, n):
        return (1,) + (0,) * (self._degrees[n] - 1)

    def _gen_coords(self, n):
        d = self._degrees[n]
        if d == 1:
            # degree-one modulus x - a: the root class is a
            return ((-self._polys[n][0]) % self.p,)
        return tuple(1 if i == 1 else 0 for i in range(d))

    def _mul_coords(self, n, a, b):
        key = (a, b) if a <= b else (b, a)
        cache = self._mul_cache[n]
        hit = cache.get(key)
        if hit is not None:
            return hit
        prod = polyfp.poly_mod(polyfp.mul(a, b, self.p), self._polys[n], self.p)
        out = prod + (0,) * (self._degrees[n] - len(prod))
        cache[key] = out
        return out

    def _pow_coords(self, n, a, e):
        result = self._one_coords(n)
        base = a
        while e:
            if e & 1:
                result = self._mul_coords(n, result, base)
            base = self._mul_coords(n, base, base)
            e >>= 1
        return result

    def _eval_poly_at(self, n, poly, point):
        acc = self._zero_coords(n)
        for c in reversed(poly):
            acc = self._mul_coords(n, acc, point)
            if c:
                acc = tuple(
                    (x + (c if i == 0 else 0)) % self.p for i, x in enumerate(acc)
                )
        return acc if any(acc) else None

    def _embed_coords(self, coords, m, n):
        images = self._embed_basis[(m, n)]
        out = self._zero_coords(n)
        for c, img in zip(coords, images):
            if c:
                out = tuple((x + c * y) % self.p for x, y in zip(out, img))
        return out

    # -- public surface ----------------------------------------------------

    def degree(self, level) -> int:
        if level not in self._degrees:
            raise ArgumentError(f"tower has no level {level}")
        return self._degrees[level]

    def order(self, level) -> int:
        return self.p ** self.degree(level)

    def defining_polynomial(self, level):
        return self._polys[level]

    def zero(self, level):
        return self._tables(level).zero

    def one(self, level):
        return self._tables(level).exp[0]

    def scalar(self, c, level):
        """The prime-field scalar c at the given level."""
        c %= self.p
        return self.element((c,) + (0,) * (self.degree(level) - 1), level)

    def element(self, coords, level):
        coords = tuple(c % self.p for c in coords)
        if len(coords) != self.degree(level):
            raise ArgumentError("coordinate length does not match the level degree")
        return self._tables(level).by_coords[coords]

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
def make_tower(p, levels=LEVEL_CAP) -> FieldTower:
    return FieldTower(p, levels)
