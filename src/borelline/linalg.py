"""Exact linear algebra over one level of a tower, on int codes.

Entries are the int codes of `towers.Codes`, 0 for zero and k + 1 for g^k,
so one is 1 and a vector is zero exactly when `any` finds nothing in it.
Vectors are tuples of codes; matrices are row tuples. Every routine takes
the level's `Codes` first, and every map holds one; each sum, difference
and product is one lookup in its tables. Nothing here codes or decodes a
FieldElement: the SL_2 lab hands in codes and decodes only the rows of a
finished subspace. A canonical echelon row leads with a one after zeros
only, so its leading index is `row.index(1)`; callers read it that way.

Monomial maps (one nonzero entry per column) get a compact representation
because every group generator acting on an induced module has that shape,
and so do the torus and the Weyl element on a costandard module. A
monomial map composed with a dense one, either way round, permutes and
scales its rows or columns instead of a matrix product, and the common
fixed space of monomial maps is read off their orbits.
"""

from __future__ import annotations

from .digits import ArgumentError


def vec_add(codes, u, v):
    add = codes.add
    return tuple([add[a][b] for a, b in zip(u, v)])


def vec_scale(codes, c, v):
    times_c = codes.mul[c]
    return tuple([times_c[a] for a in v])


def rref(codes, rows):
    """Canonical reduced row echelon form; zero rows dropped. A fold of
    `rref_insert`, which keeps the rows canonical after every insert."""
    out = ()
    for row in rows:
        out, _ = rref_insert(codes, out, tuple(row))
    return out


def reduce_vector(codes, v, rows):
    """Residual of v against canonical echelon rows: each row, times the
    entry of v at its leading one, is subtracted in turn."""
    sub, mul = codes.sub, codes.mul
    for row in rows:
        c = v[row.index(1)]
        if c:
            times_c = mul[c]
            v = tuple([sub[a][times_c[b]] for a, b in zip(v, row)])
    return v


def span_contains(codes, rows, v) -> bool:
    return not any(reduce_vector(codes, v, rows))


def rref_insert(codes, rows, v):
    """Adjoin v to canonical rref rows, keeping them canonical.

    Returns (rows, residual): the residual is the normalized reduced vector
    that was inserted, or None when v was already in the span.
    """
    w = reduce_vector(codes, v, rows)
    c = next(filter(None, w), 0)
    if not c:
        return rows, None
    lead = w.index(c)
    sub, mul = codes.sub, codes.mul
    if c != 1:
        w = vec_scale(codes, codes.inv[c], w)
    # w is zero at the leads of the rows: clear its lead from each row and
    # put it before the first row that leads further right
    out = []
    at = len(rows)
    for i, row in enumerate(rows):
        if at > i and row.index(1) > lead:
            at = i
        x = row[lead]
        if x:
            times_x = mul[x]
            row = tuple([sub[a][times_x[b]] for a, b in zip(row, w)])
        out.append(row)
    out.insert(at, w)
    return tuple(out), w


def mat_vec(codes, rows, v):
    add, mul = codes.add, codes.mul
    support = [(j, mul[b]) for j, b in enumerate(v) if b]
    out = []
    for row in rows:
        acc = 0
        for j, times_b in support:
            acc = add[acc][times_b[row[j]]]
        out.append(acc)
    return tuple(out)


def mat_mul(codes, a, b):
    """The matrix product a b, over the nonzero entries of a and b."""
    add, mul = codes.add, codes.mul
    b_support = [[(c, mul[y]) for c, y in enumerate(row) if y] for row in b]
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, support in zip(row, b_support):
            if x:
                for c, times_y in support:
                    acc[c] = add[acc[c]][times_y[x]]
        out.append(tuple(acc))
    return tuple(out)


def monomial_fixed_rows(codes, maps, dim):
    """Canonical rows of the common fixed space of monomial maps on `dim`
    coordinates, read off their orbits with no row reduction.

    v is fixed iff v[perm[j]] = scale[j] v[j] for every map and every j, so
    on one orbit of the maps v is its entry at the orbit's least index r
    times the values that walking the maps from v[r] = 1 gives. Those
    values make a fixed row when every map's scales agree with them; else
    v vanishes on the orbit. Rows on disjoint orbits, each leading with 1
    at its least index, are in canonical echelon form.
    """
    mul = codes.mul
    value = [0] * dim
    rows = []
    for r in range(dim):
        if value[r]:
            continue
        value[r] = 1
        orbit, closes = [r], True
        for j in orbit:
            v = value[j]
            for g in maps:
                i, w = g.perm[j], mul[g.scale[j]][v]
                if not value[i]:
                    value[i] = w
                    orbit.append(i)
                elif value[i] != w:
                    closes = False
        if closes:
            row = [0] * dim
            for i in orbit:
                row[i] = value[i]
            rows.append(tuple(row))
    return tuple(rows)


def _require_one_level(a, b):
    if a.codes is not b.codes:
        raise ArgumentError("maps over two levels or towers do not compose; "
                            "embed the points of one of them first")


class MonomialMap:
    """Linear map sending basis vector j to scale[j] times basis vector
    perm[j]; perm is a permutation and the scales are nonzero codes."""

    __slots__ = ("codes", "perm", "scale", "_act")

    def __init__(self, codes, perm, scale):
        self.codes = codes
        self.perm = tuple(perm)
        self.scale = tuple(scale)
        self._act = None

    def apply(self, v):
        # entry i of the image is scale[j] v[j] for the j with perm[j] = i;
        # the source index and the row of products by scale[j] are kept
        act = self._act
        if act is None:
            src = [0] * len(self.perm)
            for j, i in enumerate(self.perm):
                src[i] = j
            mul = self.codes.mul
            act = self._act = (src, [mul[self.scale[j]] for j in src])
        src, rows = act
        return tuple([r[v[j]] for r, j in zip(rows, src)])

    def compose(self, other):
        """self after other. After a DenseMap, the product scales and
        permutes its rows: row j lands as row perm[j], times scale[j]."""
        _require_one_level(self, other)
        if isinstance(other, DenseMap):
            rows = [None] * len(other.rows)
            for j, (i, c) in enumerate(zip(self.perm, self.scale)):
                rows[i] = vec_scale(self.codes, c, other.rows[j])
            return DenseMap(self.codes, rows)
        mul, perm, scale = self.codes.mul, self.perm, self.scale
        return MonomialMap(self.codes, [perm[i] for i in other.perm],
                           [mul[c][scale[i]] for c, i in zip(other.scale, other.perm)])

    def __eq__(self, other):
        if not isinstance(other, MonomialMap):
            return NotImplemented
        return (self.codes is other.codes and self.perm == other.perm
                and self.scale == other.scale)


class DenseMap:
    """Plain matrix action, row-major, columns indexed by source basis."""

    __slots__ = ("codes", "rows")

    def __init__(self, codes, rows):
        self.codes = codes
        self.rows = tuple(tuple(r) for r in rows)

    def apply(self, v):
        return mat_vec(self.codes, self.rows, v)

    def compose(self, other):
        """self after other. Before a MonomialMap, the product scales and
        permutes the columns: column j is column perm[j] times scale[j]."""
        _require_one_level(self, other)
        if isinstance(other, MonomialMap):
            cols = [(i, self.codes.mul[c]) for i, c in zip(other.perm, other.scale)]
            return DenseMap(self.codes, ([times_c[row[i]] for i, times_c in cols]
                                         for row in self.rows))
        return DenseMap(self.codes, mat_mul(self.codes, self.rows, other.rows))

    def __eq__(self, other):
        if not isinstance(other, DenseMap):
            return NotImplemented
        return self.codes is other.codes and self.rows == other.rows
