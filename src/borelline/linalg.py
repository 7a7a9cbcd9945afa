"""Exact linear algebra over finite-field elements.

Vectors are tuples of FieldElement; matrices are row tuples. Monomial maps
(one nonzero entry per column) get a compact representation because every
group generator acting on an induced module has that shape, and so do the
torus and the Weyl element on a costandard module. A monomial map composed
with a dense one, either way round, permutes and scales its rows or columns
instead of a matrix product.
"""

from __future__ import annotations


def vec_is_zero(v) -> bool:
    return all(x.is_zero() for x in v)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def rref(rows):
    """Canonical reduced row echelon form; zero rows dropped. A fold of
    `rref_insert`, which keeps the rows canonical after every insert."""
    out = ()
    for row in rows:
        out, _ = rref_insert(out, tuple(row))
    return out


def leading_index(row) -> int:
    return _leading_index_from(row, 0)


def _leading_index_from(row, start) -> int:
    """The first index at or after start of a nonzero entry of row, or -1."""
    for i in range(start, len(row)):
        if not row[i].is_zero():
            return i
    return -1


def reduce_vector(v, rows):
    """Residual of v against canonical echelon rows. Their leading indices
    strictly increase, so each row's is sought after the previous row's."""
    out = list(v)
    lead = -1
    for row in rows:
        lead = _leading_index_from(row, lead + 1)
        if lead >= 0 and not out[lead].is_zero():
            c = out[lead]
            out = [a - c * b for a, b in zip(out, row)]
    return tuple(out)


def span_contains(rows, v) -> bool:
    return vec_is_zero(reduce_vector(v, rows))


def rref_insert(rows, v):
    """Adjoin v to canonical rref rows, keeping them canonical.

    Returns (rows, residual): the residual is the normalized reduced vector
    that was inserted, or None when v was already in the span.
    """
    w = reduce_vector(v, rows)
    if vec_is_zero(w):
        return rows, None
    lead = leading_index(w)
    w = vec_scale(w[lead].inverse(), w)
    out = []
    inserted = False
    row_lead = -1
    for row in rows:
        if not inserted:
            row_lead = _leading_index_from(row, row_lead + 1)
            if row_lead > lead:
                out.append(w)
                inserted = True
        c = row[lead]
        out.append(row if c.is_zero() else vec_sub(row, vec_scale(c, w)))
    if not inserted:
        out.append(w)
    return tuple(out), w


def mat_vec(rows, v):
    support = [(j, b) for j, b in enumerate(v) if not b.is_zero()]
    zero = v[0] - v[0]
    return tuple(sum((row[j] * b for j, b in support), start=zero) for row in rows)


def mat_mul(a, b):
    """The matrix product a b, over the nonzero entries of a and b. Entries
    off the first entry's level or tower (ArgumentError), or that are not
    field elements (TypeError), are refused before any product."""
    entries = [x for m in (a, b) for row in m for x in row]
    if not entries:
        return tuple(() for _ in a)
    zero = entries[0] - entries[0]
    if not hasattr(zero, "is_zero"):
        raise TypeError(f"cannot multiply matrices of {type(zero).__name__}")
    for x in set(entries):
        zero - x  # raises for an entry off zero's field
    b_support = [[(c, y) for c, y in enumerate(row) if not y.is_zero()] for row in b]
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for x, support in zip(row, b_support):
            if not x.is_zero():
                for c, y in support:
                    acc[c] = acc[c] + x * y
        out.append(tuple(acc))
    return tuple(out)


def kernel(rows, ncols, one, zero):
    """Canonical basis of the right kernel of the given matrix."""
    red = rref(rows)
    pivots = {}
    lead = -1
    for r, row in enumerate(red):
        lead = _leading_index_from(row, lead + 1)
        pivots[lead] = r
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [zero] * ncols
        v[free] = one
        for col, r in pivots.items():
            v[col] = -red[r][free]
        basis.append(tuple(v))
    return rref(basis)


class MonomialMap:
    """Linear map sending basis vector j to scale[j] times basis vector perm[j]."""

    __slots__ = ("perm", "scale")

    def __init__(self, perm, scale):
        self.perm = tuple(perm)
        self.scale = tuple(scale)

    def apply(self, v):
        out = [None] * len(v)
        zero = v[0] - v[0]
        for j in range(len(v)):
            out[j] = zero
        for j, x in enumerate(v):
            if not x.is_zero():
                i = self.perm[j]
                out[i] = out[i] + self.scale[j] * x
        return tuple(out)

    def compose(self, other):
        """self after other. After a DenseMap, the product scales and
        permutes its rows: row j lands as row perm[j], times scale[j]."""
        if isinstance(other, DenseMap):
            rows = [None] * len(other.rows)
            for j, (i, c) in enumerate(zip(self.perm, self.scale)):
                rows[i] = [c * x for x in other.rows[j]]
            return DenseMap(rows)
        perm = tuple(self.perm[other.perm[j]] for j in range(len(other.perm)))
        scale = tuple(
            other.scale[j] * self.scale[other.perm[j]] for j in range(len(other.perm))
        )
        return MonomialMap(perm, scale)

    def transpose(self):
        perm, scale = [0] * len(self.perm), [None] * len(self.perm)
        for j, i in enumerate(self.perm):
            perm[i], scale[i] = j, self.scale[j]
        return MonomialMap(perm, scale)

    def __eq__(self, other):
        if not isinstance(other, MonomialMap):
            return NotImplemented
        return (self.perm, self.scale) == (other.perm, other.scale)


class DenseMap:
    """Plain matrix action, row-major, columns indexed by source basis."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)

    def apply(self, v):
        return mat_vec(self.rows, v)

    def compose(self, other):
        """self after other. Before a MonomialMap, the product scales and
        permutes the columns: column j is column perm[j] times scale[j]."""
        if isinstance(other, MonomialMap):
            cols = tuple(zip(other.perm, other.scale))
            return DenseMap([[row[i] * c for i, c in cols] for row in self.rows])
        return DenseMap(mat_mul(self.rows, other.rows))

    def transpose(self):
        return DenseMap(zip(*self.rows))

    def __eq__(self, other):
        if not isinstance(other, DenseMap):
            return NotImplemented
        return self.rows == other.rows
