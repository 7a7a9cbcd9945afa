"""The reference route: exact linear algebra on FieldElement vectors, and
the tower points the library hands out as codes, taken as FieldElements.

Every sum, difference and product here is a FieldElement operator, so no
code table is read; a map's entries are decoded once, through the level's
`elements`, and applied by the same operators. The library's int-coded
`linalg`, `sl2lab.spin` and `u_fixed_rows` (against `fixed_subspace` here)
must give these rows, entry for entry. `Contragredient` is the dual module
by its definition, each map the transpose of an inverse, against which
`proof_route.dual`, the induced module of theta^-1, is checked.
"""

from __future__ import annotations

from borelline.linalg import DenseMap, MonomialMap
from borelline.sl2lab import _SL2Module


def element(tower, coords, level):
    """The FieldElement of the given coordinates, each read mod p."""
    coords = tuple(c % tower.p for c in coords)
    return next(x for x in tower.enumerate_elements(level) if x.coords == coords)


def standard_basis(tower, level):
    """The power basis of the level's defining polynomial, as FieldElements."""
    d = tower.degree(level)
    return tuple(element(tower, [int(i == j) for i in range(d)], level) for j in range(d))


def encode(codes, vec):
    """The codes of a vector of FieldElements of the level of `codes`."""
    return tuple(map(codes.code, vec))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def leading_index(row) -> int:
    return _leading_index_from(row, 0)


def _leading_index_from(row, start) -> int:
    """The first index at or after start of a nonzero entry of row, or -1."""
    for i in range(start, len(row)):
        if not row[i].is_zero():
            return i
    return -1


def reduce_vector(v, rows):
    """Residual of v against canonical echelon rows."""
    out = list(v)
    lead = -1
    for row in rows:
        lead = _leading_index_from(row, lead + 1)
        if lead >= 0 and not out[lead].is_zero():
            c = out[lead]
            out = [a - c * b for a, b in zip(out, row)]
    return tuple(out)


def rref_insert(rows, v):
    """Adjoin v to canonical rref rows: (rows, residual or None)."""
    w = reduce_vector(v, rows)
    if all(x.is_zero() for x in w):
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


def rref(rows):
    out = ()
    for row in rows:
        out, _ = rref_insert(out, tuple(row))
    return out


def kernel(rows, ncols, one, zero):
    """Canonical basis of the right kernel of the given matrix."""
    red = rref(rows)
    pivots = {leading_index(row): row for row in red}
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [zero] * ncols
        v[free] = one
        for col, row in pivots.items():
            v[col] = -row[free]
        basis.append(tuple(v))
    return rref(basis)


def mat_mul(a, b):
    """Each entry a sum of FieldElement products over the left row."""
    cols = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), start=row[0] - row[0]) for col in cols)
        for row in a)


def apply(g, v):
    """g v for a MonomialMap or DenseMap g, on FieldElements."""
    elements = g.codes.elements
    if isinstance(g, MonomialMap):
        out = [v[0] - v[0]] * len(v)
        for j, (i, c) in enumerate(zip(g.perm, g.scale)):
            out[i] = elements[c] * v[j]
        return tuple(out)
    return tuple(sum((elements[x] * y for x, y in zip(row, v)), start=v[0] - v[0])
                 for row in g.rows)


def zero(module):
    return module.tower.zero(module.coeff_level)


def one(module):
    return module.tower.scalar(1, module.coeff_level)


def unit_vector(module, i):
    return tuple(one(module) if j == i else zero(module) for j in range(module.dim))


def spin(module, vec):
    """The canonical rows of the smallest generator-stable subspace
    containing vec."""
    basis, first = rref_insert((), vec)
    if first is None:
        return ()
    queue = [first]
    while queue and len(basis) < module.dim:
        v = queue.pop()
        for g in module.generators:
            basis, residual = rref_insert(basis, apply(g, v))
            if residual is not None:
                queue.append(residual)
    return basis


def fixed_subspace(module, maps):
    """The canonical rows of the common fixed space of the maps."""
    units = [unit_vector(module, i) for i in range(module.dim)]
    rows = []
    for g in maps:
        rows.extend(zip(*(vec_sub(apply(g, e), e) for e in units)))
    return kernel(rows, module.dim, one(module), zero(module))


def transpose(g):
    """The transpose of a MonomialMap or DenseMap: a monomial map sending
    basis vector j to c e_i goes to one sending e_i to c e_j."""
    if isinstance(g, MonomialMap):
        perm, scale = [0] * len(g.perm), [0] * len(g.perm)
        for j, (i, c) in enumerate(zip(g.perm, g.scale)):
            perm[i], scale[i] = j, c
        return MonomialMap(g.codes, perm, scale)
    return DenseMap(g.codes, zip(*g.rows))


class Contragredient(_SL2Module):
    """The dual of a module, on the dual basis: g acts by the transpose of
    g^-1. Every other attribute (p, a, m, tower, codes, dim) is the
    module's own."""

    def __init__(self, module):
        self.module = module

    def __getattr__(self, name):
        return getattr(self.module, name)

    def eps(self, x):
        return transpose(self.module.eps(self.codes.neg[x]))

    def h(self, u):
        return transpose(self.module.h(self.codes.inv[u]))

    def s(self):
        # s^-1 = s^3 = h(-1) s
        return transpose(self.module.h(self.codes.neg[1]).compose(self.module.s()))
