"""The census of B-stable lines: a second route to the socle and the
maximal submodule, which the intertwiners t_s and t_s' give as the span
of the columns of t_s' and as ker t_s: `sl2lab.socle_head_report` reads
the socle's dimension and the head's, rank t_s, off the shape of its
level's T, and `proof_route.socle` and `proof_route.maximal_rows` reduce
the columns to the subspaces themselves.

A B-stable line is one that the Borel subgroup B = U T maps into itself:
an eigenline of h(g), g a generator of the units, inside the fixed space
M^U of U = {eps(x)}. Every nonzero submodule N contains one: U is a
p-group, so N^U != 0, and T normalises U and has order q - 1 prime to p,
so it acts diagonalisably on N^U. Hence every minimal submodule is the spin
of a B-stable line.

The census walks its lines through `sl2lab._projective_vectors` and spins
them through `sl2lab.spin`, both looked up on each call, so the
`enumerated_lines` and `spin_calls` fixtures count its work.
"""

from __future__ import annotations

from collections import namedtuple

from borelline import sl2lab
from borelline.linalg import mat_mul, rref
from proof_route import dual, fixed_subspace, kernel, span_contains


def u_fixed_rows(module):
    """M^U: an induced module's `u_fixed_rows`, read off the orbits of its
    monomial eps generators; on any other module, the stacked kernel of the
    reference route."""
    if isinstance(module, sl2lab.InducedModule):
        return module.u_fixed_rows
    return fixed_subspace(module.codes, module.generators[:-2], module.dim)


def b_stable_lines(module):
    """One code vector per B-stable line of the module, the eigenvalues in
    code order.

    M^U is `u_fixed_rows(module)`. T normalises U, so h(g) maps the d
    rows of M^U into their span, and its d x d matrix is read off at their
    pivots; the eigenspaces are kernels of that matrix.
    """
    codes = module.codes
    rows = u_fixed_rows(module)
    d = len(rows)
    pivots = [r.index(1) for r in rows]
    hg = module.generators[-2]
    images = [hg.apply(r) for r in rows]
    # column i holds the coordinates of h(g) rows[i] on the rows
    matrix = [[images[i][pivots[j]] for i in range(d)] for j in range(d)]
    for lam in range(1, codes.q):
        shifted = [[codes.sub[x][lam] if i == j else x for i, x in enumerate(row)]
                   for j, row in enumerate(matrix)]
        eigen = kernel(codes, shifted, d)
        if eigen:
            yield from sl2lab._projective_vectors(module, rref(codes, mat_mul(codes, eigen, rows)))


def within(sub, other):
    """Whether the subspace sub lies in the subspace other, of one module."""
    codes = sub.module.codes
    return all(span_contains(codes, other.code_rows, r) for r in sub.code_rows)


def census_socle(module):
    """(spins, least, miss): the (v, spin(v)) pairs over the B-stable lines
    v of the module, the smallest spin, and the first pair whose spin
    misses it, or None. With miss None the smallest spin is the simple
    socle: it lies in every minimal submodule, each the spin of a B-stable
    line, and each of its nonzero submodules holds a line spinning onto it.
    """
    spins = [(v, sl2lab.spin(module, v)) for v in b_stable_lines(module)]
    least = min((sp for _, sp in spins), key=lambda sp: sp.dim)
    miss = next(((v, sp) for v, sp in spins if not within(least, sp)), None)
    return spins, least, miss


class CensusReport(namedtuple("CensusReport", "whole socle maximal")):
    """A socle-and-head report that names the maximal submodule; read as
    an `sl2lab.SocleHeadReport`, its head is the quotient by it."""

    __slots__ = ()

    @property
    def socle_dim(self):
        return self.socle.dim

    @property
    def head_dim(self):
        return self.maximal.module.dim - self.maximal.dim


def census_report(module):
    """The socle-and-head report on the census route: the socle is the
    least spin of the module's census, the maximal submodule the
    annihilator of the least spin of its dual's, and the whole-module
    witness the first B-stable line whose spin is proper. Each is None
    where the census finds it not unique."""
    spins, socle, miss = census_socle(module)
    dual_socle, dual_miss = census_socle(dual(module))[1:]
    witness = next((v for v, sp in spins if sp.dim < module.dim), None)
    maximal = sl2lab.Subspace(module, kernel(module.codes, dual_socle.code_rows, module.dim))
    return CensusReport(
        sl2lab.IrreducibilityVerdict(witness is None, witness),
        socle if miss is None else None,
        maximal if dual_miss is None else None)
