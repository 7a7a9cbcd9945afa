"""Finite-level rank-one laboratory.

Builds the induced module of SL_2(F_q), q = p^(a!), from a character of the
diagonal torus with a stable upper-triangular line, entirely as explicit
matrices over a tower field. Everything the rest of the library predicts
about socles, heads, irreducibility, and the transition to higher levels is
checked here by exact linear algebra: spinning vectors, intersecting fixed
spaces, and splitting by idempotents in the endomorphism ring.

Conventions: eps(t) is the upper unipotent, h(u) the diagonal torus, s the
standard Weyl representative with s^2 = h(-1). The s-action on the cell
basis is written in closed form, s . cell(t) = theta(-t) cell(-1/t), and
pinned down by the relation check of every construction: s^2 = h(-1)
fixes its sign and the conjugation word

    s^-1 eps(t) s = eps(-1/t) s h(t) eps(-1/t)

its scale on every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod

from .characters import TruncatedCharacter
from .digits import ArgumentError, RelationError, expand, lucas_row, power_sum, require_prime
from .linalg import (
    DenseMap,
    MonomialMap,
    kernel,
    leading_index,
    reduce_vector,
    rref,
    rref_insert,
    span_contains,
    vec_add,
    vec_scale,
    vec_sub,
)
from .towers import CapabilityError, make_tower, require_level

GROUP_ORDER_CAP = 64        # largest q for which modules are built


class PreconditionError(ValueError):
    """A stated hypothesis of the requested operation fails."""


@dataclass(frozen=True)
class Subspace:
    """Canonical reduced-echelon basis of a subspace of a module."""

    module: object
    rows: tuple[tuple, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        return span_contains(self.rows, vec)

    def __le__(self, other) -> bool:
        return all(other.contains(r) for r in self.rows)


class _SL2Module:
    """What both module kinds share: one field, at `coeff_level`, holding
    both the vector coordinates and the points of the actions eps(x), h(u),
    s() of SL_2, as maps with `apply`, `compose` and `==`, checked by
    `_check_relations`.

    Each call of eps, h or s builds a new map. The generators and M^U are
    built once per module instance, on first use, and every spin, stability
    check and census of the module reads them; a dual is its own instance,
    with its own."""

    def _field_order(self, p, level):
        """q = p^(level!) once p is a prime and the level one a tower has;
        checked before the tower is built, so that each module's size cap
        refuses first."""
        require_prime(p)
        require_level(level)
        return p ** factorial(level)

    def zero_scalar(self):
        return self.tower.zero(self.coeff_level)

    def one_scalar(self):
        return self.tower.one(self.coeff_level)

    def zero_vector(self):
        return (self.zero_scalar(),) * self.dim

    def unit_vector(self, i):
        z, o = self.zero_scalar(), self.one_scalar()
        return tuple(o if j == i else z for j in range(self.dim))

    @cached_property
    def generators(self):
        """eps over an F_p-basis of F_q, then h at a generator of the units,
        then s."""
        gens = [self.eps(b) for b in self.tower.standard_basis(self.coeff_level)]
        gens.append(self.h(self.tower.multiplicative_generator(self.coeff_level)))
        gens.append(self.s())
        return tuple(gens)

    @cached_property
    def u_fixed_rows(self):
        """The canonical rows of M^U: the fixed space of the eps generators."""
        return fixed_subspace(self, self.generators[:-2]).rows

    def dual(self):
        return _Dual(self)

    def _check_relations(self):
        """Steinberg's presentation of SL_2(F_q) (R. Steinberg, Lectures on
        Chevalley groups, Yale 1967), as exact identities between the
        actions, in O(q) compositions. With b over an F_p-basis of F_q and g
        the generator of the units:

        1. eps(0) = h(1) = 1;
        2. each eps(b) has order dividing p, and the eps(b) commute;
        3. eps(x) = eps(x - b) eps(b), b at the first nonzero coordinate of x;
        4. h(g^(k+1)) = h(g^k) h(g), closing at h(g)^(q-1) = h(1);
        5. h(g) eps(b) h(g)^-1 = eps(g^2 b);
        6. s^2 = h(-1);
        7. s^-1 eps(t) s = eps(-1/t) s h(t) eps(-1/t) for every unit t.

        Steps 1-3 make eps additive and step 4 makes h multiplicative; with
        them step 5 gives h(u) eps(x) h(u)^-1 = eps(u^2 x) for all u and x.
        The eps(b), h(g) and s checked are those of `generators`, so the
        module's census spins the maps proved here; each other map is built once.
        """
        level = self.coeff_level
        elems = tuple(self.tower.enumerate_elements(level))
        nonzero = [x for x in elems if not x.is_zero()]
        basis = self.tower.standard_basis(level)
        zero, one = self.tower.zero(level), self.tower.one(level)
        g = self.tower.multiplicative_generator(level)
        *eps_b, h_g, s = self.generators
        eps = dict(zip(basis, eps_b))
        eps.update({x: self.eps(x) for x in elems if x not in eps})
        h = {g: h_g}
        h.update({u: self.h(u) for u in nonzero if u not in h})
        vectors = [self.unit_vector(i) for i in range(self.dim)]
        if any(eps[zero].apply(e) != e for e in vectors):
            raise RelationError("eps is not additive: eps(0) is not the identity")
        if any(h[one].apply(e) != e for e in vectors):
            raise RelationError("h is not multiplicative: h(1) is not the identity")
        for i, b in enumerate(basis):
            power = eps[b]
            for _ in range(self.p - 1):
                power = power.compose(eps[b])
            if power != eps[zero]:
                raise RelationError(
                    f"eps is not additive: eps(b)^p is not the identity at b = {b.coords}")
            for c in basis[i + 1:]:
                if eps[b].compose(eps[c]) != eps[c].compose(eps[b]):
                    raise RelationError("eps is not additive: eps(b) and eps(c) do not "
                                        f"commute at b = {b.coords}, c = {c.coords}")
        for x in nonzero:
            b = basis[next(i for i, c in enumerate(x.coords) if c)]
            if eps[x - b].compose(eps[b]) != eps[x]:
                raise RelationError(
                    f"eps is not additive: eps(x) != eps(x - b) eps(b) at x = {x.coords}")
        u = g
        for k in range(1, len(elems) - 1):
            if h[u].compose(h[g]) != h[u * g]:
                raise RelationError(
                    f"h is not multiplicative: h(g^(k+1)) != h(g^k) h(g) at k = {k}")
            u = u * g
        for b in basis:
            if h[g].compose(eps[b]).compose(h[g.inverse()]) != eps[g * g * b]:
                raise RelationError("torus does not normalize eps correctly")
        if s.compose(s) != h[-one]:
            raise RelationError("s^2 must equal h(-1)")
        s_inv = h[-one].compose(s)
        for t in nonzero:
            w = -t.inverse()
            lhs = s_inv.compose(eps[t]).compose(s)
            if lhs != eps[w].compose(s).compose(h[t]).compose(eps[w]):
                raise RelationError("the s-conjugation relation fails")


class _Dual(_SL2Module):
    """The dual module, on the dual basis: g acts by the transpose of g^-1,
    so a monomial map keeps its perm and inverts its scales. Every other
    attribute (p, a, m, levels, tower, dim) is the module's own."""

    def __init__(self, module):
        self.module = module

    def __getattr__(self, name):
        return getattr(self.module, name)

    def eps(self, x):
        return self.module.eps(-x).transpose()

    def h(self, u):
        return self.module.h(u.inverse()).transpose()

    def s(self):
        # s^-1 = s^3 = h(-1) s
        minus_one = -self.tower.one(self.coeff_level)
        return self.module.h(minus_one).compose(self.module.s()).transpose()


class InducedModule(_SL2Module):
    """kG_a tensor theta, with cell basis {line} + {eps(t) s line : t in F_q}.

    An `_SL2Module` with monomial actions over the one field F_q at level a:
    the group, the character values and the coordinates all live there.
    """

    def __init__(self, p, a, theta: TruncatedCharacter):
        if theta.p != p:
            raise ArgumentError("character prime disagrees with p")
        if theta.level < a:
            raise ArgumentError(f"character needs residues up to level {a}")
        self.q = self._field_order(p, a)
        self.p = p
        self.a = self.coeff_level = a
        if self.q > GROUP_ORDER_CAP:
            raise CapabilityError(
                f"group field order {self.q} exceeds the desk-scale cap {GROUP_ORDER_CAP}"
            )
        self.theta = theta
        self.m = theta.residue(a)
        self.tower = make_tower(p, a)
        self.dim = self.q + 1
        self.labels = tuple(self.tower.enumerate_elements(a))
        self._index = {e.coords: i + 1 for i, e in enumerate(self.labels)}
        self._check_relations()

    # index 0 is the stable line; 1 + i(t) is the cell eps(t) s line

    def cell_index(self, t) -> int:
        if t.level != self.a:
            raise ArgumentError("cell labels live at the group level")
        return self._index[t.coords]

    def theta_value(self, u):
        """theta(h(u)) = u^m."""
        return u ** self.m

    def eps(self, x) -> MonomialMap:
        """Upper unipotent: fixes the line, translates the cells."""
        perm = [0] * self.dim
        for t in self.labels:
            perm[self.cell_index(t)] = self.cell_index(x + t)
        return MonomialMap(perm, [self.one_scalar()] * self.dim)

    def h(self, u) -> MonomialMap:
        """Torus: scales the line by theta(u), rescales and squeezes cells."""
        if u.is_zero():
            raise ArgumentError("torus points are invertible")
        perm = [0] * self.dim
        scale = [self.theta_value(u)] * self.dim
        u_inv_theta = self.theta_value(u.inverse())
        u2 = u * u
        for t in self.labels:
            perm[self.cell_index(t)] = self.cell_index(u2 * t)
            scale[self.cell_index(t)] = u_inv_theta
        return MonomialMap(perm, scale)

    def s(self) -> MonomialMap:
        """Swaps the line and the cell at 0: s . line = cell(0),
        s . cell(0) = theta(-1) line, and s . cell(t) = theta(-t) cell(-1/t)
        for t != 0."""
        perm, scale = [0] * self.dim, [self.one_scalar()] * self.dim
        base_cell = self.cell_index(self.tower.zero(self.a))
        perm[0] = base_cell
        perm[base_cell], scale[base_cell] = 0, self.theta_value(-self.tower.one(self.a))
        for t in self.labels:
            if not t.is_zero():
                j = self.cell_index(t)
                perm[j], scale[j] = self.cell_index(-t.inverse()), self.theta_value(-t)
        return MonomialMap(perm, scale)

    def line_sum_vector(self, subfield_level=None):
        """sum over u in the chosen subfield of u . s . line, one cell each."""
        if subfield_level is None:
            subfield_level = self.a
        if subfield_level > self.a:
            raise ArgumentError("subfield level exceeds the group level")
        vec = list(self.zero_vector())
        one = self.one_scalar()
        for x in self.tower.enumerate_elements(subfield_level):
            t = x.embed(self.a)
            i = self.cell_index(t)
            vec[i] = vec[i] + one
        return tuple(vec)

    def _check_relations(self):
        """The B-stable line, then the presentation of SL_2(F_q).

        The line is checked on the generators alone: each eps(b) fixes it
        and h(g) scales it by theta(g). That is a proof once the presentation
        holds: eps is additive, so every eps(x) is a product of eps(b) and
        fixes the line, and h is multiplicative, so h(g^k) = h(g)^k scales it
        by theta(g)^k = theta(g^k), theta being a character.
        """
        line = self.unit_vector(0)
        *eps_b, h_g, _ = self.generators
        if any(e.apply(line) != line for e in eps_b):
            raise RelationError("eps must fix the stable line")
        g = self.tower.multiplicative_generator(self.a)
        if h_g.apply(line) != vec_scale(self.theta_value(g), line):
            raise RelationError("h must scale the line by theta")
        super()._check_relations()


def trivial_character(p, level) -> TruncatedCharacter:
    return TruncatedCharacter(p, (0,) * level)


# -- subspace machinery ------------------------------------------------------


def spin(module, vec) -> Subspace:
    """Smallest generator-stable subspace containing vec."""
    basis, first = rref_insert((), vec)
    if first is None:
        return Subspace(module, ())
    gens = module.generators
    queue = [first]
    while queue and len(basis) < module.dim:
        v = queue.pop()
        for g in gens:
            basis, residual = rref_insert(basis, g.apply(v))
            if residual is not None:
                queue.append(residual)
    return Subspace(module, basis)


def fixed_subspace(module, maps) -> Subspace:
    """Common fixed space of the maps: the kernel of the stacked g - 1."""
    units = [module.unit_vector(i) for i in range(module.dim)]
    rows = []
    for g in maps:
        images = [vec_sub(g.apply(e), e) for e in units]
        rows.extend(zip(*images))
    return Subspace(module, kernel(rows, module.dim, module.one_scalar(), module.zero_scalar()))


def _combinations(module, coeffs, rows):
    """Canonical rows of the span of the sums of c_i rows[i], c over coeffs."""
    vecs = []
    for c in coeffs:
        v = module.zero_vector()
        for ci, r in zip(c, rows):
            if not ci.is_zero():
                v = vec_add(v, vec_scale(ci, r))
        vecs.append(v)
    return rref(vecs)


def _projective_vectors(module, rows):
    """One representative per line of the span of rows: the coefficient of
    the leading row is pinned to one, later rows range over the field as
    0, 1, g, g^2, ..., g a generator of its units, so the lines near the
    leading row (coefficient 1 among them) come first."""
    level = module.coeff_level
    g = module.tower.multiplicative_generator(level)
    field = [module.zero_scalar()] + [g ** k for k in range(module.tower.order(level) - 1)]
    k = len(rows)

    def walk(prefix, idx):
        if idx == k:
            yield prefix
            return
        for c in field:
            nxt = prefix if c.is_zero() else vec_add(prefix, vec_scale(c, rows[idx]))
            yield from walk(nxt, idx + 1)

    for lead in range(k):
        yield from walk(rows[lead], lead + 1)


def b_stable_lines(module, within: Subspace | None = None):
    """One vector per B-stable line of the module, or of its submodule
    `within`: the lines of the eigenspaces of h(g), g a generator of the
    units, inside the fixed space of U = {eps(x)}.

    Every nonzero submodule N contains one: U is a p-group, so N^U != 0,
    and T normalises U and has order q - 1 prime to p, so it acts
    diagonalisably on N^U. Hence every minimal submodule is the spin of a
    B-stable line.

    M^U is the module's `u_fixed_rows`, computed once per module and cut
    down to `within`. T normalises U, so h(g) maps the d rows of that space
    into their span, and its d x d matrix is read off at their pivots; the
    eigenspaces are kernels of that matrix. `within` must therefore be
    T-stable: an image outside the span raises PreconditionError.
    """
    tower, level = module.tower, module.coeff_level
    zero, one = module.zero_scalar(), module.one_scalar()
    rows = module.u_fixed_rows
    if within is not None:
        residuals = [reduce_vector(r, within.rows) for r in rows]
        coeffs = kernel(zip(*residuals), len(rows), one, zero)
        rows = _combinations(module, coeffs, rows)
    d = len(rows)
    pivots = [leading_index(r) for r in rows]
    hg = module.generators[-2]
    images = [hg.apply(r) for r in rows]
    if not all(span_contains(rows, v) for v in images):
        raise PreconditionError("h(g) does not keep the U-fixed vectors of the subspace")
    # column i holds the coordinates of h(g) rows[i] on the rows
    matrix = [[images[i][pivots[j]] for i in range(d)] for j in range(d)]
    for lam in tower.enumerate_elements(level):
        if not lam.is_zero():
            shifted = [[x - lam if i == j else x for i, x in enumerate(row)]
                       for j, row in enumerate(matrix)]
            eigen = kernel(shifted, d, one, zero)
            yield from _projective_vectors(module, _combinations(module, eigen, rows))


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Every submodule is accounted for through its B-stable lines, so the
    verdict is exhaustive and a proof either way."""

    irreducible: bool
    dimension: int
    witness: tuple | None = None  # a vector spinning to a proper submodule

    mode = "exhaustive"
    proof = True


def _is_stable(module, sub: Subspace) -> bool:
    return all(sub.contains(g.apply(r)) for g in module.generators for r in sub.rows)


def is_irreducible(module, subspace: Subspace | None = None) -> IrreducibilityVerdict:
    """Irreducible iff every B-stable line of the (sub)module spins to all
    of it; the witness is the first line whose spin is proper. The census
    is a proof only for submodules, so a given subspace must be stable.
    """
    if subspace is not None and not _is_stable(module, subspace):
        raise PreconditionError("the subspace is not stable under the generators")
    target = subspace if subspace is not None else Subspace(
        module, rref([module.unit_vector(i) for i in range(module.dim)])
    )
    if target.dim == 0:
        return IrreducibilityVerdict(False, 0)
    for v in b_stable_lines(module, subspace):
        if spin(module, v) != target:
            return IrreducibilityVerdict(False, target.dim, v)
    return IrreducibilityVerdict(True, target.dim)


# -- socle and head ----------------------------------------------------------


@dataclass(frozen=True)
class SocleHeadReport:
    whole: IrreducibilityVerdict
    socle: Subspace | None        # None when no unique simple socle
    socle_witness: tuple | None   # a vector whose spin misses the socle
    maximal: Subspace | None      # None when no unique maximal submodule
    maximal_witnesses: tuple | None


def _require_nontrivial(module):
    if module.m == 0:
        raise PreconditionError(
            "the torus character is trivial at this level; the socle and head "
            "are not unique here"
        )


def _census_socle(module):
    """(spins, least, miss): the (v, spin(v)) pairs over the B-stable lines
    v of the module, the smallest spin, and the first pair whose spin
    misses it, or None. With miss None the smallest spin is the simple
    socle: it lies in every minimal submodule, each the spin of a B-stable
    line, and each of its nonzero submodules holds a line spinning onto it.
    """
    spins = [(v, spin(module, v)) for v in b_stable_lines(module)]
    least = min((sp for _, sp in spins), key=lambda sp: sp.dim)
    miss = next(((v, sp) for v, sp in spins if not least <= sp), None)
    return spins, least, miss


def socle_head_report(module) -> SocleHeadReport:
    """Irreducibility of the whole module, its unique minimal and its unique
    maximal submodule, from the census of the module and of its dual.

    Maximal submodules are the annihilators of the minimal submodules of the
    dual: so the maximal submodule is the annihilator of the dual's socle,
    and the head has that socle's dimension. Otherwise two annihilators
    that sum to the whole witness non-uniqueness. Needs theta nontrivial at
    the module's level.
    """
    _require_nontrivial(module)
    spins, socle, miss = _census_socle(module)
    _, dual_socle, dual_miss = _census_socle(module.dual())
    whole_witness = next((v for v, sp in spins if sp.dim < module.dim), None)

    def annihilator(sub):
        zero, one = module.zero_scalar(), module.one_scalar()
        return Subspace(module, kernel(sub.rows, module.dim, one, zero))

    maximal = annihilator(dual_socle) if dual_miss is None else None
    return SocleHeadReport(
        IrreducibilityVerdict(whole_witness is None, module.dim, whole_witness),
        socle if miss is None else None,
        None if miss is None else miss[0],
        maximal,
        None if dual_miss is None else (annihilator(dual_socle), annihilator(dual_miss[1])),
    )


def socle_digit_product(module: InducedModule) -> int:
    """dim L(q - 1 - m), the known socle dimension of a nontrivial induced
    module: the product of (p - d_i) over the a! base-p digits d_i of m,
    zeros included, since q - 1 - m has the digits p - 1 - d_i."""
    return prod(d + 1 for d in expand(module.q - 1 - module.m, module.p))


def case_verdict(module: InducedModule):
    """The rank-one statement on one induced module, as (whole, key, section,
    ok): the whole-module `IrreducibilityVerdict` and a JSON-ready section.

    With theta trivial at the module's level, "hecke": the two Hecke pieces
    have dims (1, q) and are irreducible, each by the census of its own
    B-stable lines, and the whole module is checked apart. Otherwise
    "socle_head": a unique simple socle of dimension `socle_digit_product`,
    a unique maximal submodule, and a head of dimension the product of
    (d_i + 1) over the base-p digits d_i of m, from `socle_head_report`,
    which also gives the whole-module verdict.
    """
    if module.m == 0:
        whole = is_irreducible(module)
        pieces = HeckeOperators(module).idempotent_split()
        verdicts = [is_irreducible(module, y) for y in pieces]
        section = {
            "dims": [y.dim for y in pieces],
            "irreducible": [v.irreducible for v in verdicts],
            "proof": [v.proof for v in verdicts],
        }
        ok = section["dims"] == [1, module.q] and all(section["irreducible"])
        return whole, "hecke", section, ok
    rep = socle_head_report(module)
    section = {
        "socle_dim": rep.socle.dim if rep.socle else None,
        "socle_ok": rep.socle is not None,
        "maximal_ok": rep.maximal is not None,
        "head_dim": module.dim - rep.maximal.dim if rep.maximal else None,
        "digit_product": prod(d + 1 for d in expand(module.m, module.p)),
    }
    # a missing socle or maximal submodule leaves a None, which matches no product
    ok = (section["socle_dim"] == socle_digit_product(module)
          and section["head_dim"] == section["digit_product"])
    return rep.whole, "socle_head", section, ok


# -- costandard modules ------------------------------------------------------

# q^2 (n+1)^3 is the cost of the pairwise relation check, not of the
# presentation check; the cap stays because it decides which weights exit 3.
RELATION_WORK_CAP = 6 * 10 ** 7


class CostandardModule(_SL2Module):
    """The (n+1)-dimensional module with basis v_0..v_n and
    eps(t) v_i = sum_(j<=i) binom(i, j) t^(i-j) v_j.

    An `_SL2Module` over the one field at coeff_level: the group acts
    there, its points are taken there, and the coordinates live there. The
    eps(t) act densely; h(u) is diagonal and s a signed antidiagonal, both
    monomial maps, so the relation check multiplies matrices only for the
    products of two eps: 2(q - 1) + d(p + d - 2) of them, d = [F_q : F_p].
    """

    def __init__(self, n, p, coeff_level):
        if n < 0:
            raise ArgumentError("the highest weight must be nonnegative")
        q = self._field_order(p, coeff_level)
        if q * q * (n + 1) ** 3 > RELATION_WORK_CAP:
            raise CapabilityError("relation verification at this size is beyond desk scale")
        self.n = n
        self.p = p
        self.coeff_level = coeff_level
        self.tower = make_tower(p, coeff_level)
        self.dim = n + 1
        self._binom = tuple(tuple(lucas_row(i, p, self.dim)) for i in range(self.dim))
        self._check_relations()

    def eps(self, t) -> DenseMap:
        zero = self.zero_scalar()
        powers = [self.one_scalar()]
        for _ in range(self.n):
            powers.append(powers[-1] * t)
        rows = [[zero] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i + 1):
                b = self._binom[i][j]
                if b:
                    rows[j][i] = self.tower.scalar(b, self.coeff_level) * powers[i - j]
        return DenseMap(rows)

    def h(self, u) -> MonomialMap:
        """Diagonal: v_i is scaled by u^(n - 2i)."""
        if u.is_zero():
            raise ArgumentError("torus points are invertible")
        return MonomialMap(range(self.dim), (u ** (self.n - 2 * i) for i in range(self.dim)))

    def s(self) -> MonomialMap:
        """Signed antidiagonal: v_i goes to (-1)^(n - i) v_(n - i)."""
        one = self.one_scalar()
        return MonomialMap((self.n - i for i in range(self.dim)),
                           (one if (self.n - i) % 2 == 0 else -one for i in range(self.dim)))


def l_submodule(cm: CostandardModule) -> Subspace:
    """Span of the v_i with binom(n, i) nonzero mod p; checked stable."""
    rows = [cm.unit_vector(i) for i, b in enumerate(lucas_row(cm.n, cm.p, cm.dim)) if b]
    sub = Subspace(cm, rref(rows))
    if not _is_stable(cm, sub):
        raise RelationError("digit span is not a submodule")
    return sub


# -- the level bridge --------------------------------------------------------


@dataclass(frozen=True)
class PiImageRecord:
    nonzero_indices: tuple[int, ...]
    m_t: int

    @property
    def is_zero(self) -> bool:
        return not self.nonzero_indices


def pi_image(theta: TruncatedCharacter, r, t) -> PiImageRecord:
    """sum over a in F_(p^(r!)) of eps(a) . v_(m_t) inside the costandard
    module of weight m_t, computed two independent ways.

    Direct route: sum the matrix actions. Closed route: binomials mod p
    times power sums, nonzero only at depths k (p^(r!) - 1). Both must agree
    entrywise; the caller reads off nonzero-ness.
    """
    if not 1 <= r < t:
        raise ArgumentError("need 1 <= r < t")
    if theta.level < t:
        raise ArgumentError(f"character needs residues up to level {t}")
    p = theta.p
    m_t = theta.residue(t)
    cm = CostandardModule(m_t, p, coeff_level=t)
    top = cm.unit_vector(m_t)
    total = cm.zero_vector()
    for a in cm.tower.enumerate_elements(r):
        total = vec_add(total, cm.eps(a.embed(t)).apply(top))
    qr = p ** factorial(r)
    closed = [0] * cm.dim
    for ell, b in enumerate(lucas_row(m_t, p, m_t + 1)):
        closed[m_t - ell] = (b * power_sum(qr, ell, include_zero=True)) % p
    closed_vec = tuple(cm.tower.scalar(c, t) for c in closed)
    if closed_vec != total:
        raise RelationError("closed form and direct summation disagree")
    nonzero = tuple(i for i, c in enumerate(total) if not c.is_zero())
    return PiImageRecord(nonzero, m_t)


@dataclass(frozen=True)
class ChainRecord:
    m_t: int
    span_is_whole: bool
    pi_nonzero: bool

    @property
    def agree(self) -> bool:
        return self.span_is_whole == self.pi_nonzero


def verify_irreducibility_chain(theta: TruncatedCharacter, r, t) -> ChainRecord:
    """Bridge check at one level pair: the subfield-averaged cell vector
    spans the whole level-t module exactly when the costandard image is
    nonzero."""
    module = InducedModule(theta.p, t, theta)
    vec = module.line_sum_vector(subfield_level=r)
    sub = spin(module, vec)
    pi = pi_image(theta, r, t)
    return ChainRecord(pi.m_t, sub.dim == module.dim, not pi.is_zero)


# -- endomorphisms for the trivial character ---------------------------------


class HeckeOperators:
    """The endomorphism t_s at a level where theta is trivial, and the split
    of the module by the projectors e = 1 + t_s and o = -t_s.

    e + o = 1 by construction, so e and o are orthogonal idempotents exactly
    when t_s^2 = -t_s: the Hecke relation T_s^2 = (q - 1) T_s + q read in
    characteristic p. That one relation is checked, with equivariance.

    Equivariance is one whole-map identity per generator g, t_s g = g t_s,
    each a composition of the dense t_s with a monomial map. The relation
    is then checked on the image of the line alone, t_s^2 line = -t_s line,
    and that is a proof: t_s^2 + t_s is equivariant and kills the line, and
    the line generates the module, each cell being eps(t) s line with
    scale one.
    """

    def __init__(self, module: InducedModule):
        if module.m != 0:
            raise PreconditionError(
                "endomorphism basis indexed by the Weyl group needs the "
                "character trivial at this level"
            )
        self.module = module
        # t_s sends the line to the sum of all cells and is extended to the
        # cell eps(t) s line by equivariance under eps(t) s; eps(t) fixes the
        # line and sends cell(u) to cell(u + t) with scale one, so that column
        # is s_image translated: its coordinate at cell(w) is s_image's at
        # cell(w - t)
        image_of_line = module.line_sum_vector()
        s_image = module.generators[-1].apply(image_of_line)
        cell = module.cell_index
        cols = [image_of_line] + [
            (s_image[0],) + tuple(s_image[cell(w - t)] for w in module.labels)
            for t in module.labels
        ]
        self._cols = tuple(cols)
        self.t_s_rows = tuple(zip(*cols))
        t_s = DenseMap(self.t_s_rows)
        for g in module.generators:
            if t_s.compose(g) != g.compose(t_s):
                raise RelationError("the cell-averaging operator is not equivariant")
        if t_s.apply(image_of_line) != vec_scale(-module.one_scalar(), image_of_line):
            raise RelationError("the Hecke relation t_s^2 = -t_s fails")

    def idempotent_split(self):
        """Images of the two projectors, as submodules: the span of the
        columns e_j + t_s e_j, and that of the columns of t_s."""
        units = (self.module.unit_vector(j) for j in range(self.module.dim))
        y_full = Subspace(self.module, rref(map(vec_add, units, self._cols)))
        y_empty = Subspace(self.module, rref(self._cols))
        if y_full.dim + y_empty.dim != self.module.dim:
            raise RelationError("projector images do not decompose the module")
        return y_full, y_empty

