"""Finite-level rank-one laboratory.

Builds the induced module of SL_2(F_q), q = p^(a!), from a character of the
diagonal torus with a stable upper-triangular line, entirely as explicit
matrices over a tower field. Everything the rest of the library predicts
about socles, heads, irreducibility, and the transition to higher levels is
checked here by exact linear algebra: intertwiners to the dual and back,
read off the shape of one checked operator per level, fixed spaces,
spinning vectors, and splitting by idempotents in the endomorphism ring. The costandard
modules are checked as symmetric powers of the natural module, whose
presentation each level checks once.

The lab speaks the int codes of the module's coefficient level
(`towers.Codes`) from end to end: group points (`eps(x)`, `h(u)`), character
values, the maps, and every vector and subspace, those `spin` takes,
witnesses and `line_sum_vector` give included; `linalg` computes on them.
The tower hands out every point as a code (`Codes.basis`, `.generator`,
`.scalars`, `subfield_codes`); only `Subspace.rows` decodes, for the
benchmark tracer.

Conventions: eps(t) is the upper unipotent, h(u) the diagonal torus, s the
standard Weyl representative with s^2 = h(-1). The s-action on the cell
basis is written in closed form, s . cell(t) = theta(-t) cell(-1/t), and
pinned down by the relation check, once per level: s^2 = h(-1) fixes its
sign and the conjugation word

    s^-1 eps(t) s = eps(-1/t) s h(t) eps(-1/t)

its scale on every cell.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb

from .characters import TruncatedCharacter
from .digits import (
    ArgumentError, PreconditionError, RelationError, _fine_dim, _lucas_digit_product,
    _pascal_rows_mod, power_sum, record,
)
from .linalg import (
    DenseMap,
    MonomialMap,
    monomial_fixed_rows,
    rref,
    rref_insert,
    vec_add,
    vec_scale,
)
from .towers import CapabilityError, field_order, make_tower, require_group_order


@record
class Subspace:
    """Canonical reduced-echelon basis of a subspace of a module, as a
    tuple of code rows; `rows`, the lab's one decode, gives them as
    FieldElements on first read, for the benchmark tracer alone."""

    module: object
    code_rows: tuple[tuple, ...]

    @cached_property
    def rows(self):
        return tuple(map(self.module.codes.decode, self.code_rows))

    @property
    def dim(self) -> int:
        return len(self.code_rows)


class _SL2Module:
    """What both module kinds share: one field, at `coeff_level`, holding
    both the vector coordinates and the points of the actions eps(x), h(u),
    s() of SL_2, as maps with `apply`, `compose` and `==`, checked by
    `_check_relations`. `codes` is that level's `towers.Codes`: the points
    x and u, the maps' entries and every vector of the module are its codes.

    Each call of h or s builds a new map, and so does each call of an
    induced level's eps; a costandard module builds its eps(t) once per
    point, at construction, and each call hands out the stored map. The
    generators are built once per module, on first use, and every spin,
    stability check and intertwiner reads them; an induced module's eps
    are its level's."""

    def unit_vector(self, i):
        """The i-th basis vector, in codes."""
        return (0,) * i + (1,) + (0,) * (self.dim - i - 1)

    @cached_property
    def generators(self):
        """eps over an F_p-basis of F_q, then h at the generator of the units, then s."""
        return (*map(self.eps, self.codes.basis), self.h(self.codes.generator), self.s())

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
        The eps(b), h(g) and s checked are those of `generators`, and each
        other map is built once.
        """
        codes = self.codes
        q, sub, mul, neg, inv = codes.q, codes.sub, codes.mul, codes.neg, codes.inv
        basis, g, coords = codes.basis, codes.generator, codes.coords
        *eps_b, h_g, s = self.generators
        eps = {x: self.eps(x) for x in range(q) if x not in basis} | dict(zip(basis, eps_b))
        h = {u: self.h(u) for u in range(1, q) if u != g} | {g: h_g}
        vectors = [self.unit_vector(i) for i in range(self.dim)]
        if any(eps[0].apply(e) != e for e in vectors):
            raise RelationError("eps is not additive: eps(0) is not the identity")
        if any(h[1].apply(e) != e for e in vectors):
            raise RelationError("h is not multiplicative: h(1) is not the identity")
        for i, b in enumerate(basis):
            power = eps[b]
            for _ in range(self.p - 1):
                power = power.compose(eps[b])
            if power != eps[0]:
                raise RelationError(
                    f"eps is not additive: eps(b)^p is not the identity at b = {coords[b]}")
            for c in basis[i + 1:]:
                if eps[b].compose(eps[c]) != eps[c].compose(eps[b]):
                    raise RelationError("eps is not additive: eps(b) and eps(c) do not "
                                        f"commute at b = {coords[b]}, c = {coords[c]}")
        for x in range(1, q):
            b = basis[next(i for i, c in enumerate(coords[x]) if c)]
            if eps[sub[x][b]].compose(eps[b]) != eps[x]:
                raise RelationError(
                    f"eps is not additive: eps(x) != eps(x - b) eps(b) at x = {coords[x]}")
        u = g
        for k in range(1, q - 1):
            if h[u].compose(h[g]) != h[mul[u][g]]:
                raise RelationError(
                    f"h is not multiplicative: h(g^(k+1)) != h(g^k) h(g) at k = {k}")
            u = mul[u][g]
        for b in basis:
            if h[g].compose(eps[b]).compose(h[inv[g]]) != eps[mul[mul[g][g]][b]]:
                raise RelationError("torus does not normalize eps correctly")
        if s.compose(s) != h[neg[1]]:
            raise RelationError("s^2 must equal h(-1)")
        s_inv = h[neg[1]].compose(s)
        for t in range(1, q):
            w = neg[inv[t]]
            lhs = s_inv.compose(eps[t]).compose(s)
            if lhs != eps[w].compose(s).compose(h[t]).compose(eps[w]):
                raise RelationError("the s-conjugation relation fails")


class _InducedLevel(_SL2Module):
    """The induced module of theta = id at level a, built once per level
    (`_induced_level`): each scale of h and s is its theta-free argument,
    and its checks of the presentation, the line and its intertwiner T
    (`t_s_cols`) serve every `InducedModule` of the level. The line has
    index 0 and the cell eps(t) s line index 1 + t, so the monomial maps'
    permutations are rows of the code tables shifted by one."""

    m = 1  # theta = id

    def __init__(self, p, a):
        self.p, self.a, self.coeff_level, self.q = p, a, a, require_group_order(p, a)
        self.tower, self.dim = make_tower(p), self.q + 1
        self.codes = self.tower.codes(a)
        self._check_relations()

    def eps(self, x) -> MonomialMap:
        """Upper unipotent: fixes the line, translates the cells."""
        return MonomialMap(self.codes, [0] + [1 + c for c in self.codes.add[x]], [1] * self.dim)

    def h(self, u) -> MonomialMap:
        """Torus: scales the line by u and the cells by 1/u, squeezes cells."""
        if not u:
            raise ArgumentError("torus points are invertible")
        codes = self.codes
        squeeze = codes.mul[codes.mul[u][u]]
        return MonomialMap(codes, [0] + [1 + t for t in squeeze], [u] + [codes.inv[u]] * self.q)

    def s(self) -> MonomialMap:
        """Swaps the line and the cell at 0: s . line = cell(0),
        s . cell(0) = -line, and s . cell(t) = -t cell(-1/t) for t != 0."""
        neg, inv = self.codes.neg, self.codes.inv
        return MonomialMap(self.codes, [1, 0] + [1 + neg[inv[t]] for t in range(1, self.q)],
                           [1, neg[1], *neg[1:]])

    @cached_property
    def u_fixed_rows(self):
        """The canonical code rows of M^U, the fixed space of the eps
        generators, read off their orbits (`linalg.monomial_fixed_rows`)."""
        return monomial_fixed_rows(self.codes, self.generators[:-2], self.dim)

    def line_sum_vector(self, subfield_level=None):
        """sum over u in the chosen subfield of u . s . line, one cell each."""
        level = self.a if subfield_level is None else subfield_level
        if level > self.a:
            raise ArgumentError("subfield level exceeds the group level")
        cells = {1 + c for c in self.tower.subfield_codes(level, self.a)}
        return tuple(int(i in cells) for i in range(self.dim))

    def _t_s_columns(self):
        """t_s by its closed form, read off no map: the line goes to the sum
        L of all cells, and the cell eps(t) s line to eps(t) s' L, s' the
        dual's s, which has theta(-1) on the line and (w - t)^m at cell(w):
        column t of the sub table raised to m."""
        codes = self.codes
        cols = ((0,) + (1,) * self.q,
                *((codes.neg[1],) + d for d in zip(*codes.sub)))
        return _raised_entries(codes, cols, self.m)

    @cached_property
    def t_s_cols(self):
        """The columns of t_s, checked by direct computation: t_s g = g' t_s
        for each generator g, g' being g with its scales inverted, and
        M^U = span{line, t_s line}. The level's are T, which each module
        raises to its m; a module's own are the per-character reference
        route."""
        codes, cols = self.codes, self._t_s_columns()
        t_s = DenseMap(codes, zip(*cols))
        for g in self.generators:
            if t_s.compose(g) != _raised(g, -1).compose(t_s):
                raise RelationError("the cell-averaging operator is not equivariant")
        if self.u_fixed_rows != rref(codes, (self.unit_vector(0), cols[0])):
            raise RelationError("M^U is not spanned by the line and t_s line")
        return cols

    @cached_property
    def nonzero_binomials(self):
        """For each n < q, #{j <= n : binom(n, j) prime to p}, counted on
        Pascal's rows mod p, built by addition (`digits._pascal_rows_mod`)."""
        return tuple(self.q - row.count(0) for row in _pascal_rows_mod(self.q - 1, self.p))

    def _check_relations(self):
        """The B-stable line, then the presentation of SL_2(F_q).

        The line is checked on the generators alone: each eps(b) fixes it
        and h(g) scales it by theta(g) = g^m. That is a proof once the
        presentation holds: eps is additive, so every eps(x) is a product of
        eps(b) and fixes the line, and h is multiplicative, so h(g^k) = h(g)^k
        scales it by theta(g)^k = theta(g^k), theta being a character.
        """
        codes, line = self.codes, self.unit_vector(0)
        *eps_b, h_g, _ = self.generators
        if any(e.apply(line) != line for e in eps_b):
            raise RelationError("eps must fix the stable line")
        if h_g.apply(line) != vec_scale(codes, codes.power(codes.generator, self.m), line):
            raise RelationError("h must scale the line by theta")
        super()._check_relations()


_induced_level = lru_cache(maxsize=None)(_InducedLevel)


class InducedModule(_InducedLevel):
    """kG_a tensor theta, theta(u) = u^m, on the cells of its `level`, whose
    maps it takes with each scale c of h and s raised to c^m (`Codes.power`)
    and checks no more: no permutation reads theta, c -> c^m is a
    homomorphism of F_q^x, and `compose` multiplies scales along shared
    permutations, so raising commutes with composition and fixes each map
    with scales 1, eps and the identity among them. Each identity the level
    checks at theta = id, the line's included, thus holds for every m;
    `_check_relations` and `t_s_cols` stay as per-character reference routes."""

    def __init__(self, p, a, theta: TruncatedCharacter):
        if theta.p != p:
            raise ArgumentError("character prime disagrees with p")
        if theta.level < a:
            raise ArgumentError(f"character needs residues up to level {a}")
        self.level = level = _induced_level(p, a)
        self.p, self.a, self.coeff_level, self.m = p, a, a, theta.residue(a)
        self.q, self.dim, self.tower, self.codes = level.q, level.dim, level.tower, level.codes

    def h(self, u) -> MonomialMap:
        """The level's h(u): theta(u) on the line, theta(1/u) on the cells."""
        return _raised(self.level.h(u), self.m)

    def s(self) -> MonomialMap:
        """The level's s, built once: s . cell(0) = theta(-1) line, and
        s . cell(t) = theta(-t) cell(-1/t)."""
        return _raised(self.level.generators[-1], self.m)

    @cached_property
    def generators(self):
        return self.level.generators[:-2] + (self.h(self.codes.generator), self.s())


def _raised(g, m) -> MonomialMap:
    """g with each scale c raised to c^m; at m = -1, (g^-1)^T, the action on
    the dual basis."""
    return MonomialMap(g.codes, g.perm, _raised_entries(g.codes, (g.scale,), m)[0])


def trivial_character(p, level) -> TruncatedCharacter:
    return TruncatedCharacter(p, (0,) * level)


# -- subspace machinery ------------------------------------------------------


def spin(module, vec) -> Subspace:
    """Smallest generator-stable subspace containing the code vector vec."""
    codes = module.codes
    basis, first = rref_insert(codes, (), vec)
    if first is None:
        return Subspace(module, ())
    gens = module.generators
    queue = [first]
    while queue and len(basis) < module.dim:
        v = queue.pop()
        for g in gens:
            basis, residual = rref_insert(codes, basis, g.apply(v))
            if residual is not None:
                queue.append(residual)
    return Subspace(module, basis)


def _projective_vectors(module, rows):
    """One representative per line of the span of code rows: the
    coefficient of the leading row is pinned to one, later rows range over
    the field in code order, 0, 1, g, g^2, ..., g a generator of its units,
    so the lines near the leading row (coefficient 1 among them) come
    first.

    The verdicts walk no lines. The tests' census of B-stable lines, a
    reference route, walks them through this name, and perfbench's tracer
    counts the lines walked here."""
    codes = module.codes
    k = len(rows)

    def walk(prefix, idx):
        if idx == k:
            yield prefix
            return
        for c in range(codes.q):
            nxt = vec_add(codes, prefix, vec_scale(codes, c, rows[idx])) if c else prefix
            yield from walk(nxt, idx + 1)

    for lead in range(k):
        yield from walk(rows[lead], lead + 1)


@record
class IrreducibilityVerdict:
    """Every submodule is accounted for through its U-fixed vectors, which
    M^U = span{line, t_s line} confines, t_s the intertwiner of
    `socle_head_report`: the verdict is exhaustive and a proof either way."""

    irreducible: bool
    witness: tuple | None = None  # a code vector spinning to a proper submodule

    mode = "exhaustive"
    proof = True


# -- socle and head ----------------------------------------------------------


@record
class SocleHeadReport:
    whole: IrreducibilityVerdict
    socle_dim: int                # dim of the unique minimal submodule, t_s'(M')
    head_dim: int                 # dim of the simple head, M / ker t_s


def socle_head_report(module) -> SocleHeadReport:
    """Irreducibility of the whole module M and the dimensions of its
    unique minimal submodule and its simple head, read off the closed form
    its level's checked T is built as (`_InducedLevel._t_s_columns`): no
    raising, product or row reduction. t_s: M -> M', M' the dual, and
    t_s': M' -> M are T with each nonzero entry raised to m and to -m, t_s
    sending the line to L (Frobenius reciprocity; Carter and Lusztig, Proc.
    LMS 1976): the level's checks of T g = g' T and of M^U hold raised to
    every k, as c -> c^k is multiplicative and keeps zeros zero. Needs theta
    nontrivial.

    Raised to k, T keeps its shape: column 0 L, row 0 the constant (-1)^k,
    the cell block (w - t)^k. So T^k L has row 0 q (-1)^k = 0 and row
    1 + w the sum of x^k over the units, 0 unless q - 1 divides k:
    t_s' t_s line = T^-m L = 0, and t_s' t_s = 0, being equivariant and
    zero on the line, which generates M. A proper submodule N has N^U in
    span{t_s line}: if theta^2 != 1 the torus, of order prime to p, splits
    N^U into eigenlines, and the line generates M; if theta has order 2,
    t_s^2 = 0 and line + b t_s line spins to M. A nonzero submodule holds a
    U-fixed vector, U being a p-group, so it holds t_s line, whose spin
    t_s'(M') is thus the unique minimal submodule, proper as t_s' kills
    t_s(M) != 0. The same holds in M', so M has one maximal submodule, the
    annihilator of the socle of M': ker t_s, as M / ker t_s = t_s(M) is
    simple. The head has dimension rank t_s; the witness is t_s line.

    For 0 < k < q - 1, (w - t)^k = sum_j binom(k, j) w^j (-t)^(k - j) and
    the functions x -> x^e, e < q, are independent on F_q, so the cell
    block B of T raised to k has rank #{j <= k : binom(k, j) prime to p},
    `nonzero_binomials` at k. The border adds nothing: binom(k, 0) = 1
    gives some x with B x = 1, whose sum, +- the coefficient of w^k in B x
    as binom(k, k) = 1, is 0, so column 0 is x's combination of the cell
    columns, whose row 0, a constant, lies in the span of the cell rows.
    So rank t_s is the count at m and rank t_s' at q - 1 - m; the known
    answers (`_fine_dim`) are Lucas's and Fine's.
    """
    if module.m == 0:
        raise PreconditionError("the torus character is trivial at this level; the socle and "
                                "head are not unique here")
    level = module.level
    line_sum, counts = level.t_s_cols[0], level.nonzero_binomials
    return SocleHeadReport(IrreducibilityVerdict(False, line_sum),
                           counts[module.q - 1 - module.m], counts[module.m])


def case_verdict(module: InducedModule):
    """The rank-one statement on one induced module, as (whole, key, section,
    failed): the whole-module `IrreducibilityVerdict`, a JSON-ready section,
    and a JSON-ready dict naming each known answer that fails, empty when all
    hold. No other place states these answers.

    With theta trivial at the module's level, "hecke": the pieces of
    `HeckeOperators.idempotent_split`, each nonzero one simple, must have
    dims (1, q) ("dims"); a split into two nonzero pieces makes the whole
    module reducible, with the first piece's row as witness. Otherwise
    "socle_head", from `socle_head_report`, which also gives the
    whole-module verdict and proves the socle simple and the maximal
    submodule unique ("socle_ok", "maximal_ok"), or raises RelationError.
    Over the a! base-p digits d_i of m, zeros included, the socle must have
    dimension dim L(q - 1 - m), the product of (p - d_i), since q - 1 - m
    has the digits p - 1 - d_i ("socle"), and the head the product of
    (d_i + 1) ("head").
    """
    failed = {}
    if module.m == 0:
        pieces = HeckeOperators(module).idempotent_split()
        section = {
            "dims": [y.dim for y in pieces],
            "irreducible": [y.dim > 0 for y in pieces],
            "proof": [True] * len(pieces),
        }
        if section["dims"] != [1, module.q]:
            failed["dims"] = section["dims"]
        # with a zero piece the other is the whole module, simple
        witness = pieces[0].code_rows[0] if all(section["irreducible"]) else None
        whole = IrreducibilityVerdict(witness is None, witness)
        return whole, "hecke", section, failed
    rep = socle_head_report(module)
    section = {
        "socle_dim": rep.socle_dim,
        "socle_ok": True,
        "maximal_ok": True,
        "head_dim": rep.head_dim,
        "digit_product": _fine_dim(module.m, module.p),
    }
    socle = _fine_dim(module.q - 1 - module.m, module.p)
    if section["socle_dim"] != socle:
        failed["socle"] = {"dim": section["socle_dim"], "digit_product": socle}
    if section["head_dim"] != section["digit_product"]:
        failed["head"] = {"dim": section["head_dim"], "digit_product": section["digit_product"]}
    return rep.whole, "socle_head", section, failed


# -- costandard modules ------------------------------------------------------

# A costandard module costs q (q + (n+1)^2): its level's q x q tables, built
# once, and its q stored eps maps, q (n+1)^2 entries, which its Sym^n check
# reads with q (n+1)^2 table reads. The cap admits every
# n <= q - 1 at q <= 64 (n <= 90 at q = 64) and n <= 2 at q = 729 = 3^6,
# the largest field a module reaches, whose tables take 13 MB; it refuses
# q = 733, the next field, at n = 0. It bounds library calls only: no request
# builds a costandard module outside the `verify` grids, where q <= 9.
RELATION_WORK_CAP = 729 * 738


class _NaturalLevel(_SL2Module):
    """SL_2(F_q) on its natural module F_q^2 = span{x, y} by its own
    matrices, eps(t) = [[1, t], [0, 1]], h(u) = diag(u, 1/u) and
    s = [[0, 1], [-1, 0]], built and checked once per level
    (`_natural_level`): each `CostandardModule` there is checked as its
    Sym^n."""

    def __init__(self, p, coeff_level):
        self.p, self.coeff_level, self.dim = p, coeff_level, 2
        self.tower = make_tower(p)
        self.codes = self.tower.codes(coeff_level)
        self._check_relations()

    def eps(self, t) -> DenseMap:
        return DenseMap(self.codes, ((1, t), (0, 1)))

    def h(self, u) -> MonomialMap:
        return MonomialMap(self.codes, (0, 1), (u, self.codes.inv[u]))

    def s(self) -> MonomialMap:
        return MonomialMap(self.codes, (1, 0), (self.codes.neg[1], 1))


_natural_level = lru_cache(maxsize=None)(_NaturalLevel)


def _binomial_codes(codes, dim, p):
    """The codes of binom(i, j) mod p for i, j < dim, by Lucas's rule: for
    i = a + p i' with a < p, binom(i, b + p j') = binom(a, b) binom(i', j')
    mod p, which is 0 for b > a. So row i is row i // p, built before it,
    written at the offsets b, b + p, ... for each b <= a and scaled by the
    code of binom(a, b) mod p. The rows hold codes, so any prime p will do."""
    mul, scalars = codes.mul, codes.scalars
    rows = [[1] + [0] * (dim - 1)]
    for i in range(1, dim):
        a, parent = i % p, rows[i // p]
        row = [0] * dim
        for b in range(a + 1):  # a <= i < dim
            scale, count = scalars[comb(a, b) % p], len(range(b, dim, p))
            row[b::p] = parent[:count] if scale == 1 else map(mul[scale].__getitem__,
                                                               parent[:count])
        rows.append(row)
    return tuple(map(tuple, rows))


class CostandardModule(_SL2Module):
    """The (n+1)-dimensional module with basis v_0..v_n and
    eps(t) v_i = sum_(j<=i) binom(i, j) t^(i-j) v_j.

    An `_SL2Module` over the one field at coeff_level: the group acts
    there, its points are taken there, and the coordinates live there. The
    eps(t) act densely; h(u) is diagonal and s a signed antidiagonal, both
    monomial maps. Each eps(t) is built once, at construction, by Lucas's
    theorem, and stored; `eps`, `generators` and `pi_image` read the stored
    maps. Its relations are its level's natural module's
    (`_check_symmetric_power`, which checks the stored maps through `eps`);
    `_check_relations` stays as the reference route.
    """

    def __init__(self, n, p, coeff_level):
        if n < 0:
            raise ArgumentError("the highest weight must be nonnegative")
        q = field_order(p, coeff_level)
        work = q * (q + (n + 1) ** 2)
        if work > RELATION_WORK_CAP:
            raise CapabilityError(
                f"relation verification of the costandard module n = {n} over q = {q} is "
                f"beyond desk scale: its work q (q + (n+1)^2) = {work} exceeds the cap "
                f"{RELATION_WORK_CAP}")
        self.n = n
        self.p = p
        self.coeff_level = coeff_level
        natural = _natural_level(p, coeff_level)
        self.tower = natural.tower
        self.codes = codes = natural.codes
        self.dim = n + 1
        # p is proven prime by field_order
        self._binom = _binomial_codes(codes, self.dim, p)
        self._eps = tuple(map(self._lucas_eps, range(q)))
        self._check_symmetric_power()

    def _check_symmetric_power(self):
        """Every map the module hands out is Sym^n of its level's natural
        map (`_NaturalLevel`), on v_i = x^(n-i) y^i, in O(q n^2) reads of the
        level's add and mul tables. eps(t) sends v_i to x^(n-i) (t x + y)^i,
        column i - 1 times t x + y, so its columns follow Pascal's rule in
        t, col_i[j] = col_(i-1)[j-1] + t col_(i-1)[j], while the stored maps
        that `eps` hands out read their binomials off Lucas's theorem
        (`_lucas_eps`); h(u) scales v_i by u^(n-i) (1/u)^i,
        and s sends it to (-1)^(n-i) v_(n-i), both by iterated products.

        Sym^n(AB) = Sym^n(A) Sym^n(B), so every relation of the natural maps
        holds in the module: the level's check of Steinberg's presentation
        on them proves it here, for every x, u and t.
        """
        codes, n, dim = self.codes, self.n, self.dim
        add, mul, coords = codes.add, codes.mul, codes.coords

        def powers(c):
            out = [1]
            for _ in range(n):
                out.append(mul[out[-1]][c])
            return out

        for t in range(codes.q):
            times_t, col, cols = mul[t], [1] + [0] * n, []
            for _ in range(dim):
                cols.append(tuple(col))
                col = [times_t[col[0]]] + [add[a][times_t[b]] for a, b in zip(col, col[1:])]
            if tuple(zip(*self.eps(t).rows)) != tuple(cols):
                raise RelationError(
                    f"eps is not Sym^n of the natural eps: eps(t) differs at t = {coords[t]}")
        for u in range(1, codes.q):
            on_x, on_y = powers(u), powers(codes.inv[u])
            if self.h(u) != MonomialMap(codes, range(dim),
                                        (mul[on_x[n - i]][on_y[i]] for i in range(dim))):
                raise RelationError(
                    f"h is not Sym^n of the natural h: h(u) differs at u = {coords[u]}")
        sign = powers(codes.neg[1])
        if self.s() != MonomialMap(codes, (n - i for i in range(dim)),
                                   (sign[n - i] for i in range(dim))):
            raise RelationError("s is not Sym^n of the natural s")

    def eps(self, t) -> DenseMap:
        """The stored eps(t), built at construction."""
        return self._eps[t]

    def _lucas_eps(self, t) -> DenseMap:
        """eps(t), its entries binom(i, j) t^(i - j) from the module's
        Lucas binomials and the powers of t."""
        mul = self.codes.mul
        powers = [1]
        times_t = mul[t]
        for _ in range(self.n):
            powers.append(times_t[powers[-1]])
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i + 1):
                b = self._binom[i][j]
                if b:
                    rows[j][i] = mul[b][powers[i - j]]
        return DenseMap(self.codes, rows)

    def h(self, u) -> MonomialMap:
        """Diagonal: v_i is scaled by u^(n - 2i)."""
        if not u:
            raise ArgumentError("torus points are invertible")
        return MonomialMap(self.codes, range(self.dim),
                           [self.codes.power(u, self.n - 2 * i) for i in range(self.dim)])

    def s(self) -> MonomialMap:
        """Signed antidiagonal: v_i goes to (-1)^(n - i) v_(n - i)."""
        minus_one = self.codes.neg[1]
        return MonomialMap(self.codes, (self.n - i for i in range(self.dim)),
                           (1 if (self.n - i) % 2 == 0 else minus_one for i in range(self.dim)))


def l_submodule(cm: CostandardModule) -> Subspace:
    """Span of the v_i with binom(n, i) nonzero mod p, read off the
    module's last binomial row; checked stable. The span S is a coordinate
    subspace, so it is stable exactly when each generator's column i
    vanishes off S for every i in S: read off a dense map's rows and a
    monomial map's permutation, with no product and no row reduction."""
    in_span = cm._binom[cm.n]
    support = [i for i, b in enumerate(in_span) if b]
    outside = [j for j, b in enumerate(in_span) if not b]
    for g in cm.generators:
        if isinstance(g, MonomialMap):
            stable = all(in_span[g.perm[i]] for i in support)
        else:
            stable = not any(g.rows[j][i] for j in outside for i in support)
        if not stable:
            raise RelationError("digit span is not a submodule")
    # unit vectors in increasing order are canonical echelon rows
    return Subspace(cm, tuple(map(cm.unit_vector, support)))


# -- the level bridge --------------------------------------------------------


@record
class PiImageRecord:
    nonzero_indices: tuple[int, ...]
    m_t: int

    @property
    def is_zero(self) -> bool:
        return not self.nonzero_indices


def pi_image(theta: TruncatedCharacter, r, t) -> PiImageRecord:
    """sum over a in F_(p^(r!)) of eps(a) . v_(m_t) inside the costandard
    module of weight m_t, computed two independent ways.

    Direct route: sum the actions of the module's stored eps(a). Closed
    route: binomials mod p times power sums, nonzero only at depths
    k (p^(r!) - 1). Both must agree entrywise; the caller reads off
    nonzero-ness.
    """
    if not 1 <= r < t:
        raise ArgumentError("need 1 <= r < t")
    if theta.level < t:
        raise ArgumentError(f"character needs residues up to level {t}")
    p = theta.p
    m_t = theta.residue(t)
    cm = CostandardModule(m_t, p, coeff_level=t)
    top = cm.unit_vector(m_t)
    total = (0,) * cm.dim
    for a in cm.tower.subfield_codes(r, t):
        total = vec_add(cm.codes, total, cm.eps(a).apply(top))
    qr = field_order(p, r)
    closed = [0] * cm.dim
    for ell in range(m_t + 1):
        b = _lucas_digit_product(m_t, ell, p)
        closed[m_t - ell] = (b * power_sum(qr, ell, include_zero=True)) % p
    if tuple(map(cm.codes.scalars.__getitem__, closed)) != total:
        raise RelationError("closed form and direct summation disagree")
    nonzero = tuple(i for i, c in enumerate(total) if c)
    return PiImageRecord(nonzero, m_t)


@record
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


# -- the intertwiner to the dual ----------------------------------------------


def _raised_entries(codes, cols, k):
    """The columns cols with each nonzero entry c raised to c^k."""
    up = (0, *(codes.power(c, k) for c in range(1, codes.q)))
    return tuple(tuple(map(up.__getitem__, col)) for col in cols)


class HeckeOperators:
    """For theta trivial, the split of M = Ind theta by the projectors
    e = 1 + t_s and o = -t_s, t_s being T raised to 0: T is zero exactly on
    its diagonal, so t_s = J - I, J all ones, and t_s^2 = -t_s as q = 0 mod
    p (Howlett and Kilmoyer, Comm. Algebra 1980; Sawada, Math. Z. 1977): e = J
    and o = I - J are orthogonal idempotents summing to 1. P(M)^U = P(M^U)
    for P in {e, o}, spanned by P(line) as e t_s line = 0 and o t_s line =
    -o line. So each nonzero P(M) is simple: a nonzero submodule holds a
    U-fixed vector, U being a p-group, hence P(line), which spins to P(M).
    """

    def __init__(self, module: InducedModule):
        self.module = module
        self._cols = _raised_entries(module.codes, module.level.t_s_cols, module.m)

    def idempotent_split(self):
        """Images of the two projectors, as submodules, in closed form once
        an O(q^2) check finds t_s = J - I: e's is the line of (1, ..., 1);
        o's, of rank q, is the sum-zero hyperplane, rows e_i - e_q for i < q,
        as o's column j, e_j - (1, ..., 1), sums to -q = 0. Needs theta
        trivial: when theta has order 2, 1 + t_s is invertible."""
        module = self.module
        if module.m:
            raise PreconditionError(
                "the projectors 1 + t_s and -t_s need theta trivial at this level")
        if any(col[j] or col.count(1) != module.q for j, col in enumerate(self._cols)):
            raise RelationError("t_s is not J - I: T is not zero exactly on its diagonal")
        rows = (module.unit_vector(i)[:-1] + (module.codes.neg[1],) for i in range(module.q))
        return Subspace(module, ((1,) * module.dim,)), Subspace(module, tuple(rows))
