"""Finite-level rank-one laboratory.

Builds the induced module of SL_2(F_q), q = p^(a!), from a character of the
diagonal torus with a stable upper-triangular line, entirely as explicit
matrices over a tower field. Everything the rest of the library predicts
about socles, heads, irreducibility, and the transition to higher levels is
checked here by exact linear algebra: intertwiners between the module and
its dual, fixed spaces, spinning vectors, and splitting by idempotents in
the endomorphism ring.

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
pinned down by the relation check of every construction: s^2 = h(-1)
fixes its sign and the conjugation word

    s^-1 eps(t) s = eps(-1/t) s h(t) eps(-1/t)

its scale on every cell.
"""

from __future__ import annotations

from functools import cached_property

from .characters import TruncatedCharacter
from .digits import ArgumentError, RelationError, _fine_dim, _lucas_digit_product, power_sum, record
from .linalg import (
    DenseMap,
    MonomialMap,
    mat_vec,
    monomial_fixed_rows,
    rref,
    rref_insert,
    span_contains,
    vec_add,
    vec_scale,
)
from .towers import CapabilityError, field_order, make_tower

GROUP_ORDER_CAP = 64        # largest q for which modules are built


class PreconditionError(ValueError):
    """A stated hypothesis of the requested operation fails."""


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

    Each call of eps, h or s builds a new map. The generators and M^U are
    built once per module instance, on first use, and every spin, stability
    check and intertwiner of the module reads them."""

    def unit_vector(self, i):
        """The i-th basis vector, in codes."""
        return (0,) * i + (1,) + (0,) * (self.dim - i - 1)

    @cached_property
    def generators(self):
        """eps over an F_p-basis of F_q, then h at a generator of the units,
        then s."""
        gens = [self.eps(b) for b in self.codes.basis]
        gens.append(self.h(self.codes.generator))
        gens.append(self.s())
        return tuple(gens)

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
        intertwiners are checked against the maps proved here; each other map
        is built once.
        """
        codes = self.codes
        q, sub, mul, neg, inv = codes.q, codes.sub, codes.mul, codes.neg, codes.inv
        basis, g, coords = codes.basis, codes.generator, codes.coords
        *eps_b, h_g, s = self.generators
        eps = dict(zip(basis, eps_b))
        eps.update({x: self.eps(x) for x in range(q) if x not in eps})
        h = {g: h_g}
        h.update({u: self.h(u) for u in range(1, q) if u not in h})
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


class InducedModule(_SL2Module):
    """kG_a tensor theta, with cell basis {line} + {eps(t) s line : t in F_q}.

    An `_SL2Module` with monomial actions over the one field F_q at level a:
    the group, the character values and the coordinates all live there.
    The cells come in the order of their labels' codes: cell(t) has index
    1 + t, so the maps' permutations are rows of the code tables shifted by
    one.
    """

    def __init__(self, p, a, theta: TruncatedCharacter):
        if theta.p != p:
            raise ArgumentError("character prime disagrees with p")
        if theta.level < a:
            raise ArgumentError(f"character needs residues up to level {a}")
        self.q = field_order(p, a)
        self.p = p
        self.a = self.coeff_level = a
        if self.q > GROUP_ORDER_CAP:
            raise CapabilityError(
                f"group field order {self.q} exceeds the desk-scale cap {GROUP_ORDER_CAP}"
            )
        self.m = theta.residue(a)
        self.tower = make_tower(p)
        self.codes = codes = self.tower.codes(a)
        self.dim = self.q + 1
        # the code of theta(u) = u^m at the code of u
        self._theta = [0] + [codes.power(u, self.m) for u in range(1, self.q)]
        self._check_relations()

    # index 0 is the stable line; 1 + t is the cell eps(t) s line

    def eps(self, x) -> MonomialMap:
        """Upper unipotent: fixes the line, translates the cells."""
        return MonomialMap(self.codes, [0] + [1 + c for c in self.codes.add[x]], [1] * self.dim)

    def h(self, u) -> MonomialMap:
        """Torus: scales the line by theta(u), rescales and squeezes cells."""
        if not u:
            raise ArgumentError("torus points are invertible")
        codes = self.codes
        squeeze = codes.mul[codes.mul[u][u]]
        return MonomialMap(codes, [0] + [1 + t for t in squeeze],
                           [self._theta[u]] + [self._theta[codes.inv[u]]] * self.q)

    def s(self) -> MonomialMap:
        """Swaps the line and the cell at 0: s . line = cell(0),
        s . cell(0) = theta(-1) line, and s . cell(t) = theta(-t) cell(-1/t)
        for t != 0."""
        neg, inv, theta = self.codes.neg, self.codes.inv, self._theta
        units = range(1, self.q)
        return MonomialMap(self.codes, [1, 0] + [1 + neg[inv[t]] for t in units],
                           [1, theta[neg[1]]] + [theta[neg[t]] for t in units])

    @cached_property
    def u_fixed_rows(self):
        """The canonical code rows of M^U: the fixed space of the eps
        generators, read off their orbits by `linalg.monomial_fixed_rows`,
        as eps acts monomially here."""
        return monomial_fixed_rows(self.codes, self.generators[:-2], self.dim)

    def dual(self):
        """The contragredient module, on the dual basis: the induced module
        of theta^-1 on the same cells, or this module when theta^2 = 1.

        g acts on the dual basis by (g^-1)^T. For a monomial map g, sending
        cell j to scale[j] cell perm[j], g^-1 sends cell perm[j] back to
        cell j with scale 1/scale[j], and its transpose sends cell j to
        cell perm[j] with that scale: the permutation is kept and every
        scale inverted. Each map here takes its permutation from the code
        tables alone and each scale is 1 or a value of theta, so at every
        point the dual's map is the map of theta^-1. The contragredient of
        a representation is one, so those maps satisfy the presentation
        checked for theta's maps, and the check is not run again.

        The dual is built once, and its dual is this module. It shares this
        module's M^U (`u_fixed_rows`): eps does not read theta, so the two
        modules have the same eps maps, and M^U, read off their orbits, is
        walked once for both.
        """
        if "_dual" in vars(self):
            return self._dual
        units = self.q - 1
        if 2 * self.m % units == 0:
            return self
        dual = InducedModule.__new__(InducedModule)
        for name in ("q", "p", "a", "coeff_level", "tower", "codes", "dim", "u_fixed_rows"):
            setattr(dual, name, getattr(self, name))
        dual.m = -self.m % units
        dual._theta = [0] + [self.codes.inv[c] for c in self._theta[1:]]
        self._dual, dual._dual = dual, self
        return dual

    def line_sum_vector(self, subfield_level=None):
        """sum over u in the chosen subfield of u . s . line, one cell each."""
        if subfield_level is None:
            subfield_level = self.a
        if subfield_level > self.a:
            raise ArgumentError("subfield level exceeds the group level")
        cells = {1 + c for c in self.tower.subfield_codes(subfield_level, self.a)}
        return tuple(int(i in cells) for i in range(self.dim))

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
        if h_g.apply(line) != vec_scale(self.codes, self._theta[self.codes.generator], line):
            raise RelationError("h must scale the line by theta")
        super()._check_relations()


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
    `HeckeOperators`: the verdict is exhaustive and a proof either way."""

    irreducible: bool
    witness: tuple | None = None  # a code vector spinning to a proper submodule

    mode = "exhaustive"
    proof = True


def _is_stable(module, sub: Subspace) -> bool:
    rows = sub.code_rows
    return all(span_contains(module.codes, rows, g.apply(r))
               for g in module.generators for r in rows)


# -- socle and head ----------------------------------------------------------


@record
class SocleHeadReport:
    whole: IrreducibilityVerdict
    socle: Subspace               # the unique minimal submodule
    head_dim: int                 # dim of the simple head, M / ker t_s


def socle_head_report(module) -> SocleHeadReport:
    """Irreducibility of the whole module M, its unique minimal submodule
    and the dimension of its simple head, from the intertwiners
    t_s: M -> M' and t_s': M' -> M of `HeckeOperators`, M' the dual, and
    t_s' = t_s, built once, when theta^2 = 1 makes M' = M. Needs theta
    nontrivial at the module's level.

    With t_s' t_s line = 0 checked here, `HeckeOperators` proves the socle
    to be t_s'(M'), the span of the columns of t_s', a proper submodule
    that the sum of the cells, t_s line, spins to, and the maximal
    submodule to be ker t_s: the head M / ker t_s = t_s(M) has dimension
    rank t_s, read off one rref of t_s's rows.
    """
    if module.m == 0:
        raise PreconditionError(
            "the torus character is trivial at this level; the socle and head "
            "are not unique here"
        )
    ops, dual = HeckeOperators(module), module.dual()
    dual_ops = ops if dual is module else HeckeOperators(dual)
    codes = module.codes
    if any(mat_vec(codes, dual_ops.t_s_rows, ops.t_s_line)):
        raise RelationError("the intertwiners do not compose to 0: t_s' t_s line != 0")
    return SocleHeadReport(IrreducibilityVerdict(False, ops.t_s_line),
                           Subspace(module, rref(codes, dual_ops._cols)),
                           len(rref(codes, ops.t_s_rows)))


def socle_digit_product(module: InducedModule) -> int:
    """dim L(q - 1 - m), the known socle dimension of a nontrivial induced
    module: the product of (p - d_i) over the a! base-p digits d_i of m,
    zeros included, since q - 1 - m has the digits p - 1 - d_i."""
    return _fine_dim(module.q - 1 - module.m, module.p)


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
    submodule unique ("socle_ok", "maximal_ok"), or raises RelationError:
    the socle must have dimension `socle_digit_product` ("socle"), and the
    head the product of (d_i + 1) over the base-p digits d_i of m ("head").
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
        "socle_dim": rep.socle.dim,
        "socle_ok": True,
        "maximal_ok": True,
        "head_dim": rep.head_dim,
        "digit_product": _fine_dim(module.m, module.p),
    }
    socle = socle_digit_product(module)
    if section["socle_dim"] != socle:
        failed["socle"] = {"dim": section["socle_dim"], "digit_product": socle}
    if section["head_dim"] != section["digit_product"]:
        failed["head"] = {"dim": section["head_dim"], "digit_product": section["digit_product"]}
    return rep.whole, "socle_head", section, failed


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
        q = field_order(p, coeff_level)
        if q * q * (n + 1) ** 3 > RELATION_WORK_CAP:
            raise CapabilityError("relation verification at this size is beyond desk scale")
        self.n = n
        self.p = p
        self.coeff_level = coeff_level
        self.tower = make_tower(p)
        self.codes = codes = self.tower.codes(coeff_level)
        self.dim = n + 1
        # the codes of binom(i, j) mod p; p is proven prime by field_order
        self._binom = tuple(tuple(codes.scalars[_lucas_digit_product(i, j, p)]
                                  for j in range(self.dim))
                            for i in range(self.dim))
        self._check_relations()

    def eps(self, t) -> DenseMap:
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
    module's last binomial row; checked stable."""
    rows = [cm.unit_vector(i) for i, b in enumerate(cm._binom[cm.n]) if b]
    sub = Subspace(cm, rref(cm.codes, rows))
    if not _is_stable(cm, sub):
        raise RelationError("digit span is not a submodule")
    return sub


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


class HeckeOperators:
    """The intertwiner t_s: M -> M' from the module M = Ind theta to its
    dual M' = Ind theta^-1 (`module.dual()`) and, for theta trivial, the
    split by the projectors e = 1 + t_s and o = -t_s.

    Frobenius reciprocity gives Hom_G(M, M') = Hom_B(theta, M'), the
    theta-weight line of M'^U: the sum L of all cells, U-fixed and scaled
    by theta^-1(1/u) = theta(u) under h(u). So t_s sends the line to L, and
    the cell eps(t) s line to eps(t) s' L, s' the s of M'. When theta^2 = 1,
    M' = M and t_s spans End_G(M) with 1 (Howlett and Kilmoyer, Comm.
    Algebra 1980; Sawada, Math. Z. 1977). Checked: t_s g = g' t_s for each
    aligned pair of generators g of M and g' of M', one whole-map identity
    each; when M' = M, t_s^2 line = c t_s line, c the sum of theta over the
    units, -1 for theta trivial and else 0 (the q translates of s L sum to
    q theta(-1) line + c L), which proves t_s^2 = c t_s, as t_s^2 - c t_s is
    equivariant and kills the line, which generates the module; and
    M^U = span{line, t_s line}, M^U read off the orbits of the monomial eps
    (`u_fixed_rows`).

    Theta trivial: e and o are orthogonal idempotents summing to 1, and
    P(M)^U = P(M^U) for P in {e, o}, spanned by P(line) as e t_s line = 0
    and o t_s line = -o line. So each nonzero P(M) is simple: a nonzero
    submodule holds a U-fixed vector, U being a p-group, hence P(line),
    which spins to P(M).

    Theta nontrivial, with t_s' the intertwiner of M', back to M: a proper
    submodule N of M has N^U inside span{t_s line}. If theta^2 != 1, h(g)
    scales the line by theta(g) and t_s line by theta(g)^-1, another
    eigenvalue, and N^U, stable under the torus, which has order prime to
    p, is spanned by eigenvectors; the line generates M. If theta has order
    2, t_s^2 = 0, so line + b t_s line = (1 + b t_s) line spins to M for
    every b. A nonzero submodule holds a U-fixed vector, so it is M or
    holds t_s line, and so the spin of t_s line, which is t_s'(M') as
    t_s' sends the line of M' to t_s line: t_s'(M') is the unique minimal
    submodule. It is proper: t_s' t_s kills the line, which
    `socle_head_report` checks, so t_s' t_s = 0, and t_s' kills
    t_s(M) != 0; not injective, it is not onto. The same holds for M', so
    M / ker t_s = t_s(M) is simple, and the maximal submodules of M are
    the annihilators of the minimal submodules of M', its contragredient:
    ker t_s is the unique maximal submodule, and the simple head has
    dimension rank t_s, which is all `socle_head_report` reads of it.
    """

    def __init__(self, module: InducedModule):
        self.module = module
        codes = module.codes
        # t_s sends the line to the sum of all cells and is extended to the
        # cell eps(t) s line by equivariance under eps(t) s, s taken in the
        # target; eps(t), the same map in both modules, fixes the line and
        # sends cell(u) to cell(u + t) with scale one, so that column is
        # s_image translated: its coordinate at cell(w) is s_image's at
        # cell(w - t), and w - t = -(t - w)
        self.t_s_line = image_of_line = module.line_sum_vector()
        s_image = module.dual().generators[-1].apply(image_of_line)
        at_minus = [s_image[1 + c] for c in codes.neg]
        cols = [image_of_line] + [
            (s_image[0],) + tuple(map(at_minus.__getitem__, codes.sub[t]))
            for t in range(module.q)
        ]
        self._cols = tuple(cols)
        self.t_s_rows = tuple(zip(*cols))
        self._check_relations()

    def _check_relations(self):
        """Equivariance, t_s^2 = c t_s when the target is the module, and
        M^U = span{line, t_s line}."""
        module, target, codes = self.module, self.module.dual(), self.module.codes
        t_s = DenseMap(codes, self.t_s_rows)
        for g, g_target in zip(module.generators, target.generators):
            if t_s.compose(g) != g_target.compose(t_s):
                raise RelationError("the cell-averaging operator is not equivariant")
        c = 0 if module.m else codes.neg[1]
        if target is module and t_s.apply(self.t_s_line) != vec_scale(codes, c, self.t_s_line):
            raise RelationError("the Hecke relation t_s^2 = c t_s fails, c = -1 if theta = 1, else 0")
        if module.u_fixed_rows != rref(codes, (module.unit_vector(0), self.t_s_line)):
            raise RelationError("M^U is not spanned by the line and t_s line")

    def idempotent_split(self):
        """Images of the two projectors, as submodules: the span of the
        columns e_j + t_s e_j, and that of the columns of t_s. Needs theta
        trivial: when theta has order 2, 1 + t_s is invertible."""
        module, codes = self.module, self.module.codes
        if module.m:
            raise PreconditionError(
                "the projectors 1 + t_s and -t_s need theta trivial at this level")
        units = (module.unit_vector(j) for j in range(module.dim))
        y_full = Subspace(module, rref(codes, (vec_add(codes, e, c) for e, c in zip(units, self._cols))))
        y_empty = Subspace(module, rref(codes, self._cols))
        if y_full.dim + y_empty.dim != self.module.dim:
            raise RelationError("projector images do not decompose the module")
        return y_full, y_empty
