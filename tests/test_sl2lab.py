from __future__ import annotations

import json
import re
from collections import Counter
from math import comb, factorial, prod

import pytest

import element_route as ref
from borelline import cli, sl2lab, suites
import proof_route
from census_route import CensusReport, b_stable_lines, census_report, census_socle, within
from borelline.characters import LucasSearch, RationalPower, lucas_criterion, truncate
from borelline.digits import ArgumentError, _fine_dim, _lucas_digit_product
from borelline.linalg import DenseMap, MonomialMap, mat_mul, mat_vec, rref, vec_scale
from borelline.sl2lab import (
    CostandardModule,
    HeckeOperators,
    InducedModule,
    IrreducibilityVerdict,
    PreconditionError,
    RelationError,
    SocleHeadReport,
    Subspace,
    case_verdict,
    l_submodule,
    pi_image,
    socle_head_report,
    spin,
    trivial_character,
    verify_irreducibility_chain,
)
from borelline.towers import CapabilityError, Codes, FieldElement, FieldTower, make_tower

GRID = ((2, 1), (3, 1), (2, 2))
# every level with q <= 25
SELF_DUAL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1),
                    (17, 1), (19, 1), (23, 1), (5, 2))


def power_char(lam, p, level=2):
    return truncate(RationalPower(lam), p, level)


def test_construction_checks_relations_across_grid():
    for p, a in GRID:
        for lam in (0, 1, -1, 2):
            module = InducedModule(p, a, power_char(lam, p, max(a, 2)))
            assert module.dim == module.q + 1


def _negated(g, cols):
    """g with the given columns (all when None) negated: another map for odd p."""
    def sign(j, c):
        return g.codes.neg[c] if cols is None or j in cols else c

    if isinstance(g, MonomialMap):
        return MonomialMap(g.codes, g.perm, [sign(j, c) for j, c in enumerate(g.scale)])
    return DenseMap(g.codes, [[sign(j, c) for j, c in enumerate(row)] for row in g.rows])


def _span(module, vecs):
    """The subspace spanned by FieldElement vectors, reduced on the
    reference route."""
    return Subspace(module, tuple(ref.encode(module.codes, v) for v in ref.rref(vecs)))


def _contains(sub, vec):
    """Whether the subspace holds the code vector vec."""
    return proof_route.span_contains(sub.module.codes, sub.code_rows, vec)


def _cell(module, t):
    """The index of the cell eps(t) s line at the FieldElement t."""
    return 1 + module.codes.code(t)


def _theta(module, u):
    """theta(h(u)) = u^m at the FieldElement u, by its power operator."""
    return u ** module.m


def _one(module):
    return module.tower.scalar(1, module.coeff_level)


def _zero(module):
    return module.tower.zero(module.coeff_level)


def _minus_one(module):
    return -_one(module)


def _generator(module):
    return module.tower.multiplicative_generator(module.coeff_level)


# (generator, element it is broken at, columns negated, relation named by
# the presentation check, map and point named by a costandard module's
# check against Sym^n of its natural module, at p = 3). At p = 3 a negated
# column is a different map; at p = 2 it is the same one. Column 0 of an
# induced module is the stable line, so breaking column 1 leaves the line
# checks passing.
BROKEN_GENERATORS = (
    ("eps", _zero, {1}, "eps is not additive", "eps(t) differs at t = (0,)"),
    # eps(1) times -1 off column 0 still fixes the line; its cube is not 1
    ("eps", _one, range(1, 4), "eps(b)^p is not the identity", "eps(t) differs at t = (1,)"),
    # -1 is no basis element of F_3; the check composes eps(1) eps(1)
    ("eps", _minus_one, {1}, "eps(x) != eps(x - b) eps(b)", "eps(t) differs at t = (2,)"),
    ("h", _one, {1}, "h is not multiplicative", "h(u) differs at u = (1,)"),
    ("s", None, {0}, "s^2 must equal h(-1)", "s is not Sym^n of the natural s"),
    # -s still squares to h(-1), but negates one side of the conjugation word
    ("s", None, None, "the s-conjugation relation fails", "s is not Sym^n of the natural s"),
)


def _break_generator(monkeypatch, cls, name, at, cols):
    real = getattr(cls, name)
    if name == "s":
        monkeypatch.setattr(cls, name, lambda self: _negated(real(self), cols))
        return

    def broken(self, x):
        g = real(self, x)
        return _negated(g, cols) if x == self.codes.code(at(self)) else g

    monkeypatch.setattr(cls, name, broken)


# the line is checked on the generators, so the line mutant breaks h(g)
BROKEN_INDUCED = tuple(case[:4] for case in BROKEN_GENERATORS) + (
    ("h", _generator, {0}, "h must scale the line by theta"),)


def _check_relations_pairwise(module):
    """The reference route: the relations of SL_2(F_q) between the actions
    of every pair of elements, in O(q^2) compositions. The points are
    combined by FieldElement operators and coded for the actions."""
    elems = tuple(module.tower.enumerate_elements(module.coeff_level))
    units = [u for u in elems if not u.is_zero()]
    code = module.codes.code
    eps = {x: module.eps(code(x)) for x in elems}
    h = {u: module.h(code(u)) for u in units}
    for x in elems:
        for y in elems:
            if eps[x].compose(eps[y]) != eps[x + y]:
                raise RelationError("eps is not additive")
    for u in units:
        hu = h[u]
        for v in units:
            if hu.compose(h[v]) != h[u * v]:
                raise RelationError("h is not multiplicative")
        hu_inv = h[u.inverse()]
        for x in elems:
            if hu.compose(eps[x]).compose(hu_inv) != eps[u * u * x]:
                raise RelationError("torus does not normalize eps correctly")
    s = module.s()
    minus_one = -module.tower.scalar(1, module.coeff_level)
    if s.compose(s) != h[minus_one]:
        raise RelationError("s^2 must equal h(-1)")
    s_inv = h[minus_one].compose(s)
    for t in units:
        w = -t.inverse()
        lhs = s_inv.compose(eps[t]).compose(s)
        if lhs != eps[w].compose(s).compose(h[t]).compose(eps[w]):
            raise RelationError("the s-conjugation relation fails")


def _build_unchecked(monkeypatch, build):
    """The module build() gives with no relation check at construction; an
    induced module's level, or a costandard module's natural one, is built
    anew, unchecked, and the `fresh_caches` fixture drops it when the test
    ends."""
    sl2lab._induced_level.cache_clear()
    sl2lab._natural_level.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(sl2lab._InducedLevel, "_check_relations", lambda self: None)
        patch.setattr(sl2lab._SL2Module, "_check_relations", lambda self: None)
        patch.setattr(CostandardModule, "_check_symmetric_power", lambda self: None)
        return build()


def _relation_grid():
    """The modules of the `sl2-relations` suite: induced modules over
    `SL2_GRID` and the costandard modules of weight up to its bound."""
    for p, a in suites.SL2_GRID:
        for _, theta in suites._sl2_characters(p):
            yield InducedModule(p, a, theta)
        for n in range(suites.COSTANDARD_WEIGHT_BOUND + 1):
            yield CostandardModule(n, p, coeff_level=a)


def _dual(module):
    """An induced module's dual, Ind theta^-1 (`proof_route.dual`); the
    transposed contragredient of a costandard module."""
    return proof_route.dual(module) if isinstance(module, InducedModule) else ref.Contragredient(module)


def test_presentation_check_agrees_with_the_pairwise_reference():
    # every module built passed the presentation check; it and its dual
    # pass both routes
    modules = list(_relation_grid())
    assert len(modules) == 3 * (4 + 9)
    for module in modules:
        for mod in (module, _dual(module)):
            mod._check_relations()
            _check_relations_pairwise(mod)


@pytest.mark.parametrize("name, at, cols, relation", BROKEN_INDUCED,
                         ids=[case[-1] for case in BROKEN_INDUCED])
def test_relation_checker_catches_a_broken_induced_module(monkeypatch, fresh_caches,
                                                          name, at, cols, relation):
    # the mutant is the level's map, which the first module built at the
    # level checks; every module there raises its scales
    _break_generator(monkeypatch, sl2lab._InducedLevel, name, at, cols)
    with pytest.raises(RelationError, match=re.escape(relation)):
        InducedModule(3, 1, power_char(1, 3))
    module = _build_unchecked(monkeypatch, lambda: InducedModule(3, 1, power_char(1, 3)))
    with pytest.raises(RelationError):
        _check_relations_pairwise(module)


@pytest.mark.parametrize("name, at, cols, relation, sym_n", BROKEN_GENERATORS,
                         ids=[case[3] for case in BROKEN_GENERATORS])
def test_relation_checker_catches_a_broken_costandard_module(monkeypatch, fresh_caches,
                                                             name, at, cols, relation, sym_n):
    # the mutant breaks the module's map, not its natural module's: the
    # module's check against Sym^n of the natural maps names the map and
    # the point, and the pairwise route the relation
    _break_generator(monkeypatch, CostandardModule, name, at, cols)
    with pytest.raises(RelationError, match=re.escape(sym_n)):
        CostandardModule(2, 3, coeff_level=1)
    module = _build_unchecked(monkeypatch, lambda: CostandardModule(2, 3, coeff_level=1))
    with pytest.raises(RelationError):
        _check_relations_pairwise(module)


@pytest.mark.parametrize("name, at, cols, relation, sym_n", BROKEN_GENERATORS,
                         ids=[case[3] for case in BROKEN_GENERATORS])
def test_relation_checker_catches_a_broken_natural_module(monkeypatch, fresh_caches,
                                                          name, at, cols, relation, sym_n):
    # the mutant is the natural module's map, which the first costandard
    # module built at the level checks against the presentation
    _break_generator(monkeypatch, sl2lab._NaturalLevel, name, at, cols)
    with pytest.raises(RelationError, match=re.escape(relation)):
        CostandardModule(2, 3, coeff_level=1)
    module = _build_unchecked(monkeypatch, lambda: sl2lab._natural_level(3, 1))
    with pytest.raises(RelationError):
        _check_relations_pairwise(module)


def _binomial_row_off_by_one(monkeypatch):
    """Row i of a costandard module's binomials read from row i - 1 for
    i >= 2: rows 0 and 1 stay right, so ∇(0) and ∇(1) still pass."""
    real = sl2lab._binomial_codes

    def shifted(codes, dim, p):
        rows = real(codes, dim, p)
        return rows[:2] + rows[1:-1]

    monkeypatch.setattr(sl2lab, "_binomial_codes", shifted)


def _s_sign_flipped(monkeypatch):
    real = CostandardModule.s
    monkeypatch.setattr(CostandardModule, "s", lambda self: _negated(real(self), None))


def _h_exponent_off_by_one(monkeypatch):
    """h(u) scaling v_i by u^(n - 2i + 1)."""
    def h(self, u):
        return MonomialMap(self.codes, range(self.dim),
                           [self.codes.power(u, self.n - 2 * i + 1) for i in range(self.dim)])
    monkeypatch.setattr(CostandardModule, "h", h)


def _eps_entry_negated_off_the_basis(monkeypatch):
    """eps(-1), -1 no element of the F_p-basis, with the entry t^n of its
    column n negated; every generator stays right."""
    real = CostandardModule.eps

    def eps(self, t):
        g = real(self, t)
        if t != self.codes.neg[1]:
            return g
        rows = [list(row) for row in g.rows]
        rows[0][self.n] = self.codes.neg[rows[0][self.n]]
        return DenseMap(self.codes, rows)
    monkeypatch.setattr(CostandardModule, "eps", eps)


# (mutant, map and point the Sym^n check names on ∇(4) at q = 9)
SYM_N_MUTANTS = (
    (_binomial_row_off_by_one, "eps is not Sym^n of the natural eps: eps(t) differs at t = (0, 0)"),
    (_s_sign_flipped, "s is not Sym^n of the natural s"),
    (_h_exponent_off_by_one, "h is not Sym^n of the natural h: h(u) differs at u = (0, 1)"),
    (_eps_entry_negated_off_the_basis,
     "eps is not Sym^n of the natural eps: eps(t) differs at t = (2, 0)"),
)


@pytest.mark.parametrize("mutate, named", SYM_N_MUTANTS,
                         ids=("binomial-row", "s-sign", "h-exponent", "eps-entry-off-basis"))
def test_the_symmetric_power_check_catches_costandard_mutants(monkeypatch, fresh_caches,
                                                             mutate, named):
    # the natural module, built and checked first under each mutant, passes:
    # the mutants break only the costandard module's own maps. The check
    # against Sym^n of the natural maps catches each, and so does the
    # pairwise route, so that both stay live
    mutate(monkeypatch)
    natural = sl2lab._natural_level(3, 2)
    assert natural.codes.neg[1] not in natural.codes.basis
    with pytest.raises(RelationError, match=re.escape(named)):
        CostandardModule(4, 3, coeff_level=2)
    module = _build_unchecked(monkeypatch, lambda: CostandardModule(4, 3, coeff_level=2))
    with pytest.raises(RelationError):
        _check_relations_pairwise(module)


def _eps_not_commuting(real):
    """eps(b_1) conjugated by the swap of the cells at 0 and b_0: it still
    fixes the line and has order p, but no longer commutes with eps(b_0)."""
    def eps(self, x):
        g = real(self, x)
        b0, b1 = ref.standard_basis(self.tower, self.a)
        if x != self.codes.code(b1):
            return g
        perm = list(range(self.dim))
        i, j = _cell(self, self.tower.zero(self.a)), _cell(self, b0)
        perm[i], perm[j] = j, i
        swap = MonomialMap(self.codes, perm, [1] * self.dim)
        return swap.compose(g).compose(swap)
    return eps


def _h_at_g_squared_negated(real):
    """h(g^2) with column 1 negated, where 1 < 2 < q - 1."""
    def h(self, u):
        g = self.tower.multiplicative_generator(self.a)
        return _negated(real(self, u), {1}) if u == self.codes.code(g * g) else real(self, u)
    return h


def _h_moving_cells_by_u(real):
    """h(u) moving cell(t) to cell(u t), not cell(u^2 t): still
    multiplicative, but h(g) eps(b) h(g)^-1 = eps(g b)."""
    def h(self, u):
        g = real(self, u)
        perm = list(g.perm)
        point = self.codes.elements[u]
        for t in self.codes.elements:
            perm[_cell(self, t)] = _cell(self, point * t)
        return MonomialMap(g.codes, perm, g.scale)
    return h


# (p, a, generator, replacement, relation named): induced-module mutants
# that negating columns of one map at p = 3 cannot give
PRESENTATION_MUTANTS = (
    (3, 2, "eps", _eps_not_commuting, "eps(b) and eps(c) do not commute"),
    (5, 1, "h", _h_at_g_squared_negated, "h(g^(k+1)) != h(g^k) h(g) at k = 1"),
    (3, 1, "h", _h_moving_cells_by_u, "torus does not normalize eps correctly"),
)


@pytest.mark.parametrize("p, a, name, replace, relation", PRESENTATION_MUTANTS,
                         ids=[case[-1] for case in PRESENTATION_MUTANTS])
def test_relation_checker_catches_presentation_mutants(monkeypatch, fresh_caches,
                                                       p, a, name, replace, relation):
    level = sl2lab._InducedLevel
    monkeypatch.setattr(level, name, replace(getattr(level, name)))
    with pytest.raises(RelationError, match=re.escape(relation)):
        InducedModule(p, a, power_char(1, p, a))
    module = _build_unchecked(monkeypatch, lambda: InducedModule(p, a, power_char(1, p, a)))
    with pytest.raises(RelationError):
        _check_relations_pairwise(module)


@pytest.mark.parametrize("build, p, d, counts", (
    (lambda: InducedModule(2, 3, power_char(1, 2, 3)), 2, 6, {"MonomialMap": 490}),
    (lambda: InducedModule(61, 1, power_char(1, 61, 1)), 61, 1, {"MonomialMap": 483}),
    (lambda: [CostandardModule(n, 2, coeff_level=3) for n in (8, 63, 0)], 2, 6,
     {"DenseMap": 357, "MonomialMap": 133}),
), ids=["induced-2-3", "induced-61-1", "costandard-8-2-3"])
def test_relation_check_composes_linearly_in_q(compose_calls, fresh_caches, build, p, d, counts):
    """7q - 6 + d(p + d) compositions at q = p^d, made by the check of the
    level that the first induced module built there makes, or the natural
    module that the first costandard module built there makes: d(p - 1) for
    the orders of the eps(b), d(d - 1) for their commutators, q - 1 for the
    eps(x), q - 2 for the powers of h(g), 2d for the normalising squares, one
    for s^2 and 1 + 5(q - 1) for the s-conjugation words. The costandard
    modules make none of their own: ∇(8) and ∇(0) made 490 each while each
    checked the presentation on its own maps, and ∇(63) was refused. The pairwise
    reference route makes 16 446 at q = 64 and 14 943 at q = 61. On the
    natural module a composition counts as the DenseMap's when its left
    factor is dense."""
    build()
    assert dict(compose_calls) == counts
    assert sum(counts.values()) == 7 * p ** d - 6 + d * (p + d)


def test_every_character_of_a_level_shares_one_presentation_check(monkeypatch, fresh_caches):
    # the 48 characters of (7, 2), with their verdicts, make one
    # presentation check: their level's, when the first of them is built
    checks = []
    real = sl2lab._SL2Module._check_relations

    def counting(self):
        checks.append(type(self))
        real(self)

    monkeypatch.setattr(sl2lab._SL2Module, "_check_relations", counting)
    for m in range(48):
        assert case_verdict(InducedModule(7, 2, power_char(m, 7, 2)))[3] == {}
    assert checks == [sl2lab._InducedLevel]


def test_every_character_of_a_level_shares_one_equivariance_check(monkeypatch, fresh_caches,
                                                                 compose_calls):
    # the 48 verdicts of (7, 2) build and check one T, their level's, on
    # the first of them: T g and g' T for the d + 2 = 4 generators are all
    # the compositions they make. Each raises T to m, and to -m for t_s',
    # with no dual module; a check per operator made 48 + 46 of them
    builds = []
    real = sl2lab._InducedLevel._t_s_columns

    def counting(self):
        builds.append(type(self))
        return real(self)

    monkeypatch.setattr(sl2lab._InducedLevel, "_t_s_columns", counting)
    modules = [InducedModule(7, 2, power_char(m, 7, 2)) for m in range(48)]
    compose_calls.clear()
    for module in modules:
        assert case_verdict(module)[3] == {}
    assert builds == [sl2lab._InducedLevel]
    assert compose_calls == {"DenseMap": 4, "MonomialMap": 4}


def _raised_by_products(codes, scale, m):
    """Each nonzero code c of scale to the power m, as m products from the
    table rather than by `Codes.power`; zeros stay zero."""
    out = []
    for c in scale:
        x = 1 if c else 0
        for _ in range(m):
            x = codes.mul[x][c]
        out.append(x)
    return tuple(out)


def _raised_columns(codes, cols, m):
    """Columns with each nonzero entry c raised to c^m, m taken mod q - 1,
    by `_raised_by_products`."""
    return tuple(_raised_by_products(codes, col, m % (codes.q - 1)) for col in cols)


@pytest.mark.parametrize("p, a", SELF_DUAL_FIELDS,
                         ids=[f"q={p ** factorial(a)}" for p, a in SELF_DUAL_FIELDS])
def test_every_character_up_to_q_25_passes_the_per_character_route(p, a):
    # the level's checks prove the presentation and the intertwiner for
    # every theta at once; the reference routes check each module, and each
    # dual, on its own maps. Each generator is the level's with its scales
    # raised to m, and the eps generators are the level's own objects, so
    # M^U, read off their orbits, is the level's. The module's own t_s,
    # its closed form checked against its raised maps, is the level's T
    # raised to m and the t_s those maps build, and T raised to -m is the
    # dual's own t_s
    level = sl2lab._induced_level(p, a)
    assert level.t_s_cols == proof_route.t_s_from_maps(level)
    for m in range(p ** factorial(a) - 1):
        module = InducedModule(p, a, power_char(m, p, a))
        level = module.level
        for mod in (module, proof_route.dual(module)):
            mod._check_relations()
            assert mod.level is level and mod.u_fixed_rows == level.u_fixed_rows
            assert all(g is g_level for g, g_level in zip(mod.generators[:-2], level.generators))
            assert len(mod.generators) == len(level.generators)
            for g, g_level in zip(mod.generators, level.generators):
                assert g.perm == g_level.perm
                assert g.scale == _raised_by_products(mod.codes, g_level.scale, mod.m)
        codes = module.codes
        assert module.t_s_cols == _raised_columns(codes, level.t_s_cols, m) == (
            HeckeOperators(module)._cols) == proof_route.t_s_from_maps(module)
        assert _raised_columns(codes, level.t_s_cols, -m) == proof_route.dual(module).t_s_cols


def _h_squeezing_by_u_to_the_m_plus_one(real):
    """h(u) moving cell(t) to cell(u^(m + 1) t): the true squeeze, u^2 t,
    at theta = id alone."""
    def h(self, u):
        codes = self.codes
        squeeze = codes.mul[codes.power(u, self.m + 1)]
        return MonomialMap(codes, [0] + [1 + t for t in squeeze], real(self, u).scale)
    return h


def _patch_t_s_columns(monkeypatch, mutate):
    """From now on the columns of t_s, the level's T and a module's own
    alike, are built as mutate(module, columns) makes them of the real
    ones. The test must start from fresh caches, so that its levels build
    their T under the mutant."""
    real = sl2lab._InducedLevel._t_s_columns
    monkeypatch.setattr(sl2lab._InducedLevel, "_t_s_columns", lambda self: mutate(self, real(self)))


def _scale_the_column_at_cell_0(module, cols, c):
    """cols with the column of the cell at 0 times the code c."""
    times_c = module.codes.mul[c]
    return cols[:1] + (tuple(map(times_c.__getitem__, cols[1])),) + cols[2:]


def test_a_t_s_column_reading_theta_passes_the_level_check_alone(monkeypatch, fresh_caches):
    # the level's T serves every theta only because raising commutes with
    # each entry's one product. A column of the cell at 0 scaled by g^(m-1)
    # is T's at theta = id, all the level's check sees, so every verdict,
    # which raises the level's T, holds; the per-character route, which
    # builds t_s from the module's own maps, catches it at m = 2
    _patch_t_s_columns(monkeypatch, lambda module, cols: _scale_the_column_at_cell_0(
        module, cols, module.codes.power(module.codes.generator, module.m - 1)))
    for m in range(4):
        assert case_verdict(InducedModule(5, 1, power_char(m, 5, 1)))[3] == {}
    assert InducedModule(5, 1, power_char(1, 5, 1)).t_s_cols == sl2lab._induced_level(5, 1).t_s_cols
    with pytest.raises(RelationError, match="the cell-averaging operator is not equivariant"):
        InducedModule(5, 1, power_char(2, 5, 1)).t_s_cols


def test_a_permutation_reading_theta_passes_the_level_check_alone(monkeypatch, fresh_caches):
    # the level's check covers every theta only because no permutation
    # reads theta. A module's h whose permutation does is right at
    # theta = id, all the level's check sees, so every module builds; the
    # per-character route catches it at m = 2
    monkeypatch.setattr(InducedModule, "h", _h_squeezing_by_u_to_the_m_plus_one(InducedModule.h))
    InducedModule(5, 1, power_char(1, 5, 1))._check_relations()
    module = InducedModule(5, 1, power_char(2, 5, 1))
    with pytest.raises(RelationError, match="torus does not normalize eps correctly"):
        module._check_relations()
    with pytest.raises(RelationError):
        _check_relations_pairwise(module)


def test_a_mutant_patched_in_after_its_level_is_built_is_unseen_until_cache_clear(
        monkeypatch, fresh_caches):
    # a level is checked when its first module is built and then kept, so
    # a level map patched in after that meets no later construction: the
    # module at m = 2 takes the level checked before the patch, although
    # the per-character route sees the mutant in it. Only a level built
    # after `cache_clear()` is checked with the mutant in place
    InducedModule(5, 1, power_char(1, 5, 1))
    level = sl2lab._InducedLevel
    monkeypatch.setattr(level, "h", _h_moving_cells_by_u(level.h))
    module = InducedModule(5, 1, power_char(2, 5, 1))
    relation = "torus does not normalize eps correctly"
    with pytest.raises(RelationError, match=relation):
        module._check_relations()
    sl2lab._induced_level.cache_clear()
    with pytest.raises(RelationError, match=relation):
        InducedModule(5, 1, power_char(2, 5, 1))


@pytest.mark.parametrize("n, p, level, products", ((8, 2, 3, 162), (8, 3, 2, 22)),
                         ids=("q=64", "q=9"))
def test_costandard_relation_check_multiplies_only_eps_by_eps(mat_mul_calls, compose_calls,
                                                              fresh_caches, n, p, level, products):
    # the presentation is checked once per level, on the natural module,
    # whose h and s are monomial, so the only dense products are the
    # eps(b)^p, the commutators, eps(x - b) eps(b) and the last factor of
    # each s-conjugation word: 2(q - 1) + d(p + d - 2). All 490 and 67
    # compositions were dense products while h and s were dense. A
    # costandard module's own check reads tables: no composition and no
    # dense product, where it made these 162 and 22 products on its own
    # (n + 1)^2 maps
    d = factorial(level)
    sl2lab._natural_level(p, level)
    assert len(mat_mul_calls) == products == 2 * (p ** d - 1) + d * (p + d - 2)
    mat_mul_calls.clear()
    compose_calls.clear()
    CostandardModule(n, p, coeff_level=level)
    assert (len(mat_mul_calls), dict(compose_calls)) == (0, {})


def test_the_relation_grid_checks_one_natural_module_per_level(monkeypatch, fresh_caches):
    # the 27 costandard modules of sl2-relations make 3 presentation checks,
    # one per level, each on the level's natural module, beside the
    # induced levels' 3; each module made its own before
    checks = Counter()
    real = sl2lab._SL2Module._check_relations

    def counting(self):
        checks[type(self).__name__] += 1
        real(self)

    monkeypatch.setattr(sl2lab._SL2Module, "_check_relations", counting)
    assert suites.suite_sl2_relations()["cases"] == 39
    assert checks == {"_NaturalLevel": 3, "_InducedLevel": 3}


@pytest.mark.parametrize("p, level", ((2, 1), (3, 1), (2, 2), (3, 2), (5, 1)),
                         ids=("q=2", "q=3", "q=4", "q=9", "q=5"))
def test_the_natural_module_is_the_literal_matrices(p, level):
    # eps(t) = [[1, t], [0, 1]], h(u) = diag(u, 1/u) and s = [[0, 1], [-1, 0]],
    # read as FieldElements off the maps applied to x and y
    natural = sl2lab._natural_level(p, level)
    codes, elements = natural.codes, natural.codes.elements
    one, zero = _one(natural), _zero(natural)

    def matrix(g):
        columns = [g.apply(natural.unit_vector(j)) for j in range(2)]
        return [[elements[col[i]] for col in columns] for i in range(2)]

    for t in range(codes.q):
        assert matrix(natural.eps(t)) == [[one, elements[t]], [zero, one]]
    for u in range(1, codes.q):
        assert matrix(natural.h(u)) == [[elements[u], zero], [zero, elements[u].inverse()]]
    assert matrix(natural.s()) == [[zero, one], [-one, zero]]
    # and so is the costandard module of weight one
    cm = CostandardModule(1, p, coeff_level=level)
    assert all(cm.eps(t) == natural.eps(t) for t in range(codes.q))
    assert all(cm.h(u) == natural.h(u) for u in range(1, codes.q))
    assert cm.s() == natural.s()


def _folded_s(module):
    """s on the cell basis by folding the word
    s eps(t) s = h(-1) eps(-1/t) s h(t) eps(-1/t) over the other generators'
    actions, from s . line = cell(0) and s . cell(0) = theta(-1) line."""
    code = module.codes.code
    zero_a = module.tower.zero(module.a)
    base_cell = _cell(module, zero_a)
    perm = [0] * module.dim
    scale = [1] * module.dim
    perm[0] = base_cell
    minus_one = -module.tower.scalar(1, module.a)
    perm[base_cell] = 0
    scale[base_cell] = code(_theta(module, minus_one))
    for t in module.codes.elements:
        if t.is_zero():
            continue
        j = _cell(module, t)
        w = -t.inverse()
        vec = module.eps(code(w)).apply(module.unit_vector(0))
        vec = module.h(code(t)).apply(vec)
        # the partial s is only ever applied to a multiple of the line
        assert not any(vec[1:])
        folded = [0] * module.dim
        folded[base_cell] = vec[0]
        vec = module.eps(code(w)).apply(tuple(folded))
        vec = module.h(code(minus_one)).apply(vec)
        support = [i for i, c in enumerate(vec) if c]
        assert len(support) == 1
        perm[j] = support[0]
        scale[j] = vec[support[0]]
    return MonomialMap(module.codes, perm, scale)


def test_s_action_closed_form():
    # s . cell(t) = theta(t) theta(-1) cell(-1/t), and the fold agrees
    for p, a in GRID + ((5, 1), (3, 2)):
        for lam in (1, -1, 2):
            module = InducedModule(p, a, power_char(lam, p, max(a, 2)))
            s = module.s()
            assert s == _folded_s(module)
            minus_one = -module.tower.scalar(1, a)
            for t in module.codes.elements:
                if t.is_zero():
                    continue
                j = _cell(module, t)
                target = _cell(module, -t.inverse())
                assert s.perm[j] == target
                expected = _theta(module, t) * _theta(module, minus_one)
                assert s.scale[j] == module.codes.code(expected)


def test_s_swaps_line_and_base_cell():
    module = InducedModule(3, 1, power_char(1, 3))
    s = module.s()
    base = _cell(module, module.tower.zero(1))
    assert s.perm[0] == base
    assert s.perm[base] == 0
    minus_one = -module.tower.scalar(1, 1)
    assert s.scale[base] == module.codes.code(_theta(module, minus_one))


def test_character_level_requirements():
    with pytest.raises(ArgumentError):
        InducedModule(2, 2, trivial_character(2, 1))
    with pytest.raises(ArgumentError):
        InducedModule(2, 1, power_char(1, 3))
    with pytest.raises(CapabilityError):
        InducedModule(3, 3, trivial_character(3, 3))  # 3^3! = 729 cells
    with pytest.raises(CapabilityError):
        InducedModule(3, 10, trivial_character(3, 10))  # past the tower cap


def test_spin_of_line_for_generic_character_is_whole():
    module = InducedModule(3, 1, power_char(1, 3))
    sub = spin(module, ref.encode(module.codes, ref.unit_vector(module, 0)))
    assert sub.dim == module.dim


def test_spin_canonical_and_monotone():
    module = InducedModule(2, 2, power_char(1, 2))
    v = module.line_sum_vector()
    s1 = spin(module, v)
    s2 = spin(module, v)
    assert s1 == s2
    assert within(s1, _whole(module))
    assert within(Subspace(module, ()), s1)


def test_spin_zero_vector():
    module = InducedModule(2, 1, trivial_character(2, 1))
    assert spin(module, ref.encode(module.codes, (ref.zero(module),) * module.dim)).dim == 0


def test_fixed_subspace_of_unipotent():
    # eps fixes exactly the line and the sum of all cells
    for p, a in GRID:
        module = InducedModule(p, a, power_char(1, p, max(a, 2)))
        maps = [module.eps(b) for b in ref.encode(module.codes, ref.standard_basis(module.tower, a))]
        fs = Subspace(module, proof_route.fixed_subspace(module.codes, maps, module.dim))
        assert fs.dim == 2
        assert _contains(fs, ref.encode(module.codes, ref.unit_vector(module, 0)))
        assert _contains(fs, module.line_sum_vector())


def test_fixed_subspace_within():
    # the U-fixed vectors of the socle make up one B-stable line
    module = InducedModule(2, 2, power_char(1, 2))
    socle = proof_route.socle(module)
    lines = list(_b_stable_lines_per_eigenvalue(module, socle))
    assert len(lines) == 1
    assert _contains(socle, lines[0])


def test_is_irreducible_detects_reducible_whole():
    module = InducedModule(2, 1, trivial_character(2, 1))
    verdict = is_irreducible(module)
    assert not verdict.irreducible
    assert verdict.mode == "exhaustive"
    assert verdict.witness is not None
    assert spin(module, verdict.witness).dim < module.dim


def test_socle_head_on_grid():
    for p, a, lam in ((2, 2, 1), (2, 2, 2), (2, 2, -1), (3, 1, 1), (3, 1, -1)):
        module = InducedModule(p, a, power_char(lam, p, max(a, 2)))
        rep = socle_head_report(module)
        assert rep.socle_dim == proof_route.socle(module).dim == 2
        assert rep.head_dim == proof_route.head_dim(module) == 2
        _, key, section, failed = case_verdict(module)
        assert (key, section["head_dim"], section["digit_product"], failed) == ("socle_head", 2, 2, {})


def test_socle_head_makes_no_polynomial_products(polyfp_mul_calls):
    # once the module is built, every field operation is a table lookup
    module = InducedModule(2, 2, power_char(1, 2))
    built = len(polyfp_mul_calls)
    rep = socle_head_report(module)
    assert rep.head_dim == 2
    assert len(polyfp_mul_calls) == built


@pytest.mark.parametrize("m, self_dual", ((3, True), (1, False)), ids=("order-2", "generic"))
def test_a_report_raises_no_t_and_builds_no_hecke_operator(monkeypatch, rref_insert_calls,
                                                           m, self_dual):
    # every report, at (7, 1, 3) where theta has order 2 and the dual is the
    # module as elsewhere, reads its two counts off the level's checked T
    # and Pascal rows: it raises no entry, reduces no row, and builds no
    # HeckeOperators, no dual module, no T and no Pascal row. It raised T
    # to m and to -m, each raise checking one power-sum product, and
    # row-reduced both
    module = InducedModule(7, 1, power_char(m, 7, 1))
    module.level.t_s_cols, module.level.nonzero_binomials
    rref_insert_calls.clear()
    with monkeypatch.context() as patch:
        # raising, building an operator, a module, T or a Pascal row would raise
        patch.setattr(sl2lab, "_raised_entries", None)
        patch.setattr(HeckeOperators, "__init__", None)
        patch.setattr(InducedModule, "__init__", None)
        patch.setattr(sl2lab._InducedLevel, "_t_s_columns", None)
        patch.setattr(sl2lab, "_pascal_rows_mod", None)
        rep = socle_head_report(module)
    assert (rep.socle_dim, rep.head_dim) == (7 - m, m + 1)
    assert rref_insert_calls == []
    assert (proof_route.dual(module) is module) is self_dual


@pytest.mark.parametrize("p, a, m", ((7, 2, 1), (7, 2, 24), (61, 1, 30), (2, 3, 5)),
                         ids=("q=49", "q=49-order-2", "q=61-order-2", "q=64"))
def test_a_nontrivial_verdict_makes_no_row_reduction(rref_insert_calls, p, a, m):
    # once its level is built, with its T checked and its Pascal rows
    # counted, a nontrivial verdict makes no rref_insert call. Its two
    # rrefs, of t_s' and t_s, made 2 (q + 1) of them, 100 at q = 49
    module = InducedModule(p, a, power_char(m, p, a))
    module.level.t_s_cols, module.level.nonzero_binomials
    rref_insert_calls.clear()
    assert case_verdict(module)[3] == {}
    assert rref_insert_calls == []


@pytest.mark.parametrize("p, a", SELF_DUAL_FIELDS[1:],
                         ids=[f"q={p ** factorial(a)}" for p, a in SELF_DUAL_FIELDS[1:]])
def test_the_counts_off_t_s_shape_match_the_rref_route(p, a):
    # every nontrivial character up to q = 25: the socle's dimension and
    # the head's, counted on Pascal's rows, are the rank of t_s' and of
    # t_s by row reduction, the route of tests/proof_route.py
    for m in range(1, p ** factorial(a) - 1):
        module = InducedModule(p, a, power_char(m, p, a))
        rep = socle_head_report(module)
        assert (rep.socle_dim, rep.head_dim) == (
            proof_route.socle(module).dim, proof_route.head_dim(module)), (p, a, m)


def _translate_the_cell_block(level, cols):
    """T with each cell column's cell block moved down one translate: the
    column of the cell t reads (w - 1 - t)^m at the cell w."""
    sub = level.codes.sub
    return cols[:1] + tuple(col[:1] + tuple(col[1 + sub[w][1]] for w in range(level.q))
                            for col in cols[1:])


def _vary_row_0(level, cols):
    """T with the row-0 entry of the last cell column times the generator
    of the units, which q > 2 makes another scalar."""
    times_g = level.codes.mul[level.codes.generator]
    return cols[:-1] + ((times_g[cols[-1][0]],) + cols[-1][1:],)


def _wrong_theta_of_minus_one(level, cols):
    """T as if s' sent cell(0) to the line by 1, not theta(-1)^-1 = -1:
    the row-0 entry of the column of the cell at 0, other than -1 at odd p."""
    return cols[:1] + ((1,) + cols[1][1:],) + cols[2:]


def _base_cell_in_column_0(level, cols):
    """T sending the line to the cell at 0, s line, not to the sum L of
    the cells."""
    return (level.unit_vector(1),) + cols[1:]


CLOSED_FORM_MUTANTS = (_translate_the_cell_block, _vary_row_0, _wrong_theta_of_minus_one,
                       _base_cell_in_column_0)


@pytest.mark.parametrize("p, a", ((5, 1), (3, 2)), ids=("q=5", "q=9"))
@pytest.mark.parametrize("mutate", CLOSED_FORM_MUTANTS, ids=(
    "translated-block", "varying-row-0", "wrong-theta-of-minus-one", "base-cell-column-0"))
def test_the_shape_check_names_each_mutant_of_t(monkeypatch, fresh_caches, mutate, p, a):
    # T is built as its shape, the closed form the verdicts read, and
    # checked by direct computation alone: each mutant of one of its parts,
    # built into a level, is refused by equivariance before any verdict
    level = sl2lab._induced_level(p, a)
    assert mutate(level, level.t_s_cols) != level.t_s_cols
    sl2lab._induced_level.cache_clear()
    _patch_t_s_columns(monkeypatch, mutate)
    with pytest.raises(RelationError, match="the cell-averaging operator is not equivariant"):
        case_verdict(InducedModule(p, a, power_char(1, p, a)))


@pytest.mark.parametrize("p, a", ((5, 1), (3, 2)), ids=("q=5", "q=9"))
@pytest.mark.parametrize("shift", (1, -1), ids=("row-m-plus-1", "row-m-minus-1"))
def test_a_pascal_count_off_by_one_row_fails_every_verdict(monkeypatch, fresh_caches, shift, p, a):
    # counts read from row m + 1 or m - 1 of Pascal's triangle mod p: at
    # q = 5 and q = 9 no two neighbouring rows have as many nonzero
    # entries, so the known head, the digit product of m, fails at every
    # nontrivial character
    real = sl2lab._InducedLevel.nonzero_binomials.func
    monkeypatch.setattr(sl2lab._InducedLevel, "nonzero_binomials", property(
        lambda self: tuple(real(self)[n + shift] if 0 <= n + shift < self.q else 0
                           for n in range(self.q))))
    q = p ** factorial(a)
    for m in range(1, q - 1):
        failed = case_verdict(InducedModule(p, a, power_char(m, p, a)))[3]
        assert "head" in failed, (p, a, m)


def test_only_an_induced_module_reads_m_u_off_the_eps_orbits():
    # the orbit walk needs monomial eps maps; a costandard module's are
    # dense, so the shared module protocol offers no M^U
    assert not hasattr(sl2lab._SL2Module, "u_fixed_rows")
    assert not hasattr(CostandardModule, "u_fixed_rows")
    assert InducedModule(3, 1, power_char(1, 3, 1)).u_fixed_rows


# -- the exhaustive reference route -------------------------------------------
#
# Spin one line per group orbit of every line of the span, and read the
# verdicts off all those spins: an independent second route to the census
# of B-stable lines, feasible for q <= 5.


def _orbit_spins(module, rows):
    """(v, spin(v)) for the first line of each group orbit, in the order
    `_projective_vectors` walks the lines of the span of the code rows.

    spin(g v) = spin(v) for every group element g, so each spin is followed
    by a walk of its line's orbit under the generators, images scaled to a
    leading one; the enumeration skips the lines the walk reached.
    """
    gens, codes = module.generators, module.codes
    ahead = set()
    for v in sl2lab._projective_vectors(module, rows):
        if v in ahead:
            ahead.discard(v)
            continue
        yield v, spin(module, v)
        ahead.add(v)
        frontier = [v]
        while frontier:
            w = frontier.pop()
            for g in gens:
                u = g.apply(w)
                x = next(c for c in u if c)
                if x != 1:
                    u = vec_scale(codes, codes.inv[x], u)
                if u not in ahead:
                    ahead.add(u)
                    frontier.append(u)
        ahead.discard(v)


def _whole(module):
    return Subspace(module, rref(module.codes, [module.unit_vector(i) for i in range(module.dim)]))


def _report_with_maximal(module):
    """The lab's socle-and-head report as the census gives it: the socle,
    the span of the columns of t_s', and the maximal submodule ker t_s on
    the rref route of `proof_route`, whose dimension and codimension must
    be the report's socle_dim and head_dim."""
    rep = socle_head_report(module)
    socle = proof_route.socle(module)
    maximal = Subspace(module, proof_route.maximal_rows(module))
    assert rep.socle_dim == socle.dim
    assert rep.head_dim == module.dim - maximal.dim
    return CensusReport(rep.whole, socle, maximal)


def _exhaustive_irreducible(module, target):
    """Whether every line of target spins to all of it."""
    return all(sp == target for _, sp in _orbit_spins(module, target.code_rows))


def _exhaustive_socle_head(module):
    """(socle or None, maximal or None) from the spins of every line: the
    spin of the line sum is the simple socle iff it lies in every spin, and
    the sum of the proper spins is the unique maximal submodule unless it
    is everything."""
    whole = _whole(module)
    spins = [sp for _, sp in _orbit_spins(module, whole.code_rows)]
    socle = spin(module, module.line_sum_vector())
    union = rref(module.codes, [row for sp in spins if sp != whole for row in sp.code_rows])
    return (socle if all(within(socle, sp) for sp in spins) else None,
            None if len(union) == module.dim else Subspace(module, union))


def _cover_witnesses(spins, whole):
    """Two proper spins that together span the whole, largest first."""
    spins = sorted(spins, key=lambda s: -s.dim)
    for i, s1 in enumerate(spins):
        for s2 in spins[i + 1:]:
            if len(rref(whole.module.codes, s1.code_rows + s2.code_rows)) == whole.dim:
                return (s1, s2)
    return None


def _is_proper_witness(module, witness, target):
    sub = spin(module, witness)
    return sub.dim > 0 and within(sub, target) and sub != target


def _residues(p, a):
    """Every residue the powers -6..6 give at level a."""
    q = p ** factorial(a)
    return sorted({lam % (q - 1) for lam in range(-6, 7)})


LAB_PAIRS = ((2, 1), (3, 1), (5, 1), (2, 2))


def test_orbit_shared_spins_match_direct_route():
    # the census against the exhaustive route on every lab case with q <= 5:
    # verdicts, socle rows, maximal rows and head dimensions agree
    for p, a in LAB_PAIRS:
        for m in _residues(p, a):
            module = InducedModule(p, a, power_char(m, p, a))
            whole = _whole(module)
            verdict = is_irreducible(module)
            assert verdict.mode == "exhaustive" and verdict.proof
            assert verdict.irreducible is _exhaustive_irreducible(module, whole)
            if m == 0:
                continue
            rep = socle_head_report(module)
            socle, maximal = _exhaustive_socle_head(module)
            assert rep.whole == verdict
            assert socle is not None and proof_route.socle(module) == socle
            assert rep.socle_dim == socle.dim
            assert maximal is not None and proof_route.maximal_rows(module) == maximal.code_rows
            assert rep.head_dim == module.dim - maximal.dim == _digit_product(m, p)
            # every nontrivial case here is reducible, by a proper spin
            assert _is_proper_witness(module, verdict.witness, whole)


def test_orbit_shared_spins_match_direct_route_on_hecke_pieces():
    for p, a in LAB_PAIRS:
        module = InducedModule(p, a, trivial_character(p, a))
        for piece in HeckeOperators(module).idempotent_split():
            verdict = is_irreducible(module, piece)
            assert verdict.irreducible and _exhaustive_irreducible(module, piece)
        # the whole module is reducible, with a witness past the first line
        whole = _whole(module)
        verdict = is_irreducible(module)
        assert not verdict.irreducible and not _exhaustive_irreducible(module, whole)
        assert verdict.witness != ref.encode(module.codes, ref.unit_vector(module, 0))
        assert _is_proper_witness(module, verdict.witness, whole)


def test_orbit_shared_spins_match_direct_route_on_split_modules():
    # with the trivial character the module splits into the two Hecke
    # pieces, so the census finds a line whose spin misses its least spin,
    # and the annihilators of those two spins cover the module
    for p, a in ((2, 1), (3, 1), (2, 2)):
        module = InducedModule(p, a, trivial_character(p, a))
        whole = _whole(module)
        rep = census_report(module)
        assert (rep.socle, rep.maximal) == _exhaustive_socle_head(module) == (None, None)
        _, least, miss = census_socle(module)
        assert _is_proper_witness(module, miss[0], whole)
        proper = [sp for _, sp in _orbit_spins(module, whole.code_rows) if sp != whole]
        cover = _cover_witnesses(proper, whole)
        big, small = (Subspace(module, proof_route.kernel(module.codes, sp.code_rows, module.dim))
                      for sp in (least, miss[1]))
        assert (big.dim, small.dim) == tuple(s.dim for s in cover) == (module.q, 1)
        assert len(rref(module.codes, big.code_rows + small.code_rows)) == module.dim
        assert proof_route.is_stable(module, big) and proof_route.is_stable(module, small)


def test_orbit_shared_spins_match_direct_route_on_costandard_modules():
    for n, p, level in ((4, 3, 1), (3, 2, 2), (4, 3, 2)):
        cm = CostandardModule(n, p, coeff_level=level)
        sub = l_submodule(cm)
        verdict = is_irreducible(cm, sub)
        assert verdict.irreducible is _exhaustive_irreducible(cm, sub)
        if not verdict.irreducible:
            assert _is_proper_witness(cm, verdict.witness, sub)


def test_socle_head_spins_once_per_orbit(spin_calls, enumerated_lines):
    # the report reads the socle and the maximal submodule off the
    # intertwiners and spins nothing; the census spins once per B-stable
    # line, two in the module and two in its dual, where the exhaustive
    # route spins once per orbit of its 3906 lines (86 times)
    module = InducedModule(5, 1, power_char(1, 5))
    rep = socle_head_report(module)
    assert rep.socle_dim == 4 and rep.head_dim == 2
    assert len(spin_calls) == 0 and enumerated_lines == {}
    assert census_report(module) == _report_with_maximal(module)
    assert len(spin_calls) == 4
    assert enumerated_lines == {1: 4}


def test_a_generic_lab_verdict_spins_no_vector_and_walks_no_line(
        spin_calls, enumerated_lines, capsys):
    # the whole-module, socle and head verdicts come from the intertwiners
    # of the module and of its dual (one census of each made 4 spins over
    # 4 lines)
    assert cli.main(["lab", "--p", "5", "--a", "1", "--power", "3"]) == 0
    assert '"socle_ok": true' in capsys.readouterr().out
    assert len(spin_calls) == 0 and enumerated_lines == {}


@pytest.mark.parametrize("p, a, power, spins", ((13, 1, 6, 14), (3, 1, 1, 4)),
                         ids=("q=13", "q=3"))
def test_order_two_census_spins_every_line_of_the_plane(
    spin_calls, enumerated_lines, capsys, p, a, power, spins
):
    # theta^2 = 1: h(g) scales both rows of M^U by theta(g), so the census
    # spins all q + 1 lines of that plane, once. The lab takes none of them:
    # t_s proves the socle to be the span of its columns, whose dimension
    # it counts with no spin (the census made q + 1 = 14 and 4)
    assert cli.main(["lab", "--p", str(p), "--a", str(a), "--power", str(power)]) == 0
    assert '"socle_ok": true' in capsys.readouterr().out
    assert len(spin_calls) == 0 and enumerated_lines == {}
    module = InducedModule(p, a, power_char(power, p, a))
    census, socle, miss = census_socle(module)
    assert len(census) == len(spin_calls) == spins == p ** factorial(a) + 1
    assert enumerated_lines == {2: spins}
    assert miss is None and socle == proof_route.socle(module)
    assert socle.dim == socle_head_report(module).socle_dim


FIELD_OPERATIONS = ("__add__", "__sub__", "__mul__", "__neg__", "inverse", "__pow__", "is_zero")


@pytest.mark.parametrize("p, a, m", ((2, 3, 0), (2, 3, 1), (13, 1, 6)))
def test_construction_and_verdict_compute_on_codes_alone(monkeypatch, p, a, m):
    # group points, character values and vectors are codes from end to end:
    # a module takes its points as codes from the tower, and only
    # Subspace.rows decodes. With FieldElement points and census lines
    # decoded for spin, (2,3,1) made 461 operations to build and 138 more
    # for its verdict, and 4 decodes; (13,1,6) made 28 decodes. Coding the
    # generator and a costandard module's binomials took them from the
    # tower as elements.
    theta = power_char(m, p, a)
    calls = Counter()

    def count(cls, name):
        real = getattr(cls, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, counting)

    for name in FIELD_OPERATIONS:
        count(FieldElement, name)
    count(Codes, "decode")
    count(FieldTower, "scalar")
    count(FieldTower, "multiplicative_generator")
    assert case_verdict(InducedModule(p, a, theta))[3] == {}
    assert l_submodule(CostandardModule(3, p, coeff_level=a)).dim > 0
    assert calls == Counter()


@pytest.mark.parametrize("p, a", ((2, 2), (3, 2)))
def test_trivial_character_census_walks_coefficient_one_early(
    spin_calls, enumerated_lines, capsys, p, a
):
    # the lab reads the verdict off the Hecke pieces and spins nothing (the
    # census below made 4 spins and walked {2: 2, 1: 2} lines). In that
    # census the whole module's B-stable lines fill a plane, e_0 + c (sum of
    # cells) among them; c = 1 spins to a proper submodule and is the second
    # line walked, the row of the one-dimensional piece, the lab's witness.
    # Then one line in each Hecke piece
    assert cli.main(["lab", "--p", str(p), "--a", str(a), "--power", "0"]) == 0
    assert '"ok": true' in capsys.readouterr().out
    assert len(spin_calls) == 0 and enumerated_lines == {}
    module = InducedModule(p, a, trivial_character(p, a))
    pieces = HeckeOperators(module).idempotent_split()
    whole = is_irreducible(module)
    assert all(is_irreducible(module, y).irreducible for y in pieces)
    assert len(spin_calls) == 4
    assert enumerated_lines == {2: 2, 1: 2}
    assert whole == case_verdict(module)[0]
    assert whole.witness == pieces[0].code_rows[0]


def test_b_stable_lines_are_b_stable():
    # a nontrivial character has two B-stable lines unless theta^2 is
    # trivial; a trivial one has a plane of them, q + 1 lines
    for p, a in LAB_PAIRS:
        q = p ** factorial(a)
        for m in range(q - 1):
            module = InducedModule(p, a, power_char(m, p, a))
            for mod in (module, proof_route.dual(module)):
                lines = list(b_stable_lines(mod))
                assert len(lines) == (2 if (2 * m) % (q - 1) else q + 1)
                for v in lines:
                    w = mod.codes.decode(v)
                    line = _span(mod, [w])
                    for g in mod.generators[:-1]:   # U and T generate B
                        assert _contains(line, ref.encode(mod.codes, ref.apply(g, w)))


# -- the per-eigenvalue reference route to the census ------------------------


def _fixed_subspace_within(module, scaled_maps, within):
    """Common fixed space of the maps c g, over the (c, g) given, inside a
    subspace, solved for the coefficients of its rows on the reference
    route. The fixed space of c g is the 1/c-eigenspace of g."""
    basis = within.rows
    if not basis:
        return Subspace(module, ())
    rows = []
    for c, g in scaled_maps:
        images = [ref.vec_sub(ref.vec_scale(c, ref.apply(g, b)), b) for b in basis]
        rows.extend(zip(*images))
    coeffs = ref.kernel(rows, len(basis), ref.one(module), ref.zero(module))
    vecs = []
    for c in coeffs:
        v = (ref.zero(module),) * module.dim
        for ci, b in zip(c, basis):
            if not ci.is_zero():
                v = ref.vec_add(v, ref.vec_scale(ci, b))
        vecs.append(v)
    return _span(module, vecs)


def _b_stable_lines_per_eigenvalue(module, within=None):
    """The census on a second route: M^U inside `within`, then one
    fixed-space system of h(g)/lambda inside it for each unit lambda, the
    units in code order."""
    tower, level, codes = module.tower, module.coeff_level, module.codes
    eps = [(ref.one(module), module.eps(codes.code(b))) for b in ref.standard_basis(tower, level)]
    fixed = _fixed_subspace_within(module, eps, within or _whole(module))
    hg = module.h(codes.code(tower.multiplicative_generator(level)))
    for lam in codes.elements[1:]:
        eigen = _fixed_subspace_within(module, [(lam.inverse(), hg)], fixed)
        yield from sl2lab._projective_vectors(module, eigen.code_rows)


def is_irreducible(module, subspace=None):
    """The census verdict on the per-eigenvalue route: the (sub)module is
    irreducible iff each of its B-stable lines spins to all of it, the
    witness being the first whose spin is proper. The census is a proof
    only for submodules, so a given subspace must be stable."""
    if subspace is not None and not proof_route.is_stable(module, subspace):
        raise PreconditionError("the subspace is not stable under the generators")
    target = subspace if subspace is not None else _whole(module)
    if target.dim == 0:
        return IrreducibilityVerdict(False)
    for v in _b_stable_lines_per_eigenvalue(module, subspace):
        if sl2lab.spin(module, v) != target:
            return IrreducibilityVerdict(False, v)
    return IrreducibilityVerdict(True)


def _census_cases():
    """(module, within) for every m at LAB_PAIRS, (7, 1) and (3, 2): the
    module, its dual, and its Hecke pieces or its socle and maximal
    submodule; then the costandard modules of `sl2-relations`, their
    transposed contragredients and their digit spans."""
    for p, a in LAB_PAIRS + ((7, 1), (3, 2)):
        for m in range(p ** factorial(a) - 1):
            module = InducedModule(p, a, power_char(m, p, a))
            yield module, None
            yield proof_route.dual(module), None
            if m == 0:
                for piece in HeckeOperators(module).idempotent_split():
                    yield module, piece
            else:
                yield module, proof_route.socle(module)
                yield module, Subspace(module, proof_route.maximal_rows(module))
    for p, a in suites.SL2_GRID:
        for n in range(suites.COSTANDARD_WEIGHT_BOUND + 1):
            cm = CostandardModule(n, p, coeff_level=a)
            yield cm, None
            yield ref.Contragredient(cm), None
            yield cm, l_submodule(cm)


def test_census_matches_the_per_eigenvalue_route():
    # the same vectors in the same order, so every spin and witness agrees;
    # inside a submodule, the module's lines that it holds, each scaled to a
    # leading one on both routes
    cases = 0
    for module, within in _census_cases():
        lines = list(b_stable_lines(module))
        if within is None:
            assert lines and lines == list(_b_stable_lines_per_eigenvalue(module))
        else:
            inside = list(_b_stable_lines_per_eigenvalue(module, within))
            assert inside and set(inside) == {v for v in lines if _contains(within, v)}
        cases += 1
    assert cases == 4 * (1 + 2 + 4 + 3 + 6 + 8) + 3 * 3 * 9


class _Rebased(sl2lab._SL2Module):
    """The module in the coordinates P v, P = 1 + E_10: dense actions
    P g P^-1. M^U is then spanned by e_0 + e_1 and the sum of cells, with
    rows e_0 - e_2 - ... - e_q and the sum of cells, so h(g) acts on them
    by a triangular matrix, not a diagonal one, when theta(g) != theta(g)^-1.
    Every other attribute is the module's own."""

    def __init__(self, module):
        self.module = module
        units = [list(module.unit_vector(i)) for i in range(module.dim)]
        self._p, self._p_inv = ([row[:] for row in units] for _ in range(2))
        self._p[1][0], self._p_inv[1][0] = 1, module.codes.neg[1]

    def __getattr__(self, name):
        return getattr(self.module, name)

    def _rebased(self, g):
        cols = [g.apply(self.module.unit_vector(j)) for j in range(self.dim)]
        codes = self.codes
        return DenseMap(codes, mat_mul(codes, self._p, mat_mul(codes, tuple(zip(*cols)), self._p_inv)))

    def eps(self, x):
        return self._rebased(self.module.eps(x))

    def h(self, u):
        return self._rebased(self.module.h(u))

    def s(self):
        return self._rebased(self.module.s())


@pytest.mark.parametrize("p, a, m", ((5, 1, 1), (7, 1, 2), (3, 2, 1)))
def test_census_reads_a_triangular_torus_matrix(p, a, m):
    module = _Rebased(InducedModule(p, a, power_char(m, p, a)))
    module._check_relations()
    level = module.coeff_level
    code = module.codes.code
    eps = [module.eps(code(b)) for b in ref.standard_basis(module.tower, level)]
    rows = tuple(map(module.codes.decode, proof_route.fixed_subspace(module.codes, eps, module.dim)))
    hg = module.h(code(module.tower.multiplicative_generator(level)))
    assert not _contains(_span(module, rows[:1]), ref.encode(module.codes, ref.apply(hg, rows[0])))
    lines = list(b_stable_lines(module))
    assert len(lines) == 2 and lines == list(_b_stable_lines_per_eigenvalue(module))


@pytest.mark.parametrize("p, a", ((2, 3), (61, 1)), ids=("q=64", "q=61"))
def test_census_applies_the_maps_once_per_row(monomial_apply_calls, p, a):
    # h(g) on each of the two rows of M^U, which is read off the orbits of
    # the eps generators with no apply, the dual's as the module's. The
    # stacked kernel of M^U made d(q + 1) more, d = [F_q : F_p] (392 and 64
    # in all), and the dual's own M^U as many again
    module = InducedModule(p, a, power_char(1, p, a))
    del monomial_apply_calls[:]
    assert len(list(b_stable_lines(module))) == 2
    assert len(monomial_apply_calls) == 2
    del monomial_apply_calls[:]
    assert len(list(b_stable_lines(proof_route.dual(module)))) == 2
    assert len(monomial_apply_calls) == 2


def test_dual_modules_satisfy_the_relations():
    induced = [InducedModule(p, a, power_char(m, p, a))
               for p, a in ((3, 1), (5, 1), (2, 2)) for m in range(p ** factorial(a) - 1)]
    for module in induced + [CostandardModule(4, 3, coeff_level=1),
                             CostandardModule(3, 2, coeff_level=2)]:
        dual = _dual(module)
        dual._check_relations()
        assert (dual.p, dual.dim, dual.coeff_level) == (module.p, module.dim, module.coeff_level)
        # the pairing of the dual basis with the basis is invariant:
        # <g f_i, g e_j> = delta_ij for every generator g
        basis = [ref.unit_vector(module, i) for i in range(module.dim)]
        one, zero = ref.one(module), ref.zero(module)
        for g, dg in zip(module.generators, dual.generators):
            for i, f in enumerate(basis):
                gf = ref.apply(dg, f)
                for j, e in enumerate(basis):
                    pairing = sum((x * y for x, y in zip(gf, ref.apply(g, e))), zero)
                    assert pairing == (one if i == j else zero)


def test_is_irreducible_requires_a_submodule():
    module = InducedModule(3, 1, power_char(1, 3))
    line = Subspace(module, (module.unit_vector(1),))
    with pytest.raises(PreconditionError, match="not stable"):
        is_irreducible(module, line)
    cm = CostandardModule(4, 3, coeff_level=1)
    with pytest.raises(PreconditionError):
        is_irreducible(cm, Subspace(cm, (cm.unit_vector(0), cm.unit_vector(1))))


def _digit_product(m, p):
    out = 1
    while m:
        out *= m % p + 1
        m //= p
    return out


def test_every_residue_up_to_q_13():
    # 46 cases: a unique socle and maximal submodule, with socle and head the
    # digit products, for every nontrivial residue, the Hecke split for the
    # trivial one
    cases = 0
    for p, a in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        q = p ** factorial(a)
        for m in range(q - 1):
            module = InducedModule(p, a, power_char(m, p, a))
            whole, key, section, failed = case_verdict(module)
            assert failed == {} and not whole.irreducible
            if m == 0:
                assert (key, section["dims"]) == ("hecke", [1, q])
            else:
                assert key == "socle_head"
                assert section["socle_ok"] and section["maximal_ok"]
                assert section["head_dim"] == section["digit_product"] == _digit_product(m, p)
                digits = _digits(m, p)
                socle_dim = prod(p - d for d in digits) * p ** (factorial(a) - len(digits))
                assert section["socle_dim"] == socle_dim == _fine_dim(q - 1 - m, p)
            cases += 1
    assert cases == 46


def test_a_socle_of_the_wrong_dimension_fails_the_verdict_and_the_suite(monkeypatch):
    # a report naming the maximal submodule as the socle: the socle and the
    # maximal submodule are still found and the head is still the digit
    # product, so only the socle's known dimension catches it
    real = sl2lab.socle_head_report

    def wrong_socle(module):
        rep = real(module)
        maximal = Subspace(module, proof_route.maximal_rows(module))
        return SocleHeadReport(rep.whole, socle_dim=maximal.dim, head_dim=rep.head_dim)

    monkeypatch.setattr(sl2lab, "socle_head_report", wrong_socle)
    _, _, section, failed = case_verdict(InducedModule(2, 2, power_char(1, 2)))
    assert section["socle_ok"] and section["maximal_ok"]
    assert section["head_dim"] == section["digit_product"] == 2
    assert section["socle_dim"] == 3
    assert failed == {"socle": {"dim": 3, "digit_product": 2}}
    record = suites.suite_sl2_socle_head()
    assert not record["ok"]
    assert {"p": 2, "a": 2, "lambda": 1,
            "socle": {"dim": 3, "digit_product": 2}} in record["failures"]


@pytest.mark.parametrize("mutate, failed, err", (
    # the socle taken for the maximal submodule: a head of dim 5 - 2, not 2
    (lambda rep: SocleHeadReport(rep.whole, socle_dim=rep.socle_dim, head_dim=5 - rep.socle_dim),
     {"head": {"dim": 3, "digit_product": 2}},
     'head: {"digit_product": 2, "dim": 3}'),
), ids=("wrong-head",))
def test_each_failed_socle_head_check_is_named_by_the_verdict_suite_and_lab(
        monkeypatch, capsys, mutate, failed, err):
    real = sl2lab.socle_head_report
    monkeypatch.setattr(sl2lab, "socle_head_report", lambda module: mutate(real(module)))
    assert case_verdict(InducedModule(2, 2, power_char(1, 2)))[3] == failed
    record = suites.suite_sl2_socle_head()
    assert not record["ok"]
    assert {"p": 2, "a": 2, "lambda": 1, **failed} in record["failures"]
    assert cli.main(["lab", "--p", "2", "--a", "2", "--power", "1"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert captured.err == f"verification: {err}\n"


def _rescale_a_column(monkeypatch):
    """From now on each level builds its T with the column of the cell at
    0 scaled by the generator of the units, which q > 2 makes a scalar
    other than 1. eps(b) moves that cell, so T is no longer equivariant,
    nor is any t_s raised from it."""
    _patch_t_s_columns(monkeypatch, lambda module, cols: _scale_the_column_at_cell_0(
        module, cols, module.codes.generator))
    return "the cell-averaging operator is not equivariant"


def _one_more_u_fixed_row(monkeypatch):
    """From now on the M^U that each level reads off its eps orbits holds
    one row past the plane of the line and t_s line: the unit vector of the
    cell at 0. The level's T meets it when it is first built."""
    real = sl2lab._InducedLevel.u_fixed_rows.func

    def one_row_more(self):
        return rref(self.codes, real(self) + (self.unit_vector(1),))

    monkeypatch.setattr(sl2lab._InducedLevel, "u_fixed_rows", property(one_row_more))
    return "M^U is not spanned by the line and t_s line"


BROKEN_INTERTWINERS = (_rescale_a_column, _one_more_u_fixed_row)
BROKEN_INTERTWINER_IDS = ("not-equivariant", "u-fixed")


@pytest.mark.parametrize("p, a", ((2, 2), (5, 1)), ids=("2-2-1", "5-1-1"))
@pytest.mark.parametrize("broken", BROKEN_INTERTWINERS, ids=BROKEN_INTERTWINER_IDS)
def test_intertwiner_checks_catch_mutants_on_a_generic_character(monkeypatch, fresh_caches,
                                                                 broken, p, a):
    # theta = t, of order q - 1 > 2: the target is the dual, and each check
    # names its relation; the level's T, whence both operators of the report
    # are raised, meets it, on every module of the level, the dual among them
    relation = broken(monkeypatch)
    module = InducedModule(p, a, power_char(1, p, a))
    assert proof_route.dual(module) is not module
    for mod in (module, proof_route.dual(module)):
        with pytest.raises(RelationError, match=re.escape(relation)):
            HeckeOperators(mod)
    with pytest.raises(RelationError, match=re.escape(relation)):
        socle_head_report(module)


def test_the_report_checks_that_the_intertwiners_compose_to_zero(monkeypatch, fresh_caches):
    # t_s' t_s line = T^-m L, the sum of the cell columns of t_s', which
    # T's closed form proves 0, is not 0 once one of them is scaled by
    # g^-1 != 1. The level, whose equivariance check meets such a T, keeps
    # no T for the report to read
    module = InducedModule(5, 1, power_char(1, 5))
    level, codes = module.level, module.codes
    cols = _scale_the_column_at_cell_0(level, level.t_s_cols, codes.generator)
    t_s, t_s_dual = (sl2lab._raised_entries(codes, cols, k) for k in (1, -1))
    assert mat_vec(codes, tuple(zip(*t_s_dual)), t_s[0]) != (0,) * module.dim
    sl2lab._induced_level.cache_clear()
    relation = _rescale_a_column(monkeypatch)
    with pytest.raises(RelationError, match=re.escape(relation)):
        socle_head_report(InducedModule(5, 1, power_char(1, 5)))


@pytest.mark.parametrize("broken", BROKEN_INTERTWINERS, ids=BROKEN_INTERTWINER_IDS)
def test_a_broken_intertwiner_is_named_by_the_verdict_suite_and_lab(monkeypatch, capsys,
                                                                    fresh_caches, broken):
    # a failed relation is no failed known answer: the verdict raises it,
    # the suite records it as the error of its case, and lab exits 1 with
    # no document and the relation on stderr. A level whose T fails keeps
    # none, so each of them meets the check again
    relation = broken(monkeypatch)
    with pytest.raises(RelationError, match=re.escape(relation)):
        case_verdict(InducedModule(2, 2, power_char(1, 2)))
    record = suites.suite_sl2_socle_head()
    assert not record["ok"]
    assert {"p": 2, "a": 2, "lambda": 1, "error": relation} in record["failures"]
    assert cli.main(["lab", "--p", "2", "--a", "2", "--power", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification: {relation}\n"


def test_verify_records_a_broken_intertwiner_as_a_named_failure(monkeypatch, capsys, fresh_caches):
    # as sl2-relations does for a module, sl2-socle-head and hecke-split
    # record a RelationError as the error of its case, and verify still
    # prints every suite's record; only q = 2 has no scalar to break with
    relation = _rescale_a_column(monkeypatch)
    assert cli.main(["verify"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    records = {r["suite"]: r for r in doc["suites"]}
    assert list(records) == list(suites.SUITES)
    assert records["sl2-socle-head"]["failures"] == [
        {"p": p, "a": a, "lambda": lam, "error": relation}
        for p, a, lam in ((2, 2, 1), (2, 2, 2), (2, 2, -1), (3, 1, 1), (3, 1, -1))]
    assert records["hecke-split"]["failures"] == [
        {"p": p, "a": a, "error": relation} for p, a in ((3, 1), (2, 2))]
    assert all(r["ok"] for name, r in records.items()
               if name not in ("sl2-socle-head", "hecke-split"))


def test_census_socle_of_costandard_is_the_digit_span():
    # Steinberg's restriction theorem: for n < q the digit span is the simple
    # socle of the costandard module over F_q
    for p, level in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2)):
        q = p ** factorial(level)
        for n in range(q):
            cm = CostandardModule(n, p, coeff_level=level)
            _, least, miss = census_socle(cm)
            assert miss is None and least == l_submodule(cm)
    # past q it fails: over F_2, the digit span of n = 2 is not the socle
    cm = CostandardModule(2, 2, coeff_level=1)
    _, least, miss = census_socle(cm)
    assert miss is not None or least != l_submodule(cm)


@pytest.mark.parametrize("p, a, power", ((7, 1, 1), (3, 2, 4), (7, 2, 8), (61, 1, 1), (2, 3, 5)))
def test_lab_proves_past_q_5(capsys, p, a, power):
    code = cli.main(["lab", "--p", str(p), "--a", str(a), "--power", str(power)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["ok"]
    assert doc["whole_irreducible"] == {"irreducible": False, "mode": "exhaustive", "proof": True}
    section = doc["socle_head"]
    assert section["socle_ok"] and section["maximal_ok"]
    assert section["head_dim"] == section["digit_product"] == _digit_product(power, p)


def test_socle_is_simple_and_minimal():
    # simple, and inside the spin of every B-stable line
    module = InducedModule(3, 1, power_char(1, 3))
    socle = proof_route.socle(module)
    _, least, miss = census_socle(module)
    assert miss is None and least == socle
    assert socle.dim == socle_head_report(module).socle_dim
    assert is_irreducible(module, socle).irreducible


def test_socle_head_requires_nontrivial_character():
    module = InducedModule(3, 1, power_char(2, 3))
    assert module.m == 0
    with pytest.raises(PreconditionError):
        socle_head_report(module)
    # the shared verdict takes the Hecke route instead
    assert case_verdict(module)[1] == "hecke"


def test_costandard_actions_and_relations():
    for n in range(7):
        cm = CostandardModule(n, 2, coeff_level=1)
        assert cm.dim == n + 1


def test_costandard_eps_is_binomial_lower_triangular():
    cm = CostandardModule(4, 3, coeff_level=1)
    t = cm.tower.scalar(1, 1)
    rows = cm.eps(cm.codes.code(t)).rows
    for i in range(5):
        for j in range(5):
            expected = _lucas_digit_product(i, j, 3)
            x = cm.codes.elements[rows[j][i]]
            got = 0 if x.is_zero() else 1 if x == t else 2
            assert got == expected


def test_costandard_check_level_guard(fresh_caches):
    # q (q + (n + 1)^2) <= 729 * 738: n <= 90 at q = 64, n <= 2 at
    # q = 729 = 3^6, and no n at q = 733, the next field. The cap on the
    # pairwise cost, q^2 (n + 1)^3 <= 6 10^7, refused n = 40 at q = 64 and
    # admitted q = 961 at n = 3 and q = 7741 at n = 0
    for n, p, level in ((91, 2, 3), (3, 3, 3), (0, 733, 1), (3, 31, 2), (0, 7741, 1)):
        with pytest.raises(CapabilityError, match="beyond desk scale"):
            CostandardModule(n, p, coeff_level=level)
    assert CostandardModule(90, 2, coeff_level=3).dim == 91
    assert CostandardModule(2, 3, coeff_level=3).dim == 3


def test_verify_sl2_relations_asks_no_single_binomial(lucas_calls):
    # each costandard module builds its binomials a row at a time; one
    # digit product per entry made 570 at p = 2
    assert suites.suite_sl2_relations(p_filter=2)["ok"] is True
    assert lucas_calls == Counter()


def _chain_costandard_modules():
    """The costandard modules of `sl2-chain`: weight m_2 at level 2, one
    per character of its grid."""
    for p in suites.CHAIN_PRIMES:
        for lam in suites.CHAIN_POWERS:
            yield CostandardModule(power_char(lam, p).residue(2), p, coeff_level=2)


def test_costandard_binomials_are_the_codes_of_the_factorial_formula():
    # every costandard module the suites build, one at 727, the largest
    # prime whose field RELATION_WORK_CAP admits, some whose rows reach past
    # p^2, each row built from row i // p, which was built from its own, and
    # one past a byte, at p = 257, where lucas_rows refuses:
    # binom(i, j) mod p for all i, j <= n, zero above the diagonal
    modules = [m for m in _relation_grid() if isinstance(m, CostandardModule)]
    modules += _chain_costandard_modules()
    modules += [CostandardModule(n, p, coeff_level=1)
                for n, p in ((2, 727), (299, 2), (249, 3), (59, 7), (8, 257))]
    for cm in modules:
        scalars = cm.codes.scalars
        assert cm._binom == tuple(tuple(scalars[comb(i, j) % cm.p] for j in range(cm.dim))
                                  for i in range(cm.dim)), (cm.n, cm.p, cm.coeff_level)
    assert l_submodule(modules[-1]).dim == 9    # binom(8, i) is nonzero mod 257


def test_l_submodule_dimensions():
    for p in (2, 3):
        for n in range(9):
            cm = CostandardModule(n, p, coeff_level=1)
            sub = l_submodule(cm)
            expected = 1
            for d in _digits(n, p):
                expected *= d + 1
            assert sub.dim == expected


def _digits(n, p):
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


def test_l_submodule_irreducible_below_field_order():
    # the digit span stays irreducible for the group over the module's one
    # field exactly while n < q = p^(coeff_level!)
    for p, level, n in ((2, 1, 1), (3, 1, 2), (2, 2, 3), (3, 2, 4)):
        cm = CostandardModule(n, p, coeff_level=level)
        sub = l_submodule(cm)
        verdict = is_irreducible(cm, sub)
        assert verdict.irreducible and verdict.proof


def test_l_submodule_reducible_past_field_order():
    # n = 4 has digits (1, 1) base 3; over the prime field the twisted layer
    # coincides with the plain one and the product decomposes
    cm = CostandardModule(4, 3, coeff_level=1)
    sub = l_submodule(cm)
    verdict = is_irreducible(cm, sub)
    assert not verdict.irreducible
    assert verdict.witness is not None


@pytest.mark.parametrize("p, a", SELF_DUAL_FIELDS,
                         ids=[f"q={p ** factorial(a)}" for p, a in SELF_DUAL_FIELDS])
def test_l_submodule_reads_stability_as_the_row_reduction_route_does(p, a):
    # on every ∇(n) with n <= q - 1, q <= 25: the digit span that
    # l_submodule reads off the generators' columns is the span of the
    # v_i with binom(n, i) nonzero, stable on the reference route, which
    # applies each generator to each row and reduces the image
    q = p ** factorial(a)
    for n in range(q):
        cm = CostandardModule(n, p, coeff_level=a)
        sub = l_submodule(cm)
        rows = [cm.unit_vector(i) for i in range(cm.dim) if comb(n, i) % p]
        assert sub.code_rows == rref(cm.codes, rows), (n, p, a)
        assert proof_route.is_stable(cm, sub), (n, p, a)


def test_a_generator_off_the_digit_span_fails_both_stability_routes():
    # at p = 3, ∇(3)'s digit span is span{v_0, v_3}; one extra nonzero entry
    # of the first eps generator, in column 3 at row 1, sends v_3 off it
    cm = CostandardModule(3, 3, coeff_level=1)
    span = l_submodule(cm)
    assert span.code_rows == (cm.unit_vector(0), cm.unit_vector(3))
    eps_b, *rest = cm.generators
    rows = [list(row) for row in eps_b.rows]
    assert rows[1][3] == 0
    rows[1][3] = 1
    cm.generators = (DenseMap(cm.codes, rows), *rest)
    with pytest.raises(RelationError, match="digit span is not a submodule"):
        l_submodule(cm)
    assert not proof_route.is_stable(cm, span)


def _counting_dense_maps(monkeypatch):
    """A list whose length counts the DenseMaps built from now on."""
    built = []
    real = DenseMap.__init__

    def counting(self, codes, rows):
        built.append(None)
        real(self, codes, rows)

    monkeypatch.setattr(DenseMap, "__init__", counting)
    return built


@pytest.mark.parametrize("n, p, a", ((4, 3, 2), (8, 2, 2), (0, 5, 1), (24, 5, 2)),
                         ids=("4-q=9", "8-q=4", "0-q=5", "24-q=25"))
def test_a_costandard_module_builds_each_eps_once(monkeypatch, fresh_caches, n, p, a):
    # q eps maps, one per point, built and stored at construction; the
    # Sym^n check, the generators and l_submodule read the stored maps and
    # build no dense map
    sl2lab._natural_level(p, a)
    built = _counting_dense_maps(monkeypatch)
    cm = CostandardModule(n, p, coeff_level=a)
    assert len(built) == cm.codes.q
    assert all(cm.eps(t) is cm.eps(t) for t in range(cm.codes.q))
    assert all(g is cm.eps(b) for g, b in zip(cm.generators, cm.codes.basis))
    l_submodule(cm)
    assert len(built) == cm.codes.q


def test_pi_image_builds_only_its_modules_eps(monkeypatch, fresh_caches):
    # pi_image sums its module's stored eps(a) over the subfield: q_t maps,
    # those of the construction, where each sum built the subfield's eps(a)
    # a second time. sl2-chain now builds 65 eps maps, where 25 of its 90
    # were those repeats
    for p in (2, 3):
        sl2lab._natural_level(p, 2)
    built = _counting_dense_maps(monkeypatch)
    for p, lam in ((2, -1), (3, 2), (3, 0)):
        built.clear()
        pi_image(power_char(lam, p), 1, 2)
        assert len(built) == p ** 2, (p, lam)
    lucas_builds = []
    real = CostandardModule._lucas_eps

    def counting(self, t):
        lucas_builds.append(t)
        return real(self, t)

    monkeypatch.setattr(CostandardModule, "_lucas_eps", counting)
    assert suites.suite_sl2_chain()["ok"] is True
    assert len(lucas_builds) == len(suites.CHAIN_POWERS) * (4 + 9) == 65


def test_pi_image_trivial_character_vanishes():
    theta = trivial_character(2, 2)
    rec = pi_image(theta, 1, 2)
    assert rec.is_zero
    # no Lucas witness at s = t = 2 either
    assert lucas_criterion(theta, 1) == LucasSearch(False, None, None)


def test_pi_image_nonzero_with_witness():
    theta = power_char(-1, 2)
    rec = pi_image(theta, 1, 2)
    assert rec.m_t == 2
    assert not rec.is_zero
    assert rec.nonzero_indices == (0,)
    # the image is nonzero at depth m_t - i = k (p^(r!) - 1) exactly where
    # binom(m_t, k (p^(r!) - 1)) is, so the least witness k of the Lucas
    # search at s = t sits at the last nonzero index
    step = 2 ** factorial(1) - 1
    k = (rec.m_t - rec.nonzero_indices[-1]) // step
    assert k == 2
    assert lucas_criterion(theta, 1) == LucasSearch(True, 2, k)


def test_pi_image_zero_by_binomial():
    rec = pi_image(power_char(1, 2, 3), 2, 3)
    assert rec.m_t == 1
    assert rec.is_zero


def test_pi_image_validates_levels():
    with pytest.raises(ArgumentError):
        pi_image(power_char(1, 2), 2, 2)
    with pytest.raises(ArgumentError):
        pi_image(power_char(1, 2, 2), 1, 3)


def test_chain_agreement_full_grid():
    expected_span = {
        (2, -2): True, (2, -1): True, (2, 0): False, (2, 1): True, (2, 2): True,
        (3, -2): True, (3, -1): True, (3, 0): False, (3, 1): False, (3, 2): True,
    }
    for (p, lam), want in expected_span.items():
        rec = verify_irreducibility_chain(power_char(lam, p), 1, 2)
        assert rec.agree
        assert rec.span_is_whole is want
        assert rec.pi_nonzero is want


def test_hecke_operators_need_trivial_character():
    # t_s is an intertwiner to the dual for every theta, an endomorphism
    # when theta^2 = 1; only theta = 1 splits by it
    for module in (InducedModule(5, 1, power_char(1, 5)), InducedModule(3, 1, power_char(1, 3))):
        ops = HeckeOperators(module)
        assert (proof_route.dual(ops.module) is module) is (module.q == 3)
        with pytest.raises(PreconditionError, match="need theta trivial"):
            ops.idempotent_split()


def test_hecke_split_dims_and_irreducibility():
    for p, a in GRID:
        module = InducedModule(p, a, trivial_character(p, a))
        ops = HeckeOperators(module)
        y_full, y_empty = ops.idempotent_split()
        assert (y_full.dim, y_empty.dim) == (1, module.q)
        assert is_irreducible(module, y_full).irreducible
        assert is_irreducible(module, y_empty).irreducible
        section = {"dims": [1, module.q], "irreducible": [True, True], "proof": [True, True]}
        whole, key, sec, failed = case_verdict(module)
        assert (key, sec, failed) == ("hecke", section, {})
        # the module splits, so the whole is reducible
        assert not whole.irreducible and whole.proof


@pytest.mark.parametrize("p, a", SELF_DUAL_FIELDS,
                         ids=[f"q={p ** factorial(a)}" for p, a in SELF_DUAL_FIELDS])
def test_the_closed_form_split_matches_the_rref_route(p, a):
    # every trivial character up to q = 25: the pieces read off t_s = J - I
    # are the images of 1 + t_s and -t_s by row reduction, the route of
    # tests/proof_route.py, row for row
    module = InducedModule(p, a, trivial_character(p, a))
    pieces = HeckeOperators(module).idempotent_split()
    assert [y.code_rows for y in pieces] == [y.code_rows for y in proof_route.hecke_split(module)]
    assert pieces[0].code_rows == ((1,) * module.dim,)


@pytest.mark.parametrize("p, a", ((61, 1), (2, 3)), ids=("q=61", "q=64"))
def test_the_hecke_split_makes_no_row_reduction(rref_insert_calls, p, a):
    # the split reads its pieces off t_s = J - I. Its two rrefs, of the
    # columns of 1 + t_s and of t_s, made 2 (q + 1) rref_insert calls,
    # 124 at q = 61
    ops = HeckeOperators(InducedModule(p, a, trivial_character(p, a)))
    rref_insert_calls.clear()
    pieces = ops.idempotent_split()
    assert rref_insert_calls == []
    assert [y.dim for y in pieces] == [1, ops.module.q]


def _zero_off_the_diagonal(cols):
    """T with the entry of column 0 at the cell at 0, off the diagonal, 0."""
    return ((0, 0) + cols[0][2:],) + cols[1:]


def _nonzero_on_the_diagonal(cols):
    """T with the diagonal entry of column 0, at the line, 1."""
    return ((1,) + cols[0][1:],) + cols[1:]


@pytest.mark.parametrize("p, a", ((5, 1), (2, 2)), ids=("q=5", "q=4"))
@pytest.mark.parametrize("mutate", (_zero_off_the_diagonal, _nonzero_on_the_diagonal),
                         ids=("off-diagonal-zero", "nonzero-diagonal"))
def test_the_hecke_split_refuses_a_t_off_its_shape(monkeypatch, mutate, p, a):
    # the split reads t_s = J - I off T being zero exactly on its diagonal.
    # A T set past the level's own checks, with one zero more or one less,
    # is refused by name, not split as if it were J - I
    module = InducedModule(p, a, trivial_character(p, a))
    level = module.level
    monkeypatch.setitem(vars(level), "t_s_cols", mutate(level.t_s_cols))
    relation = "t_s is not J - I: T is not zero exactly on its diagonal"
    with pytest.raises(RelationError, match=re.escape(relation)):
        HeckeOperators(module).idempotent_split()
    with pytest.raises(RelationError, match=re.escape(relation)):
        case_verdict(module)


@pytest.mark.parametrize("p, a", ((2, 3), (2, 2)), ids=("q=64", "q=4"))
def test_trivial_character_verdict_computes_the_u_fixed_space_once(
        monkeypatch, fresh_caches, monomial_apply_calls, p, a):
    # one orbit walk for M^U, the level's, which t_s's check compares with
    # the line and t_s line, and no apply: t_s's columns are its closed
    # form (with no level cached before the module is built). Building
    # them from the maps made one apply, s' on L. The stacked
    # kernel of M^U made d(q + 1) more applies, d = [F_q : F_p] (391 and 11
    # in all). The census of the whole module and of both Hecke pieces made
    # 1627 and 71; computing M^U per census made 3 stacked kernels and
    # 2d(q + 1) more applies (3510 and 134). Checking equivariance column by
    # column made 2(d + 2)(q + 1) - 1 more applies (2730 and 114), and
    # building t_s's columns through eps(t) made q more (64 and 4).
    calls = []
    real = sl2lab.monomial_fixed_rows

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(sl2lab, "monomial_fixed_rows", counting)
    module = InducedModule(p, a, trivial_character(p, a))
    del monomial_apply_calls[:]
    assert case_verdict(module)[3] == {}
    assert len(calls) == 1
    assert monomial_apply_calls == []


# one field of each order q <= 64 the lab builds
LAB_FIELDS = ([(p, 1) for p in range(2, 62) if all(p % d for d in range(2, p))]
              + [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])


@pytest.mark.parametrize("p, a", LAB_FIELDS, ids=[f"q={p ** factorial(a)}" for p, a in LAB_FIELDS])
def test_u_fixed_rows_match_the_stacked_kernel(p, a):
    # eps reads no theta, so one module per field holds every M^U the field
    # has: the line and the sum of the cells, read off the eps orbits
    module = InducedModule(p, a, power_char(1, p, a))
    rows = module.u_fixed_rows
    assert rows == proof_route.fixed_subspace(module.codes, module.generators[:-2], module.dim)
    assert rows == (module.unit_vector(0), (0,) + (1,) * module.q)


def _lab_documents_and_records(capsys, p):
    """The stdout and stderr of `lab` at each power m < p - 1 at (p, 1),
    and the sl2-socle-head and hecke-split records."""
    documents = []
    for m in range(p - 1):
        cli.main(["lab", "--p", str(p), "--a", "1", "--power", str(m)])
        documents.append(capsys.readouterr())
    return documents, suites.suite_sl2_socle_head(), suites.suite_hecke_split()


@pytest.mark.parametrize("p", (3, 5))
def test_hecke_relation_catches_a_rescaled_t_s(monkeypatch, capsys, fresh_caches, p):
    # 2 t_s is still equivariant, but (2 t_s)^2 = -2 (2 t_s), not -(2 t_s):
    # the Hecke relation, which T's closed form proves, holds for no other
    # scale. A unit multiple c T of the level's T is no such t_s: it meets
    # equivariance and M^U, raised to the 0th power it is t_s again, and
    # the socle and head are counted on Pascal's rows, so no document and
    # no record sees it. Only the library's witness, c L, does, and the
    # reference T of proof_route.t_s_from_maps
    module = InducedModule(p, 1, trivial_character(p, 1))
    codes, two = module.codes, module.codes.scalars[2]
    t_s = tuple(vec_scale(codes, two, col) for col in HeckeOperators(module)._cols)
    square = mat_vec(codes, tuple(zip(*t_s)), t_s[0])
    assert square != vec_scale(codes, codes.neg[1], t_s[0])
    expected = _lab_documents_and_records(capsys, p)
    true_t = sl2lab._induced_level(p, 1).t_s_cols
    sl2lab._induced_level.cache_clear()
    _patch_t_s_columns(monkeypatch, lambda level, cols: tuple(
        vec_scale(level.codes, level.codes.generator, col) for col in cols))
    assert sl2lab._induced_level(p, 1).t_s_cols == tuple(
        vec_scale(codes, codes.generator, col) for col in true_t) != true_t
    assert _lab_documents_and_records(capsys, p) == expected
    witness = socle_head_report(InducedModule(p, 1, power_char(1, p, 1))).whole.witness
    assert witness == vec_scale(codes, codes.generator, true_t[0]) != true_t[0]


@pytest.mark.parametrize("p, a", SELF_DUAL_FIELDS[1:],
                         ids=[f"q={p ** factorial(a)}" for p, a in SELF_DUAL_FIELDS[1:]])
def test_the_power_sum_identity_holds_at_every_power_and_no_other(p, a):
    # T^k L = c_k L at each k from -(q - 1) to q - 1, c_k = -1 exactly at
    # the multiples of q - 1, with no case for the order of theta; L != 0,
    # so the identity tells the two values of c_k apart at every k. T's
    # shape proves it, and here a product checks it
    level = InducedModule(p, a, power_char(1, p, a)).level
    codes, q = level.codes, level.q
    minus_one = codes.neg[1]
    for k in range(-(q - 1), q):
        cols = sl2lab._raised_entries(codes, level.t_s_cols, k)
        image = mat_vec(codes, tuple(zip(*cols)), cols[0])
        c, wrong = (minus_one, 0) if k % (q - 1) == 0 else (0, minus_one)
        assert cols[0] == (0,) + (1,) * q
        assert image == vec_scale(codes, c, cols[0]) != vec_scale(codes, wrong, cols[0])


@pytest.mark.parametrize("p, m", ((2, 0), (3, 0), (3, 1), (5, 2)), ids=("2", "3", "3-1", "5-2"))
def test_hecke_equivariance_catches_a_t_s_off_the_cell_average(monkeypatch, fresh_caches, p, m):
    # T(line) = s line = cell(0) sends the line, fixed by eps(b), to a cell
    # that eps(b) moves; the level's T meets it at the first operator, for
    # theta trivial and of order 2 alike
    module = InducedModule(p, 1, power_char(m, p, 1))
    _patch_t_s_columns(monkeypatch, _base_cell_in_column_0)
    with pytest.raises(RelationError, match="the cell-averaging operator is not equivariant"):
        HeckeOperators(module)


def _dense_rows(module, g):
    cols = [ref.apply(g, ref.unit_vector(module, j)) for j in range(module.dim)]
    return tuple(zip(*cols))


def test_hecke_t_s_squares_to_minus_itself():
    # the reference route for the whole-map equivariance and the one-column
    # relation that the raise checks at k = 0: dense products on every column
    for p, a in GRID + ((3, 2),):
        module = InducedModule(p, a, trivial_character(p, a))
        t_s = tuple(map(module.codes.decode, zip(*HeckeOperators(module)._cols)))
        neg = tuple(tuple(-x for x in row) for row in t_s)
        assert ref.mat_mul(t_s, t_s) == neg
        for g in module.generators:
            g_rows = _dense_rows(module, g)
            assert ref.mat_mul(t_s, g_rows) == ref.mat_mul(g_rows, t_s)


def test_hecke_t_s_squares_to_zero_for_theta_of_order_two():
    # the same reference route when theta^2 = 1 but theta != 1: t_s is
    # equivariant and nilpotent, the sum of theta over the units being 0
    for p, a in ((3, 1), (5, 1), (7, 1), (3, 2)):
        q = p ** factorial(a)
        module = InducedModule(p, a, power_char((q - 1) // 2, p, a))
        t_s = tuple(map(module.codes.decode, zip(*HeckeOperators(module)._cols)))
        zero = tuple(tuple(x - x for x in row) for row in t_s)
        assert ref.mat_mul(t_s, t_s) == zero != t_s
        for g in module.generators:
            g_rows = _dense_rows(module, g)
            assert ref.mat_mul(t_s, g_rows) == ref.mat_mul(g_rows, t_s)


@pytest.mark.parametrize("p, m", ((3, 0), (3, 1)))
def test_hecke_operators_catch_a_u_fixed_space_past_the_plane(monkeypatch, fresh_caches, p, m):
    # one extra row in the level's M^U: T is still equivariant, and t_s^2 =
    # c t_s, but the line and T line no longer span the U-fixed vectors
    module = InducedModule(p, 1, power_char(m, p, 1))
    relation = _one_more_u_fixed_row(monkeypatch)
    with pytest.raises(RelationError, match=re.escape(relation)):
        HeckeOperators(module)


@pytest.mark.parametrize("p, a", SELF_DUAL_FIELDS,
                         ids=[f"q={p ** factorial(a)}" for p, a in SELF_DUAL_FIELDS])
def test_hecke_route_matches_the_census_when_theta_squared_is_trivial(monkeypatch, p, a):
    # every theta with theta^2 = 1 up to q = 25: the verdict from t_s against
    # the exhaustive census, in section, witness and failed checks; for the
    # trivial theta each piece is simple by the census of its own lines, and
    # for theta of order 2 the census's socle and maximal submodule are the
    # image and the kernel of t_s
    q = p ** factorial(a)
    module = InducedModule(p, a, trivial_character(p, a))
    pieces = HeckeOperators(module).idempotent_split()
    assert all(is_irreducible(module, y).irreducible for y in pieces)
    section = {"dims": [1, q], "irreducible": [True, True], "proof": [True, True]}
    assert case_verdict(module) == (is_irreducible(module), "hecke", section, {})
    if q % 2 == 0:
        return
    module = InducedModule(p, a, power_char((q - 1) // 2, p, a))
    census = census_report(module)
    assert census.socle is not None and _report_with_maximal(module) == census
    verdict = case_verdict(module)
    monkeypatch.setattr(sl2lab, "socle_head_report", lambda module: census)
    assert verdict == case_verdict(module) and verdict[3] == {}


# every field up to q = 25 with a nontrivial character, then three
# characters at the largest fields
INTERTWINER_CASES = [(p, a, range(1, p ** factorial(a) - 1)) for p, a in SELF_DUAL_FIELDS[1:]]
INTERTWINER_CASES += [(2, 3, (1,)), (2, 3, (5,)), (61, 1, (5,))]


@pytest.mark.parametrize("p, a, residues", INTERTWINER_CASES,
                         ids=[f"q={p ** factorial(a)}" if isinstance(ms, range) else f"{p}-{a}-{ms[0]}"
                              for p, a, ms in INTERTWINER_CASES])
def test_the_intertwiners_match_the_census(p, a, residues):
    # every nontrivial theta up to q = 25, and three at the largest fields:
    # the socle, the maximal submodule and the whole-module witness read
    # off the intertwiners are the census's, row for row
    for m in residues:
        module = InducedModule(p, a, power_char(m, p, a))
        assert _report_with_maximal(module) == census_report(module)


@pytest.mark.parametrize("p, a, power, d", ((2, 3, 1, 6), (5, 1, 2, 1)),
                         ids=("2-3-1-6", "5-1-2-1"))
def test_case_verdict_builds_the_maps_once_per_module(monkeypatch, fresh_caches, p, a, power, d):
    # the first module of a level builds the level's eps and h once at each
    # point and s once, the generators among them (64, 63 and 1 at q = 64),
    # for its one presentation check; a second module of the level builds
    # none, and nor does its verdict: the level's T is built and checked on
    # the level's generators, and each t_s is T raised. While each verdict
    # checked its own operators, it built h(g) of the module and of its
    # dual (one h at theta^2 = 1), and while each module checked the
    # presentation, every module built q eps, q - 1 h and one s, and the
    # dual d eps, one h and one s more
    counts = Counter()
    for name in ("eps", "h", "s"):
        real = getattr(sl2lab._InducedLevel, name)

        def counting(self, *args, name=name, real=real):
            counts[name] += 1
            return real(self, *args)

        monkeypatch.setattr(sl2lab._InducedLevel, name, counting)
    InducedModule(p, a, trivial_character(p, a))
    q = p ** d
    assert counts == {"eps": q, "h": q - 1, "s": 1}
    counts.clear()
    module = InducedModule(p, a, power_char(power, p, a))
    assert counts == {}
    assert case_verdict(module)[3] == {}
    assert counts == {}


def test_hecke_operators_build_no_eps(monkeypatch):
    # t_s's column at the cell eps(t) s line is s' L translated by t, read
    # off the cell labels; building each eps(t) for it made q = 64 builds.
    # The level's T is built from the level's eps generators, and no
    # operator builds a dual module; a dual with its own eps generators
    # built d = 6 more
    modules = [InducedModule(2, 3, power_char(m, 2, 3)) for m in (0, 1)]
    builds = []
    real = sl2lab._InducedLevel.eps

    def counting(self, x):
        builds.append(x)
        return real(self, x)

    monkeypatch.setattr(sl2lab._InducedLevel, "eps", counting)
    for module in modules:
        HeckeOperators(module)
    assert builds == []


def test_socle_dimension_is_the_complementary_digit_product():
    # the simple socle of the induced module has dimension prod (p - d_i)
    # over the a! base-p digits d_i of m, zeros included, on the report's
    # count and on the rref route
    cases = 0
    for p, a in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)):
        width = factorial(a)
        for m in range(1, p ** width - 1):
            module = InducedModule(p, a, power_char(m, p, a))
            digits = _digits(m, p)
            socle_dim = prod(p - d for d in digits) * p ** (width - len(digits))
            assert socle_head_report(module).socle_dim == proof_route.socle(module).dim == socle_dim
            cases += 1
    assert cases == 18



def test_costandard_refuses_before_building_a_tower(polyfp_mul_calls):
    # q = p^(level!) alone decides the relation-work cap, so neither request
    # builds a tower: at p = 101 that takes about a second, and at
    # p = 1000003 it would not finish, so that one is asked second
    with pytest.raises(CapabilityError, match="beyond desk scale"):
        CostandardModule(1, 101, coeff_level=3)
    assert polyfp_mul_calls == []
    with pytest.raises(CapabilityError, match="beyond desk scale"):
        CostandardModule(1, 1000003, coeff_level=2)
    with pytest.raises(ArgumentError, match="prime"):
        CostandardModule(1, 1000001, coeff_level=1)
    with pytest.raises(CapabilityError, match="tower cap"):
        CostandardModule(1, 2, coeff_level=4)
    assert polyfp_mul_calls == []


def test_costandard_refusal_names_the_module_its_work_and_the_cap(fresh_caches):
    # q = 3^6 = 729 and 729 (729 + 4^2) = 543 105 > 729 * 738 = 538 002
    with pytest.raises(CapabilityError) as refused:
        CostandardModule(3, 3, coeff_level=3)
    assert str(refused.value) == (
        "relation verification of the costandard module n = 3 over q = 729 is beyond desk "
        "scale: its work q (q + (n+1)^2) = 543105 exceeds the cap 538002")
    assert make_tower.cache_info().currsize == 0


def test_modules_over_one_prime_share_one_tower():
    # the one field F_p-bar: each level of it is built once for all modules
    small = InducedModule(2, 1, trivial_character(2, 1))
    large = InducedModule(2, 2, trivial_character(2, 2))
    cm = CostandardModule(3, 2, coeff_level=2)
    assert small.tower is large.tower is cm.tower is make_tower(2)
    assert _one(small) + large.tower.scalar(1, 1) == _zero(small)
    assert _one(large) is _one(cm) and large.codes is cm.codes


def test_costandard_actions_take_points_at_the_coefficient_level():
    cm = CostandardModule(2, 2, coeff_level=2)
    low = cm.tower.multiplicative_generator(1)
    with pytest.raises(ArgumentError, match="levels"):
        cm.codes.code(low)
    assert cm.codes.elements[cm.eps(cm.codes.code(low.embed(2))).rows[0][1]] is low.embed(2)
