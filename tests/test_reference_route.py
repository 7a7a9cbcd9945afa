"""The int-coded linear algebra against the FieldElement reference route.

Every subspace behind the rank-one verdict is recomputed on FieldElements
by `element_route`, from the same maps and the same vectors, and must have
the same canonical rows: M^U of the module and of its dual, the socle of
`proof_route.socle`, whose dimension the verdict counts, as the spin of
the sum of the cells, the maximal submodule as the annihilator
of that sum's spin in the dual, and the two Hecke pieces, with the spin of
every B-stable line of a trivial-character module up to q = 13; then the
digit span, the level-bridge image and the bridge's spin on the
`sl2-chain` grid. The tests' dual module, `proof_route.dual`, is checked
against the transposed contragredient.
"""

from __future__ import annotations

from math import comb, factorial

import pytest

import element_route as ref
import proof_route
from borelline import suites
from borelline.characters import RationalPower, truncate
from borelline.sl2lab import (
    CostandardModule,
    HeckeOperators,
    InducedModule,
    l_submodule,
    pi_image,
    socle_head_report,
    spin,
    verify_irreducibility_chain,
)
from census_route import b_stable_lines


def _check_u_fixed_rows(module):
    for mod in (module, proof_route.dual(module)):
        rows = tuple(map(mod.codes.decode, mod.u_fixed_rows))
        assert rows == ref.fixed_subspace(mod, mod.generators[:-2])


def _check_module(p, a, m):
    """The verdict's subspaces of the module with character t^m against the
    reference route; returns the module."""
    module = InducedModule(p, a, truncate(RationalPower(m), p, a))
    _check_u_fixed_rows(module)
    if m:
        # the socle is the spin of the sum of the cells, t_s line; the
        # maximal submodule is the annihilator of its spin in the dual, the
        # module itself when theta^2 = 1
        rep = socle_head_report(module)
        line_sum = module.codes.decode(module.line_sum_vector(module.a))
        dual_socle = ref.spin(proof_route.dual(module), line_sum)
        socle = proof_route.socle(module)
        assert socle.rows == ref.spin(module, line_sum) and rep.socle_dim == socle.dim
        maximal = tuple(map(module.codes.decode, proof_route.maximal_rows(module)))
        assert maximal == ref.kernel(dual_socle, module.dim, ref.one(module), ref.zero(module))
        assert rep.head_dim == module.dim - len(maximal)
    else:
        ops = HeckeOperators(module)
        pieces = ops.idempotent_split()
        cols = list(map(module.codes.decode, ops._cols))
        units = [ref.unit_vector(module, j) for j in range(module.dim)]
        y_full = ref.rref(ref.vec_add(e, c) for e, c in zip(units, cols))
        assert (pieces[0].rows, pieces[1].rows) == (y_full, ref.rref(cols))
    return module


SMALL_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1))


@pytest.mark.parametrize("p, a", SMALL_FIELDS,
                         ids=[f"q={p ** factorial(a)}" for p, a in SMALL_FIELDS])
def test_every_character_up_to_q_13_matches_the_reference_route(p, a):
    for m in range(p ** factorial(a) - 1):
        module = _check_module(p, a, m)
        if m == 0:
            # the verdict spins no line; here every B-stable line of the
            # module, its own dual, is spun
            assert proof_route.dual(module) is module
            for v in b_stable_lines(module):
                assert spin(module, v).rows == ref.spin(module, module.codes.decode(v))


def test_dual_is_the_transposed_contragredient():
    # the induced module of theta^-1 on the same cells has the maps (g^-1)^T
    # of the module's, and the same M^U; it is the module when theta^2 = 1,
    # and it is built once, its own dual being the module
    cases = [(p, a, m) for p, a in SMALL_FIELDS for m in range(p ** factorial(a) - 1)]
    for p, a, m in cases + [(2, 3, 1), (2, 3, 5), (61, 1, 5)]:
        module = InducedModule(p, a, truncate(RationalPower(m), p, a))
        dual, reference = proof_route.dual(module), ref.Contragredient(module)
        assert (dual is module) is (2 * m % (module.q - 1) == 0)
        assert proof_route.dual(module) is dual and proof_route.dual(dual) is module
        assert dual.generators == reference.generators
        assert dual.u_fixed_rows == proof_route.fixed_subspace(
            reference.codes, reference.generators[:-2], reference.dim)
        assert (dual.p, dual.a, dual.m, dual.dim, dual.codes) == (
            p, a, -m % (module.q - 1), module.dim, module.codes)
    assert len(cases) == 1 + 2 + 3 + 4 + 6 + 8 + 10 + 12


@pytest.mark.parametrize("p, a, m", ((2, 3, 1), (2, 3, 0), (61, 1, 5)),
                         ids=("2-3-1", "2-3-0", "61-1-5"))
def test_the_largest_fields_match_the_reference_route(p, a, m):
    _check_module(p, a, m)


def test_the_chain_grid_matches_the_reference_route():
    # the digit span, the costandard image and the bridge's spin at every
    # character of `sl2-chain`
    for p in suites.CHAIN_PRIMES:
        for lam in suites.CHAIN_POWERS:
            theta = truncate(RationalPower(lam), p, 2)
            m_t = theta.residue(2)
            cm = CostandardModule(m_t, p, coeff_level=2)
            digits = [ref.unit_vector(cm, i) for i in range(cm.dim) if comb(m_t, i) % p]
            assert l_submodule(cm).rows == ref.rref(digits)
            top = ref.unit_vector(cm, m_t)
            total = (ref.zero(cm),) * cm.dim
            for x in cm.tower.enumerate_elements(1):
                total = ref.vec_add(total, ref.apply(cm.eps(cm.codes.code(x.embed(2))), top))
            nonzero = tuple(i for i, c in enumerate(total) if not c.is_zero())
            assert pi_image(theta, 1, 2).nonzero_indices == nonzero
            module = InducedModule(p, 2, theta)
            vec = module.line_sum_vector(subfield_level=1)
            rows = ref.spin(module, module.codes.decode(vec))
            assert spin(module, vec).rows == rows
            assert verify_irreducibility_chain(theta, 1, 2).span_is_whole is (
                len(rows) == module.dim)
