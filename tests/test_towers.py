from __future__ import annotations

from math import factorial

import pytest

import element_route as ref
from borelline import polyfp
from borelline.digits import ArgumentError
from borelline.towers import CapabilityError, FieldTower, make_tower
from proof_route import least_primitive, pow_mod


def test_defining_polynomials_are_least():
    t2 = make_tower(2)
    assert t2.defining_polynomial(2) == (1, 1, 1)
    assert t2.defining_polynomial(3) == (1, 1, 0, 0, 0, 0, 1)
    t3 = make_tower(3)
    assert t3.defining_polynomial(2) == (2, 1, 1)


# every (p, level) a module reaches: each prime field the lab builds, the
# levels 2 with q <= 64 and past it (costandard modules at level 2 reach
# p = 7), and level 3 at p = 2 and 3
WALK_CASES = ([(p, 1) for p in range(2, 62) if all(p % d for d in range(2, p))]
              + [(p, 2) for p in (2, 3, 5, 7)] + [(2, 3), (3, 3)])


@pytest.mark.parametrize("p, level", WALK_CASES, ids=[f"{p}-{n}" for p, n in WALK_CASES])
def test_the_walk_finds_the_reference_polynomial(p, level):
    # the first candidate whose walk takes q - 1 products is the first
    # primitive polynomial by Rabin's test and a primitivity test
    t = FieldTower(p)
    assert t.defining_polynomial(level) == least_primitive(p, factorial(level))


@pytest.mark.parametrize("p, level, products", ((2, 1, 1), (5, 1, 6), (2, 2, 5), (2, 3, 69)))
def test_each_walk_costs_the_order_of_its_root(polyfp_mul_calls, p, level, products):
    # a rejected candidate's walk ends at its root's first return to 1: x + 1
    # at p = 5 (root -1, order 2), 1 + x^2 at p = 2 (order 2) and 1 + x^6
    # (order 6); the accepted walk takes q - 1 products, one per table entry.
    # A walk on the candidates x divides would never return, and cost q - 1
    # products each
    t = FieldTower(p)
    t.codes(level)
    assert len(polyfp_mul_calls) == len(t._mul_cache[level]) == products


def test_orders_and_degrees():
    t = make_tower(2)
    assert [t.order(n) for n in (1, 2, 3)] == [2, 4, 64]
    assert [t.degree(n) for n in (1, 2, 3)] == [1, 2, 6]


def test_level_cap():
    # a tower has no levels to refuse until one is used
    t = make_tower(2)
    with pytest.raises(CapabilityError, match="tower cap"):
        t.scalar(1, 4)
    with pytest.raises(CapabilityError, match="tower cap"):
        t.scalar(1, 1).embed(4)


@pytest.mark.parametrize("levels", [0, -1])
def test_level_below_one_is_an_argument_error(levels):
    # a malformed input, not a capability cap: exit 2, not 3
    with pytest.raises(ArgumentError, match="at least 1"):
        make_tower(2).scalar(1, levels)


def test_prime_field_scalars():
    t = make_tower(5)
    g = t.multiplicative_generator(1)
    assert g == t.scalar(3, 1)
    assert g ** 4 == t.scalar(1, 1)
    assert g ** 2 != t.scalar(1, 1)


def test_multiplicative_generator_orders():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        t = make_tower(p)
        g = t.multiplicative_generator(n)
        q = t.order(n)
        assert g ** (q - 1) == t.scalar(1, n)
        for d in (2, 3, 5, 7):
            if (q - 1) % d == 0:
                assert g ** ((q - 1) // d) != t.scalar(1, n)


def test_field_axioms_sampled():
    t = make_tower(3)
    elems = list(t.enumerate_elements(2))
    assert len(elems) == 9
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems[:3]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_subtraction_and_negation():
    t = make_tower(2)
    for a in t.enumerate_elements(2):
        assert a - a == t.zero(2)
        assert a + (-a) == t.zero(2)


def test_inverse_and_division():
    t = make_tower(3)
    for a in t.enumerate_elements(2):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == t.scalar(1, 2)


def test_pow_conventions():
    t = make_tower(2)
    z = t.zero(2)
    assert z ** 0 == t.scalar(1, 2)
    assert z ** 5 == z
    g = t.multiplicative_generator(2)
    assert g ** -1 == g.inverse()
    assert g ** 3 == t.scalar(1, 2)


def test_cross_level_arithmetic_is_refused():
    t = make_tower(2)
    one1 = t.scalar(1, 1)
    g3 = t.multiplicative_generator(3)
    for op in ("__add__", "__sub__", "__mul__"):
        for a, b in ((one1, g3), (g3, one1)):
            with pytest.raises(ArgumentError, match=f"levels {a.level} and {b.level}"):
                getattr(a, op)(b)
    # embedding first is the one way to combine them
    s = one1.embed(3) + g3
    assert s.level == 3
    assert s - g3 == t.scalar(1, 3)
    with pytest.raises(ArgumentError, match="different towers"):
        t.scalar(1, 1) + make_tower(3).scalar(1, 1)
    with pytest.raises(TypeError):
        t.scalar(1, 1) * 1


def test_embedding_is_a_field_map():
    # F_3 -> F_9, F_4 -> F_64 and F_9 -> F_729
    for p, m, n in ((3, 1, 2), (2, 2, 3), (3, 2, 3)):
        t = make_tower(p)
        elems = list(t.enumerate_elements(m))
        for a in elems:
            for b in elems:
                assert (a + b).embed(n) == a.embed(n) + b.embed(n)
                assert (a * b).embed(n) == a.embed(n) * b.embed(n)
        assert len({a.embed(n) for a in elems}) == len(elems)


def _pow_coords(t, n, a, e):
    f = t.defining_polynomial(n)
    result = (1,) + (0,) * (t.degree(n) - 1)
    while e:
        if e & 1:
            result = t._mul_coords(n, result, a, f)
        a = t._mul_coords(n, a, a, f)
        e >>= 1
    return result


def _eval_poly_at(t, n, poly, point):
    acc = (0,) * t.degree(n)
    f = t.defining_polynomial(n)
    for c in reversed(poly):
        acc = t._mul_coords(n, acc, point, f)
        acc = ((acc[0] + c) % t.p,) + acc[1:]
    return acc


def _coordinate_embedding(t, m, n):
    """The images of the level-m power basis at level n on the polynomial
    route alone: the powers of the least root of f_m by coordinates, with
    the roots sought among zero and the powers of g^((q_n - 1)/(q_m - 1))."""
    dm, qm = t.degree(m), t.order(m)
    root_class = tuple(1 if i == 1 else 0 for i in range(t.degree(n)))  # n >= 2
    step = _pow_coords(t, n, root_class, (t.order(n) - 1) // (qm - 1))
    candidates = [(0,) * t.degree(n)] + [_pow_coords(t, n, step, k) for k in range(qm - 1)]
    roots = [x for x in candidates
             if not any(_eval_poly_at(t, n, t.defining_polynomial(m), x))]
    assert len(roots) == dm
    rho = min(roots)
    return tuple(_pow_coords(t, n, rho, i) for i in range(dm))


@pytest.mark.parametrize("p,levels", [(2, 3), (3, 3), (5, 2), (7, 2)])
def test_embeddings_agree_with_the_coordinate_route(p, levels):
    t = FieldTower(p)
    for m in range(1, levels):
        for n in range(m + 1, levels + 1):
            images = tuple(b.embed(n).coords for b in ref.standard_basis(t, m))
            assert images == _coordinate_embedding(t, m, n)


def test_construction_searches_only_the_defining_polynomials(polyfp_mul_calls):
    # defining polynomials, embeddings and tables all wait for their first use
    FieldTower(2)
    assert len(polyfp_mul_calls) == 0


def test_embeddings_compose():
    t = make_tower(2)
    for a in t.enumerate_elements(1):
        assert a.embed(3) == a.embed(2).embed(3)


def test_frobenius_fixes_subfields():
    # x -> x^4 is the square of Frobenius over F_2: it fixes F_4 inside F_64
    t = make_tower(2)
    for a in t.enumerate_elements(2):
        up = a.embed(3)
        assert up ** 4 == up
    g = t.multiplicative_generator(3)
    assert g ** 4 != g
    assert g ** 64 == g


def test_frobenius_is_additive_and_multiplicative():
    t = make_tower(3)
    for a in t.enumerate_elements(2):
        for b in t.enumerate_elements(2):
            assert (a + b) ** 3 == a ** 3 + b ** 3
            assert (a * b) ** 3 == a ** 3 * b ** 3


def test_enumerate_is_complete_and_distinct():
    t = make_tower(2)
    elems = list(t.enumerate_elements(3))
    assert len(elems) == 64
    assert len(set(elems)) == 64


def test_standard_basis_spans():
    # the F_p-combinations of the basis codes give every code of the level once
    for p, level in ((2, 2), (3, 2), (2, 3)):
        codes = make_tower(p).codes(level)
        add, mul = codes.add, codes.mul
        spans = {0}
        for b in codes.basis:
            spans = {add[x][mul[c][b]] for x in spans for c in codes.scalars}
        assert len(codes.basis) == make_tower(p).degree(level)
        assert spans == set(range(codes.q))


# every level a pair below needs: 1..3 for p = 2, 3 and 1..2 for p = 5, 7
POINT_CODE_TOWERS = ((2, 3), (3, 3), (5, 2), (7, 2))
POINT_CODE_LEVELS = tuple((p, n) for p, top in POINT_CODE_TOWERS for n in range(1, top + 1))
SUBFIELD_PAIRS = tuple((p, r, n) for p, top in POINT_CODE_TOWERS
                       for n in range(1, top + 1) for r in range(1, n + 1))


@pytest.mark.parametrize("p, n", POINT_CODE_LEVELS, ids=[f"{p}-{n}" for p, n in POINT_CODE_LEVELS])
def test_point_codes_agree_with_the_element_route(p, n):
    # each point a module takes as a code, against the FieldElement taken
    # from the tower and coded
    t = make_tower(p)
    codes = t.codes(n)
    assert codes.basis == ref.encode(codes, ref.standard_basis(t, n))
    assert codes.generator == codes.code(t.multiplicative_generator(n)) == (1 if codes.q == 2 else 2)
    assert tuple(codes.scalars) == tuple(codes.code(t.scalar(c, n)) for c in range(p))
    assert codes.coords == tuple(x.coords for x in codes.elements)
    assert len(set(codes.coords)) == codes.q


def _subfield_closed_form(qr, qn, with_zero=True, step_shift=0):
    """Zero and the powers of g^((q_n - 1)/(q_r - 1)), as codes: the subfield
    of order q_r at level n."""
    step = (qn - 1) // (qr - 1) + step_shift
    units = {1 + j * step for j in range(qr - 1)}
    return units | {0} if with_zero else units


@pytest.mark.parametrize("p, r, n", SUBFIELD_PAIRS, ids=[f"{p}-{r}-{n}" for p, r, n in SUBFIELD_PAIRS])
def test_subfield_codes_are_the_closed_form(p, r, n):
    t = make_tower(p)
    qr, qn = t.order(r), t.order(n)
    sub = t.subfield_codes(r, n)
    assert len(sub) == qr and set(sub) == _subfield_closed_form(qr, qn)
    # the check tells zero dropped, and a step off by one unless q_r = 2
    assert set(sub) != _subfield_closed_form(qr, qn, with_zero=False)
    for shift in (-1, 1):
        assert (set(sub) == _subfield_closed_form(qr, qn, step_shift=shift)) is (qr == 2)


def test_scalar_reduces_mod_p():
    t = make_tower(3)
    assert t.scalar(0, 1).is_zero()
    assert t.scalar(2, 1) + t.scalar(1, 1) == t.zero(1)
    assert t.scalar(3, 1).is_zero()
    assert t.scalar(-1, 1) == t.scalar(2, 1)


def _padded(poly, d):
    return poly + (0,) * (d - len(poly))


@pytest.mark.parametrize("p,levels", [(2, 3), (3, 2), (5, 1), (7, 1)])
def test_tables_agree_with_the_polynomial_route(p, levels):
    t = FieldTower(p)
    for n in range(1, levels + 1):
        f, d, q = t.defining_polynomial(n), t.degree(n), t.order(n)
        elems = list(t.enumerate_elements(n))
        polys = [polyfp.trim(a.coords) for a in elems]
        for a, pa in zip(elems, polys):
            for b, pb in zip(elems, polys):
                prod = polyfp.poly_mod(polyfp.mul(pa, pb, p), f, p)
                assert (a * b).coords == _padded(prod, d)
                assert (a + b).coords == tuple((x + y) % p for x, y in zip(a.coords, b.coords))
                assert (a - b).coords == tuple((x - y) % p for x, y in zip(a.coords, b.coords))
            assert (-a).coords == tuple((-x) % p for x in a.coords)
            if a.is_zero():
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
            else:
                inv = pow_mod(pa, q - 2, f, p)
                assert a.inverse().coords == _padded(inv, d)
                assert (a ** -3).coords == _padded(pow_mod(inv, 3, f, p), d)
            for e in (0, 1, 2, 3, p, q - 2, q - 1, q, 2 * q + 1):
                assert (a ** e).coords == _padded(pow_mod(pa, e, f, p), d)


def test_elements_are_interned():
    t = make_tower(2)
    assert t.scalar(1, 2) is t.scalar(1, 2)
    assert t.zero(3) is ref.element(t, (0,) * 6, 3)
    assert t.scalar(3, 1) is t.multiplicative_generator(1) ** 0
    for a in t.enumerate_elements(2):
        up = a.embed(3)
        assert up is ref.element(t, up.coords, 3)
        if not a.is_zero():
            assert a * a.inverse() is t.scalar(1, 2)
    g = t.multiplicative_generator(3)
    assert g ** 64 is g
    assert g + t.scalar(1, 1).embed(3) is t.scalar(1, 3) + g


def test_tables_are_built_lazily(polyfp_mul_calls):
    t = FieldTower(5)
    assert t.order(3) == 5 ** 6
    assert t.scalar(1, 1) is not None and t.scalar(1, 2) is not None
    assert len(polyfp_mul_calls) < 5 ** 6 // 10
    before = len(polyfp_mul_calls)
    t.scalar(1, 3)
    assert len(polyfp_mul_calls) - before >= 5 ** 6 // 2


def _code_table_errors(codes):
    """Every entry of the code tables of one level that disagrees with the
    FieldElement operators, as (table, a, b)."""
    elems = codes.elements
    errors = []
    for a, x in enumerate(elems):
        for b, y in enumerate(elems):
            for name, want in (("mul", x * y), ("add", x + y), ("sub", x - y)):
                if elems[getattr(codes, name)[a][b]] is not want:
                    errors.append((name, a, b))
        if elems[codes.neg[a]] is not -x:
            errors.append(("neg", a, None))
        if a and elems[codes.inv[a]] is not x.inverse():
            errors.append(("inv", a, None))
    return errors


# every field a module can be built over: F_p for p <= 61, and q = 4, 9,
# 25, 49 and 64
CODED_FIELDS = tuple((p, 1) for p in range(2, 62) if all(p % d for d in range(2, p))) + (
    (2, 2), (3, 2), (5, 2), (7, 2), (2, 3))


@pytest.mark.parametrize("p, level", CODED_FIELDS,
                         ids=[f"q={p ** (1, 2, 6)[level - 1]}" for p, level in CODED_FIELDS])
def test_code_tables_agree_with_the_field_operators(p, level):
    t = make_tower(p)
    codes = t.codes(level)
    assert codes is t.codes(level)
    assert codes.q == t.order(level) and len(codes.mul) == len(codes.sub) == codes.q
    # zero, then the powers of the generator from one
    assert codes.elements[0].is_zero() and codes.elements[1] is t.scalar(1, level)
    assert all(x.code == c for c, x in enumerate(codes.elements))
    assert ref.encode(codes, codes.elements) == tuple(range(codes.q))
    assert _code_table_errors(codes) == []


@pytest.mark.parametrize("table", ("mul", "sub"))
def test_a_wrong_code_table_entry_fails_the_table_check(monkeypatch, table):
    codes = make_tower(5).codes(1)
    wrong = [list(row) for row in getattr(codes, table)]
    wrong[2][3] = wrong[2][4]
    monkeypatch.setattr(codes, table, wrong)
    assert _code_table_errors(codes) == [(table, 2, 3)]


def _polynomial_route_errors(t, level):
    """Every entry of the level's code tables and rows that disagrees with
    the polynomial route, as (table, a, b): products by `polyfp.mul` reduced
    modulo f_n, sums and differences coordinatewise mod p, each read back
    through the codes' coordinates."""
    codes = t.codes(level)
    f, d, p = t.defining_polynomial(level), t.degree(level), t.p
    coords = codes.coords
    polys = [polyfp.trim(c) for c in coords]

    def product(x, y):
        return _padded(polyfp.poly_mod(polyfp.mul(x, y, p), f, p), d)

    errors = []
    for a, (ca, pa) in enumerate(zip(coords, polys)):
        for b, (cb, pb) in enumerate(zip(coords, polys)):
            for name, want in (
                    ("mul", product(pa, pb)),
                    ("add", tuple((x + y) % p for x, y in zip(ca, cb))),
                    ("sub", tuple((x - y) % p for x, y in zip(ca, cb)))):
                if coords[getattr(codes, name)[a][b]] != want:
                    errors.append((name, a, b))
        if coords[codes.neg[a]] != tuple(-x % p for x in ca):
            errors.append(("neg", a, None))
        if coords[codes.one_plus[a]] != ((ca[0] + 1) % p,) + ca[1:]:
            errors.append(("one_plus", a, None))
        if a and product(pa, polys[codes.inv[a]]) != coords[1]:
            errors.append(("inv", a, None))
    return errors


@pytest.mark.parametrize("p, level", CODED_FIELDS,
                         ids=[f"q={p ** (1, 2, 6)[level - 1]}" for p, level in CODED_FIELDS])
def test_code_tables_agree_with_the_polynomial_route(p, level):
    # the FieldElement operators read one_plus as the add table does, so
    # only this route checks the sums independently
    assert _polynomial_route_errors(make_tower(p), level) == []


def test_a_wrong_one_plus_entry_fails_the_polynomial_route():
    # 1 + g is taken for 1 + g^2: every sum a + b with b = g a goes wrong,
    # in the add table and in the sub table read off it
    t = FieldTower(5)
    codes = t.codes(1)
    codes.one_plus[2] = codes.one_plus[3]
    codes._tabulate()
    errors = _polynomial_route_errors(t, 1)
    assert {name for name, _, _ in errors} == {"add", "sub", "one_plus"}
    assert ("add", 2, 3) in errors and ("one_plus", 2, None) in errors


def test_code_tables_take_no_polynomial_product(polyfp_mul_calls):
    # the level's tables take polynomial products; its code tables none
    t = FieldTower(2)
    t.scalar(1, 3)
    built = len(polyfp_mul_calls)
    t.codes(3)
    assert len(polyfp_mul_calls) == built
