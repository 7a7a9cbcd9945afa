from __future__ import annotations

import pytest

from borelline import polyfp
from borelline.digits import ArgumentError
from borelline.towers import CapabilityError, FieldTower, make_tower


def test_defining_polynomials_are_least():
    t2 = make_tower(2)
    assert t2.defining_polynomial(2) == (1, 1, 1)
    assert t2.defining_polynomial(3) == (1, 1, 0, 0, 0, 0, 1)
    t3 = make_tower(3)
    assert t3.defining_polynomial(2) == (2, 1, 1)


def test_orders_and_degrees():
    t = make_tower(2)
    assert [t.order(n) for n in (1, 2, 3)] == [2, 4, 64]
    assert [t.degree(n) for n in (1, 2, 3)] == [1, 2, 6]


def test_level_cap():
    # a tower has no levels to refuse until one is used
    t = make_tower(2)
    with pytest.raises(CapabilityError, match="tower cap"):
        t.one(4)
    with pytest.raises(CapabilityError, match="tower cap"):
        t.one(1).embed(4)


@pytest.mark.parametrize("levels", [0, -1])
def test_level_below_one_is_an_argument_error(levels):
    # a malformed input, not a capability cap: exit 2, not 3
    with pytest.raises(ArgumentError, match="at least 1"):
        make_tower(2).one(levels)


def test_prime_field_scalars():
    t = make_tower(5)
    g = t.multiplicative_generator(1)
    assert g == t.scalar(3, 1)
    assert g ** 4 == t.one(1)
    assert g ** 2 != t.one(1)


def test_multiplicative_generator_orders():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        t = make_tower(p)
        g = t.multiplicative_generator(n)
        q = t.order(n)
        assert g ** (q - 1) == t.one(n)
        for d in (2, 3, 5, 7):
            if (q - 1) % d == 0:
                assert g ** ((q - 1) // d) != t.one(n)


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
            assert a * a.inverse() == t.one(2)


def test_pow_conventions():
    t = make_tower(2)
    z = t.zero(2)
    assert z ** 0 == t.one(2)
    assert z ** 5 == z
    g = t.multiplicative_generator(2)
    assert g ** -1 == g.inverse()
    assert g ** 3 == t.one(2)


def test_cross_level_arithmetic_is_refused():
    t = make_tower(2)
    one1 = t.one(1)
    g3 = t.multiplicative_generator(3)
    for op in ("__add__", "__sub__", "__mul__"):
        for a, b in ((one1, g3), (g3, one1)):
            with pytest.raises(ArgumentError, match=f"levels {a.level} and {b.level}"):
                getattr(a, op)(b)
    # embedding first is the one way to combine them
    s = one1.embed(3) + g3
    assert s.level == 3
    assert s - g3 == t.one(3)
    with pytest.raises(ArgumentError, match="different towers"):
        t.one(1) + make_tower(3).one(1)
    with pytest.raises(TypeError):
        t.one(1) * 1


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
    result = (1,) + (0,) * (t.degree(n) - 1)
    while e:
        if e & 1:
            result = t._mul_coords(n, result, a)
        a = t._mul_coords(n, a, a)
        e >>= 1
    return result


def _eval_poly_at(t, n, poly, point):
    acc = (0,) * t.degree(n)
    for c in reversed(poly):
        acc = t._mul_coords(n, acc, point)
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
            images = tuple(b.embed(n).coords for b in t.standard_basis(m))
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
    t = make_tower(2)
    basis = t.standard_basis(2)
    assert len(basis) == 2
    spans = set()
    for c0 in (0, 1):
        for c1 in (0, 1):
            v = t.zero(2)
            if c0:
                v = v + basis[0]
            if c1:
                v = v + basis[1]
            spans.add(v)
    assert len(spans) == 4


def test_scalar_reduces_mod_p():
    t = make_tower(3)
    assert t.scalar(0, 1).is_zero()
    assert t.scalar(2, 1) + t.one(1) == t.zero(1)
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
                inv = polyfp.pow_mod(pa, q - 2, f, p)
                assert a.inverse().coords == _padded(inv, d)
                assert (a ** -3).coords == _padded(polyfp.pow_mod(inv, 3, f, p), d)
            for e in (0, 1, 2, 3, p, q - 2, q - 1, q, 2 * q + 1):
                assert (a ** e).coords == _padded(polyfp.pow_mod(pa, e, f, p), d)


def test_elements_are_interned():
    t = make_tower(2)
    assert t.one(2) is t.one(2)
    assert t.zero(3) is t.element((0,) * 6, 3)
    assert t.scalar(3, 1) is t.one(1)
    for a in t.enumerate_elements(2):
        up = a.embed(3)
        assert up is t.element(up.coords, 3)
        if not a.is_zero():
            assert a * a.inverse() is t.one(2)
    g = t.multiplicative_generator(3)
    assert g ** 64 is g
    assert g + t.one(1).embed(3) is t.one(3) + g


def test_tables_are_built_lazily(polyfp_mul_calls):
    t = FieldTower(5)
    assert t.order(3) == 5 ** 6
    assert t.one(1) is not None and t.one(2) is not None
    assert len(polyfp_mul_calls) < 5 ** 6 // 10
    before = len(polyfp_mul_calls)
    t.one(3)
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
    assert codes.elements[0].is_zero() and codes.elements[1] is t.one(level)
    assert all(x.log == c - 1 for c, x in enumerate(codes.elements) if c)
    assert codes.encode(codes.elements) == tuple(range(codes.q))
    assert _code_table_errors(codes) == []


@pytest.mark.parametrize("table", ("mul", "sub"))
def test_a_wrong_code_table_entry_fails_the_table_check(monkeypatch, table):
    codes = make_tower(5).codes(1)
    wrong = [list(row) for row in getattr(codes, table)]
    wrong[2][3] = wrong[2][4]
    monkeypatch.setattr(codes, table, wrong)
    assert _code_table_errors(codes) == [(table, 2, 3)]


def test_code_tables_are_built_from_the_log_tables(polyfp_mul_calls):
    # the level's tables take polynomial products; its code tables none
    t = FieldTower(2)
    t.one(3)
    built = len(polyfp_mul_calls)
    t.codes(3)
    assert len(polyfp_mul_calls) == built
