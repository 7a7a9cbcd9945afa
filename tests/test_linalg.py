from __future__ import annotations

import random

import pytest

import element_route as ref
from borelline.linalg import (
    DenseMap,
    MonomialMap,
    mat_mul,
    mat_vec,
    monomial_fixed_rows,
    reduce_vector,
    rref,
    rref_insert,
    vec_add,
    vec_scale,
)
from borelline.digits import ArgumentError
from borelline.towers import make_tower
from proof_route import fixed_subspace, kernel, span_contains


def field(p=3, level=1):
    return make_tower(p).codes(level)


def cv(F, *vals):
    """The codes of the prime-field scalars vals."""
    t = F.elements[0].tower
    return ref.encode(F, (t.scalar(v, F.elements[0].level) for v in vals))


def test_rref_is_canonical():
    F = field()
    rows = [cv(F, 1, 2, 0), cv(F, 2, 1, 1), cv(F, 0, 0, 2)]
    r1 = rref(F, rows)
    r2 = rref(F, list(reversed(rows)))
    assert r1 == r2
    for row in r1:
        lead = ref.leading_index(F.decode(row))
        assert row[lead] == 1
        for other in r1:
            if other is not row:
                assert other[lead] == 0


def test_rref_drops_zero_rows():
    F = field()
    rows = [cv(F, 1, 1), cv(F, 2, 2), cv(F, 0, 0)]
    assert len(rref(F, rows)) == 1


def _gauss_jordan(rows):
    """Reference reduced row echelon form: the classic Gauss-Jordan loop,
    one pivot column at a time, zero rows dropped, on FieldElements."""
    mat = [list(r) for r in rows]
    m = len(mat)
    if m == 0:
        return ()
    n = len(mat[0])
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, m):
            if not mat[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [inv * x for x in mat[rank]]
        for r in range(m):
            if r != rank and not mat[r][col].is_zero():
                c = mat[r][col]
                mat[r] = [a - c * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == m:
            break
    return tuple(tuple(r) for r in mat[:rank])


# F_2, F_3, F_4, F_5, F_9 as (p, level)
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))
SHAPES = ((1, 1), (1, 6), (3, 8), (5, 5), (9, 4), (14, 2))   # tall and wide


def _random_matrix(rng, elems, m, n):
    """Sparse random rows with zero rows and repeated (rescaled) rows mixed in."""
    zero = elems[0]
    rows = [tuple(rng.choice(elems) if rng.random() < 0.5 else zero for _ in range(n))
            for _ in range(m)]
    rows[rng.randrange(m)] = (zero,) * n
    if m > 1:
        c = rng.choice(elems[1:])
        rows[rng.randrange(m)] = ref.vec_scale(c, rows[rng.randrange(m)])
        rows.append(rows[rng.randrange(m)])
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p, level", FIELDS)
def test_rref_matches_gauss_jordan(p, level):
    # the coded rref and kernel against Gauss-Jordan and the reference
    # route, both on FieldElements
    t = make_tower(p)
    F = t.codes(level)
    elems = list(t.enumerate_elements(level))
    assert elems[0].is_zero()
    one, zero = t.scalar(1, level), t.zero(level)
    rng = random.Random(10 * p + level)
    assert rref(F, []) == _gauss_jordan([]) == ()
    for m, n in SHAPES:
        for _ in range(6):
            rows = _random_matrix(rng, elems, m, n)
            codes = [ref.encode(F, row) for row in rows]
            red = rref(F, codes)
            assert tuple(map(F.decode, red)) == _gauss_jordan(rows) == ref.rref(rows)
            basis = kernel(F, codes, n)
            assert tuple(map(F.decode, basis)) == ref.kernel(rows, n, one, zero)
            assert len(basis) == n - len(red)
            assert rref(F, basis) == basis
            for row in rows:
                for k in map(F.decode, basis):
                    dot = sum((a * b for a, b in zip(row, k)), start=zero)
                    assert dot.is_zero()


def test_rref_insert_matches_batch_rref():
    F = field()
    rng = random.Random(4)
    vectors = [cv(F, *[rng.randrange(3) for _ in range(5)]) for _ in range(12)]
    incremental = ()
    for v in vectors:
        incremental, _ = rref_insert(F, incremental, v)
    assert incremental == rref(F, vectors)


def test_rref_insert_reports_residual():
    F = field()
    rows, first = rref_insert(F, (), cv(F, 0, 2, 1))
    assert first is not None
    assert ref.leading_index(F.decode(first)) == 1
    again, residual = rref_insert(F, rows, cv(F, 0, 1, 2))
    assert residual is None
    assert again == rows


def test_reduce_and_span():
    F = field()
    rows = rref(F, [cv(F, 1, 0, 1), cv(F, 0, 1, 1)])
    assert span_contains(F, rows, cv(F, 1, 1, 2))
    assert not span_contains(F, rows, cv(F, 1, 1, 0))
    residual = reduce_vector(F, cv(F, 1, 1, 0), rows)
    assert ref.leading_index(F.decode(residual)) == 2
    assert F.decode(residual) == ref.reduce_vector(F.decode(cv(F, 1, 1, 0)),
                                                   tuple(map(F.decode, rows)))


def test_kernel_solves_homogeneous_system():
    F = field()
    t = make_tower(3)
    rows = [cv(F, 1, 1, 0), cv(F, 0, 1, 1)]
    basis = kernel(F, rows, 3)
    assert len(basis) == 1
    for row in rows:
        dot = sum((a * b for a, b in zip(F.decode(row), F.decode(basis[0]))), start=t.zero(1))
        assert dot.is_zero()


def test_kernel_of_identity_is_trivial():
    F = field()
    rows = [cv(F, 1, 0), cv(F, 0, 1)]
    assert kernel(F, rows, 2) == ()


def test_monomial_fixed_rows_drop_an_orbit_whose_scales_do_not_close():
    # over F_5, g of order 4: coordinate 0 fixed with scale 1; a 3-cycle
    # 1 -> 2 -> 3 -> 1 with scales g, g, 1, whose product g^2 is not 1, so
    # a fixed v has v[1] = g^2 v[1] = 0 on it; a 2-cycle 4 <-> 5 with scales
    # g and 1/g, which close, giving the row e_4 + g e_5
    F = field(5, 1)
    g = F.generator
    cycle = MonomialMap(F, (0, 2, 3, 1, 5, 4), (1, g, g, 1, g, F.inv[g]))
    rows = monomial_fixed_rows(F, [cycle], 6)
    assert rows == ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, g))
    assert rows == fixed_subspace(F, [cycle], 6)
    # a second map scaling coordinate 0 by g leaves that orbit no row either
    scaled = MonomialMap(F, range(6), (g, 1, 1, 1, 1, 1))
    assert monomial_fixed_rows(F, [cycle, scaled], 6) == ((0, 0, 0, 0, 1, g),)


@pytest.mark.parametrize("p, level", FIELDS)
def test_monomial_fixed_rows_match_the_stacked_kernel(p, level):
    # maps D P D^-1, D diagonal and P a permutation, fix D times each orbit's
    # indicator, so some orbits close; random scales mostly break them
    F = field(p, level)
    units = range(1, F.q)
    rng = random.Random(100 * p + level)
    for n in (1, 3, 7, 12):
        for _ in range(8):
            d = [rng.choice(units) for _ in range(n)]
            maps = []
            for _ in range(rng.randrange(1, 4)):
                perm = list(range(n))
                rng.shuffle(perm)
                if rng.random() < 0.7:
                    scale = [F.mul[d[perm[j]]][F.inv[d[j]]] for j in range(n)]
                else:
                    scale = [rng.choice(units) for _ in range(n)]
                maps.append(MonomialMap(F, perm, scale))
            assert monomial_fixed_rows(F, maps, n) == fixed_subspace(F, maps, n)


def test_monomial_apply_and_compose():
    F = field()
    two = cv(F, 2)[0]
    a = MonomialMap(F, (1, 2, 0), (1, two, 1))
    b = MonomialMap(F, (2, 0, 1), (two, 1, 1))
    v = cv(F, 1, 1, 0)
    assert a.compose(b).apply(v) == a.apply(b.apply(v))
    assert b.compose(a).apply(v) == b.apply(a.apply(v))
    assert F.decode(a.apply(v)) == ref.apply(a, F.decode(v))


def test_monomial_and_dense_maps_agree_through_apply():
    F = field()
    two = cv(F, 2)[0]
    mono = MonomialMap(F, (2, 0, 1), (two, 1, two))
    # the dense matrix read off column by column from the images of unit vectors
    cols = [mono.apply(cv(F, *(int(i == j) for i in range(3)))) for j in range(3)]
    dense = DenseMap(F, zip(*cols))
    other = MonomialMap(F, (1, 2, 0), (1, two, two))
    v = cv(F, 2, 0, 1)
    assert dense.apply(v) == mono.apply(v)
    assert dense.apply(other.apply(v)) == mono.compose(other).apply(v)
    assert F.decode(dense.apply(v)) == ref.apply(dense, F.decode(v))


def test_mat_mul_matches_composition():
    F = field()
    a = (cv(F, 0, 1), cv(F, 2, 0))
    b = (cv(F, 2, 0), cv(F, 0, 2))
    v = cv(F, 1, 2)
    assert mat_vec(F, mat_mul(F, a, b), v) == mat_vec(F, a, mat_vec(F, b, v))


def test_vector_helpers():
    F = field()
    v = cv(F, 1, 2)
    w = cv(F, 2, 2)
    assert vec_add(F, v, w) == cv(F, 0, 1)
    assert vec_scale(F, cv(F, 2)[0], v) == cv(F, 2, 1)


# (m, k, n): the product of an m x k and a k x n matrix
PRODUCT_SHAPES = ((1, 1, 1), (3, 3, 3), (5, 5, 5), (9, 9, 9), (2, 7, 3), (6, 1, 4), (4, 5, 1))


def _dense_matrix(rng, elems, m, n):
    """Random rows, about half zero entries, with a zero row and a zero column."""
    zero = elems[0]
    rows = [[rng.choice(elems) if rng.random() < 0.5 else zero for _ in range(n)]
            for _ in range(m)]
    rows[rng.randrange(m)] = [zero] * n
    col = rng.randrange(n)
    for row in rows:
        row[col] = zero
    return tuple(tuple(row) for row in rows)


def _encoded(F, rows):
    return tuple(ref.encode(F, row) for row in rows)


@pytest.mark.parametrize("p, levels", ((2, 3), (3, 2), (5, 1)))
def test_mat_mul_matches_reference(p, levels):
    t = make_tower(p)
    rng = random.Random(100 * p + levels)
    for level in range(1, levels + 1):
        F = t.codes(level)
        elems = list(t.enumerate_elements(level))
        assert elems[0].is_zero()
        for m, k, n in PRODUCT_SHAPES:
            zeros = ((elems[0],) * k,) * m
            b = _dense_matrix(rng, elems, k, n)
            assert mat_mul(F, _encoded(F, zeros), _encoded(F, b)) == _encoded(
                F, ref.mat_mul(zeros, b))
            for _ in range(4):
                a = _dense_matrix(rng, elems, m, k)
                b = _dense_matrix(rng, elems, k, n)
                got = tuple(map(F.decode, mat_mul(F, _encoded(F, a), _encoded(F, b))))
                assert got == ref.mat_mul(a, b)
                assert all(x.level == level for row in got for x in row)


def test_mat_mul_refuses_mixed_levels():
    # a matrix reaches mat_mul only as codes of one level, and coding an
    # entry of another level is refused, before any product
    t = make_tower(2)
    rng = random.Random(7)
    by_level = {n: list(t.enumerate_elements(n)) for n in (1, 2, 3)}
    for low, high in ((1, 2), (1, 3), (2, 3)):
        F = t.codes(high)

        def up(rows):
            return tuple(tuple(x.embed(high) for x in row) for row in rows)

        a = _dense_matrix(rng, by_level[low], 4, 5)
        b = _dense_matrix(rng, by_level[high], 5, 3)
        # one operand with entries of both levels
        mixed = a[:2] + up(a[2:])
        for rows in (a, mixed):
            with pytest.raises(ArgumentError, match="levels"):
                _encoded(F, rows)
        # a zero row at the low level is refused too
        with pytest.raises(ArgumentError, match="levels"):
            _encoded(F, ((by_level[low][0],) * 5,))
        # embedded first, the product is the same-level one
        got = mat_mul(F, _encoded(F, up(a)), _encoded(F, b))
        assert tuple(map(F.decode, got)) == ref.mat_mul(up(a), b)


def test_mat_mul_rejects_other_towers_and_non_field_entries():
    F = make_tower(2).codes(1)
    with pytest.raises(ArgumentError):
        ref.encode(F, (make_tower(3).scalar(1, 1),))
    with pytest.raises(TypeError):
        ref.encode(F, (1,))


@pytest.mark.parametrize("p, levels", ((2, 3), (3, 2), (5, 1)))
def test_mixed_compose_matches_the_dense_product(p, levels):
    # a monomial map after a dense one scales and permutes its rows, before
    # it its columns; both must equal mat_mul on the dense forms
    t = make_tower(p)
    rng = random.Random(10 * p + levels)
    for level in range(1, levels + 1):
        F = t.codes(level)
        for n in (1, 4, 7):
            perm = list(range(n))
            rng.shuffle(perm)
            mono = MonomialMap(F, perm, (rng.randrange(1, F.q) for _ in range(n)))
            units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            mono_rows = tuple(zip(*(mono.apply(e) for e in units)))
            dense = DenseMap(F, _encoded(F, _dense_matrix(rng, F.elements, n, n)))
            assert mono.compose(dense) == DenseMap(F, mat_mul(F, mono_rows, dense.rows))
            assert dense.compose(mono) == DenseMap(F, mat_mul(F, dense.rows, mono_rows))


def test_mixed_compose_refuses_another_level():
    t = make_tower(2)
    low, high = t.codes(1), t.codes(2)
    rng = random.Random(3)
    mono = MonomialMap(high, (1, 2, 0), (1, 2, 3))
    dense = DenseMap(low, _encoded(low, _dense_matrix(rng, low.elements, 3, 3)))
    for compose in (mono.compose, lambda other: other.compose(mono)):
        with pytest.raises(ArgumentError, match="levels"):
            compose(dense)
