from __future__ import annotations

import random

import pytest

from borelline.linalg import (
    DenseMap,
    MonomialMap,
    kernel,
    leading_index,
    mat_mul,
    mat_vec,
    reduce_vector,
    rref,
    rref_insert,
    span_contains,
    vec_add,
    vec_scale,
)
from borelline.digits import ArgumentError
from borelline.towers import make_tower


def field(p=3):
    return make_tower(p)


def fe(t, *vals):
    return tuple(t.scalar(v, 1) for v in vals)


def test_rref_is_canonical():
    t = field()
    rows = [fe(t, 1, 2, 0), fe(t, 2, 1, 1), fe(t, 0, 0, 2)]
    r1 = rref(rows)
    r2 = rref(list(reversed(rows)))
    assert r1 == r2
    for row in r1:
        lead = leading_index(row)
        assert row[lead] == t.one(1)
        for other in r1:
            if other is not row:
                assert other[lead].is_zero()


def test_rref_drops_zero_rows():
    t = field()
    rows = [fe(t, 1, 1), fe(t, 2, 2), fe(t, 0, 0)]
    assert len(rref(rows)) == 1


def _gauss_jordan(rows):
    """Reference reduced row echelon form: the classic Gauss-Jordan loop,
    one pivot column at a time, zero rows dropped."""
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
        rows[rng.randrange(m)] = vec_scale(c, rows[rng.randrange(m)])
        rows.append(rows[rng.randrange(m)])
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p, level", FIELDS)
def test_rref_matches_gauss_jordan(p, level):
    t = make_tower(p)
    elems = list(t.enumerate_elements(level))
    assert elems[0].is_zero()
    one, zero = t.one(level), t.zero(level)
    rng = random.Random(10 * p + level)
    assert rref([]) == _gauss_jordan([]) == ()
    for m, n in SHAPES:
        for _ in range(6):
            rows = _random_matrix(rng, elems, m, n)
            red = rref(rows)
            assert red == _gauss_jordan(rows)
            basis = kernel(rows, n, one, zero)
            assert len(basis) == n - len(red)
            assert rref(basis) == basis
            for row in rows:
                for k in basis:
                    dot = sum((a * b for a, b in zip(row, k)), start=zero)
                    assert dot.is_zero()


def test_rref_insert_matches_batch_rref():
    t = field()
    rng = random.Random(4)
    vectors = [fe(t, *[rng.randrange(3) for _ in range(5)]) for _ in range(12)]
    incremental = ()
    for v in vectors:
        incremental, _ = rref_insert(incremental, v)
    assert incremental == rref(vectors)


def test_rref_insert_reports_residual():
    t = field()
    rows, first = rref_insert((), fe(t, 0, 2, 1))
    assert first is not None
    assert leading_index(first) == 1
    again, residual = rref_insert(rows, fe(t, 0, 1, 2))
    assert residual is None
    assert again == rows


def test_reduce_and_span():
    t = field()
    rows = rref([fe(t, 1, 0, 1), fe(t, 0, 1, 1)])
    assert span_contains(rows, fe(t, 1, 1, 2))
    assert not span_contains(rows, fe(t, 1, 1, 0))
    residual = reduce_vector(fe(t, 1, 1, 0), rows)
    assert leading_index(residual) == 2


def test_kernel_solves_homogeneous_system():
    t = field()
    rows = [fe(t, 1, 1, 0), fe(t, 0, 1, 1)]
    basis = kernel(rows, 3, t.one(1), t.zero(1))
    assert len(basis) == 1
    for row in rows:
        dot = sum((a * b for a, b in zip(row, basis[0])), start=t.zero(1))
        assert dot.is_zero()


def test_kernel_of_identity_is_trivial():
    t = field()
    rows = [fe(t, 1, 0), fe(t, 0, 1)]
    assert kernel(rows, 2, t.one(1), t.zero(1)) == ()


def test_monomial_apply_and_compose():
    t = field()
    two = t.scalar(2, 1)
    one = t.one(1)
    a = MonomialMap((1, 2, 0), (one, two, one))
    b = MonomialMap((2, 0, 1), (two, one, one))
    v = fe(t, 1, 1, 0)
    assert a.compose(b).apply(v) == a.apply(b.apply(v))
    assert b.compose(a).apply(v) == b.apply(a.apply(v))


def test_monomial_and_dense_maps_agree_through_apply():
    t = field()
    two = t.scalar(2, 1)
    mono = MonomialMap((2, 0, 1), (two, t.one(1), two))
    # the dense matrix read off column by column from the images of unit vectors
    cols = [mono.apply(fe(t, *(int(i == j) for i in range(3)))) for j in range(3)]
    dense = DenseMap(zip(*cols))
    other = MonomialMap((1, 2, 0), (t.one(1), two, two))
    v = fe(t, 2, 0, 1)
    assert dense.apply(v) == mono.apply(v)
    assert dense.apply(other.apply(v)) == mono.compose(other).apply(v)


def test_mat_mul_matches_composition():
    t = field()
    a = (fe(t, 0, 1), fe(t, 2, 0))
    b = (fe(t, 2, 0), fe(t, 0, 2))
    v = fe(t, 1, 2)
    assert mat_vec(mat_mul(a, b), v) == mat_vec(a, mat_vec(b, v))


def test_vector_helpers():
    t = field()
    v = fe(t, 1, 2)
    w = fe(t, 2, 2)
    assert vec_add(v, w) == fe(t, 0, 1)
    assert vec_scale(t.scalar(2, 1), v) == fe(t, 2, 1)


def _mat_mul_reference(a, b):
    """Reference matrix product: each entry a sum of FieldElement products
    over the nonzero entries of the left row."""
    cols = list(zip(*b))
    return tuple(
        tuple(
            sum((x * y for x, y in zip(row, col) if not x.is_zero()),
                start=row[0] - row[0])
            for col in cols
        )
        for row in a
    )


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


@pytest.mark.parametrize("p, levels", ((2, 3), (3, 2), (5, 1)))
def test_mat_mul_matches_reference(p, levels):
    t = make_tower(p)
    rng = random.Random(100 * p + levels)
    for level in range(1, levels + 1):
        elems = list(t.enumerate_elements(level))
        assert elems[0].is_zero()
        for m, k, n in PRODUCT_SHAPES:
            zeros = ((elems[0],) * k,) * m
            b = _dense_matrix(rng, elems, k, n)
            assert mat_mul(zeros, b) == _mat_mul_reference(zeros, b)
            for _ in range(4):
                a = _dense_matrix(rng, elems, m, k)
                b = _dense_matrix(rng, elems, k, n)
                got = mat_mul(a, b)
                assert got == _mat_mul_reference(a, b)
                assert all(x.level == level for row in got for x in row)


def test_mat_mul_refuses_mixed_levels():
    t = make_tower(2)
    rng = random.Random(7)
    by_level = {n: list(t.enumerate_elements(n)) for n in (1, 2, 3)}
    for low, high in ((1, 2), (1, 3), (2, 3)):
        def up(rows):
            return tuple(tuple(x.embed(high) for x in row) for row in rows)

        a = _dense_matrix(rng, by_level[low], 4, 5)
        b = _dense_matrix(rng, by_level[high], 5, 3)
        c = _dense_matrix(rng, by_level[high], 3, 4)
        # one operand with entries of both levels
        mixed = a[:2] + up(a[2:])
        for left, right in ((a, b), (c, a), (mixed, b)):
            with pytest.raises(ArgumentError, match="levels"):
                mat_mul(left, right)
        # a zero row at the low level is refused too
        with pytest.raises(ArgumentError, match="levels"):
            mat_mul(((by_level[low][0],) * 5,), b)
        # embedded first, the product is the same-level one
        assert mat_mul(up(a), b) == _mat_mul_reference(up(a), b)


def test_mat_mul_rejects_other_towers_and_non_field_entries():
    a = ((make_tower(2).one(1),),)
    b = ((make_tower(3).one(1),),)
    with pytest.raises(ArgumentError):
        mat_mul(a, b)
    with pytest.raises(TypeError):
        mat_mul(a, ((1,),))
    with pytest.raises(TypeError):
        mat_mul(((1,),), a)


@pytest.mark.parametrize("p, levels", ((2, 3), (3, 2), (5, 1)))
def test_mixed_compose_matches_the_dense_product(p, levels):
    # a monomial map after a dense one scales and permutes its rows, before
    # it its columns; both must equal mat_mul on the dense forms
    t = make_tower(p)
    rng = random.Random(10 * p + levels)
    for level in range(1, levels + 1):
        elems = list(t.enumerate_elements(level))
        for n in (1, 4, 7):
            perm = list(range(n))
            rng.shuffle(perm)
            mono = MonomialMap(perm, (rng.choice(elems[1:]) for _ in range(n)))
            units = [tuple(t.one(level) if j == i else t.zero(level) for j in range(n))
                     for i in range(n)]
            mono_rows = tuple(zip(*(mono.apply(e) for e in units)))
            dense = DenseMap(_dense_matrix(rng, elems, n, n))
            assert mono.compose(dense) == DenseMap(mat_mul(mono_rows, dense.rows))
            assert dense.compose(mono) == DenseMap(mat_mul(dense.rows, mono_rows))


def test_mixed_compose_refuses_another_level():
    t = make_tower(2)
    low, high = list(t.enumerate_elements(1)), list(t.enumerate_elements(2))
    rng = random.Random(3)
    mono = MonomialMap((1, 2, 0), (high[1], high[2], high[3]))
    dense = DenseMap(_dense_matrix(rng, low, 3, 3))
    for compose in (mono.compose, lambda other: other.compose(mono)):
        with pytest.raises(ArgumentError, match="levels"):
            compose(dense)
