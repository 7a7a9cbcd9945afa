from __future__ import annotations

import random

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
from borelline.towers import make_tower


def field(p=3):
    return make_tower(p, levels=1)


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
