from __future__ import annotations

from borelline.polyfp import (
    add,
    degree,
    divmod_poly,
    is_irreducible,
    least_irreducible,
    monic_gcd,
    mul,
    poly_mod,
    pow_mod,
    prime_factors,
    sub,
    trim,
)
from proof_route import has_primitive_root, least_primitive


def test_trim_and_degree():
    assert trim((1, 2, 0, 0)) == (1, 2)
    assert trim((0, 0)) == ()
    assert degree(()) == -1
    assert degree((3,)) == 0
    assert degree((0, 1)) == 1


def test_ring_operations():
    p = 5
    f = (1, 2)        # 1 + 2x
    g = (3, 0, 1)     # 3 + x^2
    assert add(f, g, p) == (4, 2, 1)
    assert sub(g, f, p) == (2, 3, 1)
    assert mul(f, g, p) == (3, 6 % 5, 1, 2)


def test_divmod_reconstructs():
    p = 3
    f = (1, 0, 2, 1)
    g = (2, 1)
    q, r = divmod_poly(f, g, p)
    assert add(mul(q, g, p), r, p) == trim(f)
    assert degree(r) < degree(g)
    assert poly_mod(f, g, p) == r


def test_pow_mod():
    p = 2
    modulus = (1, 1, 1)  # 1 + x + x^2, the field of 4 elements
    x = (0, 1)
    assert pow_mod(x, 3, modulus, p) == (1,)  # x^3 = 1 in F_4*
    assert pow_mod(x, 2, modulus, p) == (1, 1)


def test_monic_gcd():
    p = 3
    f = mul((1, 1), (2, 1), p)
    g = mul((1, 1), (1, 0, 1), p)
    assert monic_gcd(f, g, p) == (1, 1)


def test_prime_factors():
    assert prime_factors(1) == ()
    assert prime_factors(12) == (2, 3)
    assert prime_factors(63) == (3, 7)


def test_is_irreducible():
    assert is_irreducible((1, 1, 1), 2)
    assert not is_irreducible((1, 0, 1), 2)       # (1 + x)^2
    assert is_irreducible((2, 1, 1), 3)
    assert not is_irreducible((1, 0, 0, 0, 0, 0, 1), 2)


def test_least_primitive_known_polynomials():
    assert least_primitive(2, 2) == (1, 1, 1)
    assert least_primitive(2, 6) == (1, 1, 0, 0, 0, 0, 1)
    assert least_primitive(3, 2) == (2, 1, 1)


def test_least_primitive_is_never_before_the_least_irreducible():
    # degree-6 over F_2: the least irreducible is 1 + x + x^6 either way,
    # but in general the primitive one is never earlier than the plain one
    for p, d in ((2, 2), (2, 3), (2, 6), (3, 2)):
        plain = least_irreducible(p, d)
        prim = least_primitive(p, d)
        assert is_irreducible(plain, p)
        assert has_primitive_root(prim, p)
        assert _enc(plain, p) <= _enc(prim, p)


def test_has_primitive_root():
    assert has_primitive_root((1, 1, 1), 2)                 # x generates F_4*
    assert not has_primitive_root((1, 0, 1), 2)             # x^2 = 1 mod (1 + x)^2
    assert not has_primitive_root((1, 0, 1), 3)             # irreducible, but x^4 = 1 in F_9*


def _enc(f, p):
    # encode lower coefficients as the base-p integer used by the search
    return sum(c * p ** i for i, c in enumerate(f[:-1]))
