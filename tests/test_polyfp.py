from __future__ import annotations

import pytest

from borelline.polyfp import add, degree, mul, mul_mod, poly_mod, primitive_walk, trim
from proof_route import (
    X,
    has_primitive_root,
    is_irreducible,
    least_primitive,
    monic_gcd,
    pow_mod,
    prime_factors,
    sub,
)


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
    # division with remainder: f = quo g + rem with deg rem < deg g gives
    # poly_mod(f, g) = rem, for a monic and a non-monic g
    p = 3
    for g, quo, rem in (((2, 1), (1, 0, 1), (2,)), ((1, 0, 2), (2, 1), (1, 2)),
                        ((1, 1), (), (2,)), ((2, 1, 1), (1,), ())):
        f = add(mul(quo, g, p), rem, p)
        assert poly_mod(f, g, p) == rem
    with pytest.raises(ZeroDivisionError):
        poly_mod((1, 1), (), p)


def test_mul_mod_pads_to_the_degree_of_the_modulus():
    p = 2
    modulus = (1, 1, 1)  # 1 + x + x^2, the field of 4 elements
    assert mul_mod((0, 1), (0, 1), modulus, p) == (1, 1)
    assert mul_mod((1, 1), (0, 1), modulus, p) == (1, 0)
    assert mul_mod((1,), (), modulus, p) == (0, 0)
    assert mul_mod((4,), (3,), (1, 1), 7) == (5,)   # 12 = 5 mod 7, a constant modulo x + 1
    assert mul_mod((0, 1), (0, 2), (0, 1), 7) == (0,)  # 2x^2 = 0 modulo x


def test_pow_mod():
    p = 2
    modulus = (1, 1, 1)
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
        plain = _least_irreducible(p, d)
        prim = least_primitive(p, d)
        assert is_irreducible(plain, p)
        assert has_primitive_root(prim, p)
        assert _enc(plain, p) <= _enc(prim, p)


def test_has_primitive_root():
    assert has_primitive_root((1, 1, 1), 2)                 # x generates F_4*
    assert not has_primitive_root((1, 0, 1), 2)             # x^2 = 1 mod (1 + x)^2
    assert not has_primitive_root((1, 0, 1), 3)             # irreducible, but x^4 = 1 in F_9*


# every (p, d) the package asks a walk for: the tower levels, each prime
# field the lab builds at d = 1, level 2 (d = 2) for p <= 7 and level 3
# (d = 6) for p in {2, 3}, and the fields of the power-sum oracle, F_8 at
# (2, 3) among them, which no tower level is
PRIMES = [p for p in range(2, 62) if all(p % d for d in range(2, p))]
WALK_CASES = sorted({(p, 1) for p in PRIMES} | {(p, 2) for p in (2, 3, 5, 7)}
                    | {(2, 6), (3, 6)} | {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)})


def _plain_product(p):
    def product(a, b, f):
        return mul_mod(a, b, f, p)
    return product


@pytest.mark.parametrize("p, d", WALK_CASES, ids=[f"{p}-{d}" for p, d in WALK_CASES])
def test_the_walk_finds_the_least_primitive_polynomial(p, d):
    # the first candidate whose walk takes q - 1 products is the first
    # primitive polynomial by Rabin's test and a primitivity test, and the
    # walk's powers are those of its root class
    f, powers = primitive_walk(p, d, _plain_product(p))
    assert f == least_primitive(p, d)
    q = p ** d
    assert len(powers) == len(set(powers)) == q - 1
    root = ((-f[0]) % p,) if d == 1 else X
    for i in sorted({0, 1, q // 2, q - 2} & set(range(q - 1))):
        power = pow_mod(root, i, f, p)
        assert powers[i] == power + (0,) * (d - len(power))


def test_the_walk_asks_each_product_of_its_callable():
    # a rejected walk ends at its root's first return to 1: at (2, 3),
    # 1 + x^3 returns after 3 products; 1 + x + x^3 then takes 7
    asked = []
    plain = _plain_product(2)

    def product(a, b, f):
        asked.append(f)
        return plain(a, b, f)

    f, _ = primitive_walk(2, 3, product)
    assert f == (1, 1, 0, 1)
    assert asked == [(1, 0, 0, 1)] * 3 + [f] * 7


def _least_irreducible(p, d):
    """The first monic irreducible of degree d by Rabin's test, in the
    base-p enumeration of lower coefficient vectors."""
    for k in range(p ** d):
        f = tuple(k // p ** i % p for i in range(d)) + (1,)
        if is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {d} over F_{p}")


def _enc(f, p):
    # encode lower coefficients as the base-p integer used by the search
    return sum(c * p ** i for i, c in enumerate(f[:-1]))
