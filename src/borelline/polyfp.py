"""Dense polynomial arithmetic over a prime field F_p.

Polynomials are tuples of ints in [0, p), least significant coefficient
first, with no trailing zeros; the zero polynomial is the empty tuple.
Everything here is exact and deterministic.
"""

from __future__ import annotations

X = (0, 1)


def trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(f) - 1


def add(f, g, p):
    n = max(len(f), len(g))
    return trim((
        ((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p
        for i in range(n)
    ))


def neg(f, p):
    return tuple((-c) % p for c in f)


def sub(f, g, p):
    return add(f, neg(g, p), p)


def mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def divmod_poly(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = degree(g)
    inv_lead = pow(g[-1], p - 2, p) if p > 2 else g[-1]
    quo = [0] * max(len(f) - dg, 1)
    while len(trim(rem)) - 1 >= dg:
        rem = list(trim(rem))
        shift = len(rem) - 1 - dg
        factor = (rem[-1] * inv_lead) % p
        quo[shift] = factor
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
    return trim(quo), trim(rem)


def poly_mod(f, g, p):
    return divmod_poly(f, g, p)[1]


def pow_mod(f, e, modulus, p):
    """f**e modulo `modulus`, by binary exponentiation."""
    if e < 0:
        raise ValueError("negative exponent")
    result = (1,)
    base = poly_mod(f, modulus, p)
    while e:
        if e & 1:
            result = poly_mod(mul(result, base, p), modulus, p)
        base = poly_mod(mul(base, base, p), modulus, p)
        e >>= 1
    return result


def monic_gcd(f, g, p):
    a, b = f, g
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = tuple((c * inv_lead) % p for c in a)
    return a


def prime_factors(n) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_irreducible(f, p) -> bool:
    """Rabin's test: x^(p^d) = x mod f, and no proper-subfield coincidence."""
    d = degree(f)
    if d < 1:
        return False
    if poly_mod(sub(pow_mod(X, p ** d, f, p), X, p), f, p):
        return False
    for r in prime_factors(d):
        g = sub(pow_mod(X, p ** (d // r), f, p), X, p)
        if degree(monic_gcd(g, f, p)) != 0:
            return False
    return True


def least_irreducible(p, d):
    """First monic irreducible of degree d in the base-p enumeration of
    lower coefficient vectors."""
    for k in range(p ** d):
        coeffs = []
        kk = k
        for _ in range(d):
            coeffs.append(kk % p)
            kk //= p
        f = tuple(coeffs) + (1,)
        if is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {d} over F_{p}")
