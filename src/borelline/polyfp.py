"""Dense polynomial arithmetic over a prime field F_p, and the one search
for the polynomial of a finite field.

Polynomials are tuples of ints in [0, p), least significant coefficient
first, with no trailing zeros; the zero polynomial is the empty tuple.
`mul_mod` takes either form and returns a coordinate vector instead: the
remainder padded with zeros to the degree of the modulus. Everything here
is exact and deterministic.

The walk. `primitive_walk(p, d, product)` finds the polynomial of F_(p^d)
and proves it. A candidate f is monic of degree d with f(0) != 0, taken in
the base-p order of its lower coefficients; its walk multiplies 1 by the
root class x until the product is 1 again. x is a unit, as f(0) != 0, and
a ring F_p[x]/(f) that is no field has fewer than q - 1 units, q = p^d, so
each walk ends within q - 1 products. The first candidate whose walk takes
exactly q - 1 is the answer: F_p[x]/(f) then has q - 1 units, so it is a
field, f is irreducible and x generates the units, and the walk's q - 1
distinct powers of x are the field's antilog table.
"""

from __future__ import annotations


def trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(f) - 1


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


def poly_mod(f, g, p):
    """The remainder of f on division by g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(trim(f))
    dg = degree(g)
    inv_lead = pow(g[-1], p - 2, p) if p > 2 else g[-1]
    while len(rem) - 1 >= dg:
        shift = len(rem) - 1 - dg
        factor = (rem[-1] * inv_lead) % p
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
        rem = list(trim(rem))
    return tuple(rem)


def mul_mod(a, b, f, p):
    """a b modulo f, as a coordinate vector of length deg f."""
    prod = poly_mod(mul(a, b, p), f, p)
    return prod + (0,) * (len(f) - 1 - len(prod))


def primitive_walk(p, d, product):
    """(f, powers): the first candidate f of degree d whose walk takes
    q - 1 products (see the module docstring), and the coordinate vectors
    of x^0 .. x^(q - 2) modulo f. `product(a, b, f)` is a b modulo f as a
    coordinate vector of length d, `mul_mod` or a memo of it."""
    units = p ** d - 1
    one = (1,) + (0,) * (d - 1)
    for k in range(1, units + 1):
        if not k % p:
            continue
        f = tuple(k // p ** i % p for i in range(d)) + (1,)
        # the root class of f: x, or -f(0) for a degree-one f
        gen = ((-k) % p,) if d == 1 else (0, 1) + one[2:]
        powers, x = [one], product(one, gen, f)
        while x != one and len(powers) < units:
            powers.append(x)
            x = product(x, gen, f)
        if x == one and len(powers) == units:
            return f, powers
    raise RuntimeError(f"no root of a degree-{d} polynomial over F_{p} generates {units} units")
