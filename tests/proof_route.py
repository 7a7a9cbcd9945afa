"""The reference routes of the rank-one proof: each step as the lab took
it before it read the step off work it already does.

- f_n by Rabin's test plus a primitivity test of the root, against
  `polyfp.primitive_walk`, which finds and proves it with one walk;
- M^U as the kernel of the stacked g - 1 over the eps generators, against
  the orbits of `linalg.monomial_fixed_rows`;
- the maximal submodule as the kernel of t_s, whose codimension
  `sl2lab.socle_head_report` reads as rank t_s.

All on int codes, as `linalg` computes; `element_route` is the
FieldElement route. The polynomial helpers of Rabin's test, `pow_mod`
among them, are built here on `polyfp`'s ring operations.
"""

from __future__ import annotations

from borelline.linalg import rref
from borelline.polyfp import add, degree, mul, poly_mod
from borelline.sl2lab import HeckeOperators

X = (0, 1)


def neg(f, p):
    return tuple((-c) % p for c in f)


def sub(f, g, p):
    return add(f, neg(g, p), p)


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


def has_primitive_root(f, p) -> bool:
    """True when the class of x generates the units of F_p[x]/(f)."""
    order = p ** degree(f) - 1
    if pow_mod(X, order, f, p) != (1,):
        return False
    return all(pow_mod(X, order // ell, f, p) != (1,) for ell in prime_factors(order))


def least_primitive(p, d):
    """The first monic irreducible f of degree d, in the base-p enumeration
    of lower coefficient vectors, whose root generates the units; the
    candidates with f(0) = 0 are skipped, x dividing them."""
    for k in range(1, p ** d):
        if not k % p:
            continue
        f = tuple(k // p ** i % p for i in range(d)) + (1,)
        if is_irreducible(f, p) and has_primitive_root(f, p):
            return f
    raise RuntimeError(f"no primitive polynomial of degree {d} over F_{p}")


def kernel(codes, rows, ncols):
    """Canonical basis of the right kernel of the given matrix."""
    red = rref(codes, rows)
    if len(red) == ncols:
        return ()
    pivots = {row.index(1): row for row in red}
    neg = codes.neg
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for col, row in pivots.items():
            v[col] = neg[row[free]]
        basis.append(v)
    return rref(codes, basis)


def vec_sub(codes, u, v):
    sub = codes.sub
    return tuple([sub[a][b] for a, b in zip(u, v)])


def fixed_subspace(codes, maps, dim):
    """The canonical code rows of the common fixed space of the maps on
    `dim` coordinates: the kernel of the stacked g - 1."""
    units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    rows = []
    for g in maps:
        rows.extend(zip(*(vec_sub(codes, g.apply(e), e) for e in units)))
    return kernel(codes, rows, dim)


def maximal_rows(module):
    """The canonical code rows of the unique maximal submodule of a module
    with theta nontrivial: ker t_s."""
    return kernel(module.codes, HeckeOperators(module).t_s_rows, module.dim)
