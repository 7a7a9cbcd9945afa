"""The reference routes of the rank-one proof: each step as the lab took
it before it read the step off work it already does.

- f_n by Rabin's test plus a primitivity test of the root, against
  `polyfp.primitive_walk`, which finds and proves it with one walk;
- M^U as the kernel of the stacked g - 1 over the eps generators, against
  the orbits of `linalg.monomial_fixed_rows`;
- the socle as the span of the columns of t_s', the maximal submodule as
  the kernel of t_s and the head's dimension as rank t_s, by row
  reduction, against `sl2lab.socle_head_report`, which reads the socle's
  and the head's dimensions off the shape of its level's T;
- the dual of an induced module as a module, Ind theta^-1, whose t_s the
  lab reads off its level's T raised to -m and never builds;
- the stability of a subspace by row reduction, each generator applied to
  each row and the image reduced against the rows, against
  `sl2lab.l_submodule`, which reads the stability of its coordinate
  subspace off the generators' columns.

All on int codes, as `linalg` computes; `element_route` is the
FieldElement route. The polynomial helpers of Rabin's test, `add` and
`pow_mod` among them, are built here on `polyfp`'s ring operations.
"""

from __future__ import annotations

from borelline.characters import RationalPower, truncate
from borelline.linalg import reduce_vector, rref
from borelline.polyfp import degree, mul, poly_mod, trim
from borelline.sl2lab import HeckeOperators, InducedModule, Subspace, _raised_entries

X = (0, 1)


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


def socle(module):
    """The unique minimal submodule of a module with theta nontrivial: the
    span of the columns of t_s', its level's T raised to -m."""
    codes = module.codes
    return Subspace(module, rref(codes, _raised_entries(codes, module.level.t_s_cols, -module.m)))


def head_dim(module):
    """The dimension of the simple head of a module with theta nontrivial:
    rank t_s, its level's T raised to m."""
    codes = module.codes
    return len(rref(codes, _raised_entries(codes, module.level.t_s_cols, module.m)))


def maximal_rows(module):
    """The canonical code rows of the unique maximal submodule of a module
    with theta nontrivial: ker t_s."""
    return kernel(module.codes, tuple(zip(*HeckeOperators(module)._cols)), module.dim)


def dual(module):
    """The contragredient of an induced module, on the dual basis: g acts
    by (g^-1)^T, the same permutation with every scale inverted, each scale
    being theta of a theta-free argument. So it is Ind theta^-1, or the
    module itself when theta^2 = 1, built once and memoised both ways on the
    modules: dual(dual(module)) is module."""
    if "_dual" not in vars(module):
        p, a, m = module.p, module.a, module.m
        other = module if 2 * m % (module.q - 1) == 0 else InducedModule(
            p, a, truncate(RationalPower(-m), p, a))
        module._dual, other._dual = other, module
    return module._dual


def span_contains(codes, rows, v) -> bool:
    """Whether the span of canonical echelon rows holds the code vector v."""
    return not any(reduce_vector(codes, v, rows))


def is_stable(module, sub) -> bool:
    """Whether each generator maps each row of the subspace into its span."""
    rows = sub.code_rows
    return all(span_contains(module.codes, rows, g.apply(r))
               for g in module.generators for r in rows)
