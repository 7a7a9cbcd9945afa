"""The reference routes of the rank-one proof: each step as the lab took
it before it read the step off work it already does.

- f_n by Rabin's test plus a primitivity test of the root, against
  `polyfp.primitive_walk`, which finds and proves it with one walk;
- M^U as the kernel of the stacked g - 1 over the eps generators, against
  the orbit indicators of their permutations,
  `linalg.permutation_fixed_rows`;
- the socle as the span of the columns of t_s', the maximal submodule as
  the kernel of t_s and the head's dimension as rank t_s, by row
  reduction, against `sl2lab.socle_head_report`, which reads the socle's
  and the head's dimensions off the shape of its level's T;
- the dual of an induced module as a module, Ind theta^-1, whose t_s the
  lab reads off its level's T raised to -m and never builds;
- the intertwiner t_s built from a module's own maps, L and then s' L
  translated by eps, against `sl2lab._InducedLevel._t_s_columns`, which
  writes it as its closed form, (w - t)^m raised entrywise;
- the stability of a subspace by row reduction, each generator applied to
  each row and the image reduced against the rows, against
  `sl2lab.l_submodule`, which reads the stability of its coordinate
  subspace off the generators' columns;
- the Hecke split of a trivial character's module as the images of
  1 + t_s and -t_s by row reduction, against
  `sl2lab.HeckeOperators.idempotent_split`, which reads both off
  t_s = J - I in closed form;
- the Lucas witness search by enumeration, each k(p^(r!) - 1) <= m_s in
  turn held to the digit product, binom(m, n) mod p one entry at a time,
  against `characters.lucas_criterion`, which reads the least witness off
  m_s's digit classes.
- the pattern roundtrip with one truncation and one `extract_pattern` per
  draw, against `suites.suite_pattern_roundtrip`, which reads each
  distinct drawn pattern back once.

All on int codes, as `linalg` computes; `element_route` is the
FieldElement route. The polynomial helpers of Rabin's test, `add` and
`pow_mod` among them, are built here on `polyfp`'s ring operations.
"""

from __future__ import annotations

import random
from math import comb, factorial

from borelline.characters import (
    GaloisTwist,
    LucasSearch,
    RationalPower,
    TwistedDigitSum,
    X0Pattern,
    extract_pattern,
    truncate,
)
from borelline.digits import RelationError
from borelline.linalg import reduce_vector, rref, vec_add
from borelline.polyfp import degree, mul, poly_mod, trim
from borelline.sl2lab import HeckeOperators, InducedModule, Subspace, _raised, _raised_entries
from borelline.suites import ROUNDTRIP_SAMPLES, ROUNDTRIP_SEED, _keep, _record

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
    add, neg = codes.add, codes.neg
    return tuple([add[a][neg[b]] for a, b in zip(u, v)])


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


def hecke_split(module):
    """The images of the projectors 1 + t_s and -t_s of a module with theta
    trivial, as submodules: the span of the columns e_j + t_s e_j and that
    of the columns of t_s, each by row reduction. Their dimensions must sum
    to the module's."""
    codes, cols = module.codes, HeckeOperators(module)._cols
    units = (module.unit_vector(j) for j in range(module.dim))
    y_full = Subspace(module, rref(codes, (vec_add(codes, e, c) for e, c in zip(units, cols))))
    y_empty = Subspace(module, rref(codes, cols))
    if y_full.dim + y_empty.dim != module.dim:
        raise RelationError("projector images do not decompose the module")
    return y_full, y_empty


def t_s_from_maps(module):
    """The columns of t_s: M -> M' of an induced module, or of its level,
    from its own raised maps. The line goes to the sum L of all cells, and
    the cell eps(t) s line to eps'(t) s' L, g' being the dual's g, g with
    its scales inverted."""
    line_sum = module.line_sum_vector(module.a)
    s_image = _raised(module.generators[-1], -1).apply(line_sum)
    return (line_sum,) + tuple(_raised(module.eps(t), -1).apply(s_image)
                               for t in range(module.q))


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


def lucas_digit_product(m, n, p) -> int:
    """binom(m, n) mod p as the product over base-p digits of binom(a, b) mod p
    (Lucas), for a proven prime p and m, n >= 0, unchecked, one entry at a
    time, where `digits.lucas_rows` builds whole rows. It is 0 when n > m or
    at the first digit pair with b > a; a factor with b <= a < p is
    `math.comb(a, b) % p`, which is prime to p. The digits of m above those
    of n contribute binom(a, 0) = 1."""
    if n > m:
        return 0
    out = 1
    while n:
        m, a = divmod(m, p)
        n, b = divmod(n, p)
        if b > a:
            return 0
        out = out * comb(a, b) % p
    return out


def lucas_search(tc, r) -> LucasSearch:
    """The least s in (r, N], and for it the least k >= 1, with
    binom(m_s, k(p^(r!) - 1)) != 0 mod p, by trying each k in turn: up to
    m_s // (p^(r!) - 1) candidates at each s."""
    p = tc.p
    step = p ** factorial(r) - 1
    for s in range(r + 1, tc.level + 1):
        m_s = tc.residue(s)
        for k in range(1, m_s // step + 1):
            if lucas_digit_product(m_s, k * step, p):
                return LucasSearch(True, s, k)
    return LucasSearch(False, None, None)


def _roundtrip_factors(rng, p):
    """A digit pattern whose tower stabilizes under the level cap, as
    (digit value, twist) pairs, drawn as `suites._roundtrip_draw` draws."""
    if p == 2:
        count = 1
    else:
        count = rng.choice((1, 2))
    if count == 1:
        theta = rng.randrange(1, p)
        pos = rng.randrange(6)
        return ((theta, GaloisTwist.from_position(pos, 3)),)
    pos1 = rng.randrange(6)
    pos2 = rng.choice([e for e in range(6) if e % 2 != pos1 % 2])
    t1 = rng.randrange(1, p)
    t2 = rng.randrange(1, p)
    if t1 == 2 and t2 == 2:
        t2 = 1
    return ((t1, GaloisTwist.from_position(pos1, 3)), (t2, GaloisTwist.from_position(pos2, 3)))


def pattern_roundtrip(p_filter=None) -> dict:
    """The `pattern-roundtrip` record with every draw truncated and read
    back on its own."""
    rng = random.Random(ROUNDTRIP_SEED)
    failures = []
    cases = 0
    primes = [p for p in (2, 3) if _keep(p, p_filter)]
    if primes:
        for _ in range(ROUNDTRIP_SAMPLES):
            p = rng.choice(primes)
            factors = _roundtrip_factors(rng, p)
            cases += 1
            tc = truncate(TwistedDigitSum(factors), p, 3)
            pattern = extract_pattern(tc)
            want = {(t, w.residues) for t, w in factors}
            if not isinstance(pattern, X0Pattern):
                failures.append({"p": p, "factors": sorted(want), "got": "no stable pattern"})
                continue
            got = {(t, w.residues) for t, w in pattern.factors}
            if got != want:
                failures.append(
                    {"p": p, "factors": sorted(want), "got": sorted(got)}
                )
    return _record("pattern-roundtrip", cases, failures, seed=ROUNDTRIP_SEED)
