"""Named verification suites over fixed grids.

Each suite runs an exhaustive check on a small parameter grid and returns a
JSON-ready record: name, case count, failures with enough data to rerun by
hand, and skips where a hypothesis of the check fails. The same records back
the command-line verifier and the acceptance tests, so a passing suite here
is the same evidence either way.

Every suite takes an optional prime filter; a filter that empties the grid
passes vacuously with zero cases.
"""

from __future__ import annotations

import math
import random

from .characters import (
    GaloisTwist,
    RationalPower,
    TwistedDigitSum,
    extract_pattern,
    truncate,
    X0Pattern,
)
from .digits import (
    ArgumentError,
    _fine_dim,
    _pascal_rows_mod,
    check_digit_lemma,
    lucas_rows,
    power_sum,
    power_sums_direct,
    prime_power_base,
)
from .sl2lab import (
    InducedModule,
    CostandardModule,
    RelationError,
    case_verdict,
    l_submodule,
    trivial_character,
    verify_irreducibility_chain,
)

ROUNDTRIP_SEED = 20260814
ROUNDTRIP_SAMPLES = 200

LEMMA_PRIMES = (2, 3)
LUCAS_PRIMES = (2, 3, 5)
LUCAS_BOUND = 512
POWER_SUM_ORDERS = (2, 3, 4, 5, 8, 9)
SL2_GRID = ((2, 1), (3, 1), (2, 2))
SL2_CHARACTER_POWERS = (0, 1, -1, 2)
SOCLE_HEAD_GRID = ((2, 2), (3, 1))
SOCLE_HEAD_POWERS = (1, 2, -1)
CHAIN_PRIMES = (2, 3)
CHAIN_POWERS = (-2, -1, 0, 1, 2)
COSTANDARD_WEIGHT_BOUND = 8


def _record(name, cases, failures, skipped=None, **extra):
    out = {
        "suite": name,
        "ok": not failures,
        "cases": cases,
        "failures": failures,
    }
    if skipped is not None:
        out["skipped"] = skipped
    out.update(extra)
    return out


def _keep(p, p_filter) -> bool:
    return p_filter is None or p == p_filter


def suite_digit_lemma(p_filter=None) -> dict:
    """All clauses of the digit-class lemma on a full small grid."""
    failures = []
    cases = 0
    for p in LEMMA_PRIMES:
        if not _keep(p, p_filter):
            continue
        r = 2
        q = p ** r
        for m in range(q):
            for m_prime in range(m, q ** 3 + 1, q - 1):
                cases += 1
                verdict = check_digit_lemma(m, m_prime, p, r)
                if not verdict.all_hold:
                    failures.append({"p": p, "r": r, "m": m, "m_prime": m_prime})
    return _record("digit-lemma", cases, failures)


def suite_lucas(p_filter=None) -> dict:
    """Digit-product binomials against the additive Pascal recurrence.

    Both sides are byte triangles of rows 0..LUCAS_BOUND, compared a row at
    a time: `lucas_rows` builds row m from row m // p by Lucas's theorem
    (so p < 256), `_pascal_rows_mod` row m from row m - 1 by addition (so
    p < 128). A row that differs is listed entry by entry."""
    failures = []
    cases = 0
    anchors = 0
    for p in LUCAS_PRIMES:
        if not _keep(p, p_filter):
            continue
        rows = _pascal_rows_mod(LUCAS_BOUND, p)
        got_rows = lucas_rows(LUCAS_BOUND, p)
        for m in range(LUCAS_BOUND + 1):
            cases += LUCAS_BOUND + 1
            if got_rows[m] == rows[m]:
                continue
            for n, (got, expected) in enumerate(zip(got_rows[m], rows[m])):
                if got != expected:
                    failures.append({"p": p, "m": m, "n": n, "got": got, "expected": expected})
        # anchor the recurrence itself to the factorial formula on a sample
        for m in range(0, LUCAS_BOUND + 1, 61):
            for n in range(0, m + 1, 17):
                anchors += 1
                if rows[m][n] != math.comb(m, n) % p:
                    failures.append({"p": p, "m": m, "n": n, "anchor": True})
    return _record("lucas", cases, failures, anchors=anchors)


def suite_power_sums(p_filter=None) -> dict:
    """Closed-form power sums against direct summation over each field."""
    failures = []
    cases = 0
    for q in POWER_SUM_ORDERS:
        p, _ = prime_power_base(q)
        if not _keep(p, p_filter):
            continue
        k_max = 3 * (q - 1)
        sums = power_sums_direct(q, k_max)
        for k in range(k_max + 1):
            for include_zero in (False, True):
                cases += 1
                closed = power_sum(q, k, include_zero)
                direct = sums[include_zero][k]
                if closed != direct:
                    failures.append(
                        {"q": q, "k": k, "include_zero": include_zero,
                         "closed": closed, "direct": direct}
                    )
    return _record("power-sums", cases, failures)


def _sl2_characters(p):
    yield "trivial", trivial_character(p, 2)
    for lam in SL2_CHARACTER_POWERS[1:]:
        yield f"t^{lam}", truncate(RationalPower(lam), p, 2)


def suite_sl2_relations(p_filter=None) -> dict:
    """Construction-time relation checks, once per level, of the induced module at its
    first character and of the natural module at its first costandard module, which
    each costandard module is checked against as Sym^n; a failed level is not kept,
    so each module built on it reports it."""
    failures = []
    cases = 0
    for p, a in SL2_GRID:
        if not _keep(p, p_filter):
            continue
        for label, theta in _sl2_characters(p):
            cases += 1
            try:
                InducedModule(p, a, theta)
            except RelationError as err:
                failures.append({"p": p, "a": a, "theta": label, "error": str(err)})
        for n in range(COSTANDARD_WEIGHT_BOUND + 1):
            cases += 1
            try:
                cm = CostandardModule(n, p, coeff_level=a)
                sub = l_submodule(cm)
                expected = _fine_dim(n, p)
                if sub.dim != expected:
                    failures.append(
                        {"p": p, "a": a, "n": n, "dim": sub.dim, "expected": expected}
                    )
            except RelationError as err:
                failures.append({"p": p, "a": a, "n": n, "error": str(err)})
    return _record("sl2-relations", cases, failures)


def _failed_checks(p, a, theta) -> dict:
    """The checks `case_verdict` finds failed on Ind theta at (p, a), or
    {"error": ...} naming the relation that failed."""
    try:
        return case_verdict(InducedModule(p, a, theta))[3]
    except RelationError as err:
        return {"error": str(err)}


def suite_sl2_socle_head(p_filter=None) -> dict:
    """Socle, maximal submodule and head by `case_verdict` on the nontrivial
    grid; each failure names the failed checks, or the relation that failed.

    Grid points where the character is trivial at the group level are
    recorded as skipped: uniqueness genuinely fails there.
    """
    failures = []
    skipped = []
    cases = 0
    for p, a in SOCLE_HEAD_GRID:
        if not _keep(p, p_filter):
            continue
        for lam in SOCLE_HEAD_POWERS:
            theta = truncate(RationalPower(lam), p, max(a, 2))
            m_a = theta.residue(a)
            if m_a == 0:
                skipped.append(
                    {"p": p, "a": a, "lambda": lam,
                     "reason": "character trivial at this level"}
                )
                continue
            cases += 1
            failed = _failed_checks(p, a, theta)
            if failed:
                failures.append({"p": p, "a": a, "lambda": lam, **failed})
    return _record("sl2-socle-head", cases, failures, skipped)


def suite_sl2_chain(p_filter=None) -> dict:
    """Span equality versus the costandard image, level pair (1, 2)."""
    failures = []
    cases = 0
    records = []
    for p in CHAIN_PRIMES:
        if not _keep(p, p_filter):
            continue
        for lam in CHAIN_POWERS:
            cases += 1
            theta = truncate(RationalPower(lam), p, 2)
            rec = verify_irreducibility_chain(theta, 1, 2)
            records.append(
                {"p": p, "lambda": lam, "m_2": rec.m_t,
                 "span_is_whole": rec.span_is_whole, "pi_nonzero": rec.pi_nonzero}
            )
            if not rec.agree:
                failures.append(records[-1])
    return _record("sl2-chain", cases, failures, records=records)


def suite_hecke_split(p_filter=None) -> dict:
    """The Hecke split of each trivial-character module by `case_verdict`,
    read off t_s; a failure names the failed check, `dims`, or the relation
    that failed."""
    failures = []
    cases = 0
    for p, a in SL2_GRID:
        if not _keep(p, p_filter):
            continue
        cases += 1
        failed = _failed_checks(p, a, trivial_character(p, a))
        if failed:
            failures.append({"p": p, "a": a, **failed})
    return _record("hecke-split", cases, failures)


def _roundtrip_factors(rng, p):
    """A digit pattern whose tower stabilizes under the level cap.

    Single factors always stabilize; two factors need positions in distinct
    classes mod 2 and, for p = 3, digit values not both 2 (else the level-2
    residue wraps to zero and the window never settles). Wider patterns
    cannot stabilize below level 4, so they are out of reach here.
    """
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


def suite_pattern_roundtrip(p_filter=None) -> dict:
    """Truncate a random stable digit pattern, then read it back exactly."""
    rng = random.Random(ROUNDTRIP_SEED)
    failures = []
    cases = 0
    primes = [p for p in (2, 3) if _keep(p, p_filter)]
    if primes:
        for _ in range(ROUNDTRIP_SAMPLES):
            p = rng.choice(primes)
            factors = _roundtrip_factors(rng, p)
            cases += 1
            sc = TwistedDigitSum(factors)
            tc = truncate(sc, p, 3)
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


SUITES = {
    "digit-lemma": suite_digit_lemma,
    "lucas": suite_lucas,
    "power-sums": suite_power_sums,
    "sl2-relations": suite_sl2_relations,
    "sl2-socle-head": suite_sl2_socle_head,
    "sl2-chain": suite_sl2_chain,
    "hecke-split": suite_hecke_split,
    "pattern-roundtrip": suite_pattern_roundtrip,
}


def run_suites(names=None, p_filter=None) -> dict:
    """Run the named suites (all by default) and bundle the records."""
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ArgumentError(f"unknown suites {unknown}; choose from: {', '.join(SUITES)}")
    results = [SUITES[n](p_filter=p_filter) for n in names]
    return {
        "schema": "v1",
        "ok": all(r["ok"] for r in results),
        "suites": results,
    }
