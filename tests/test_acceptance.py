"""Acceptance checks: one test per contract criterion, exact assertions only.

Each test prints exactly one line, `criterion NN PASS/FAIL: ...`, and fails
hard on any deviation. Grids and tolerances are fixed; timings assert the
stated budget for the machine class this package targets.
"""

from __future__ import annotations

import time

from borelline.characters import RationalPower
from borelline.classify import TorusCharacter, report
from borelline.suites import (
    suite_digit_lemma,
    suite_hecke_split,
    suite_lucas,
    suite_pattern_roundtrip,
    suite_power_sums,
    suite_sl2_chain,
    suite_sl2_relations,
    suite_sl2_socle_head,
)
from borelline.weyl import RootDatum
from weyl_route import CLASSICAL_DEGREES, degree_product, poincare_coefficients


def _finish(num, ok, detail, elapsed, budget):
    ok = ok and elapsed < budget
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.2f}s < {budget:.0f}s)"
    print(line)
    assert ok, line


def test_criterion_01_carry_free_binomials():
    t0 = time.time()
    rec = suite_lucas()
    ok = rec["ok"] and rec["cases"] == 3 * 513 * 513 and rec["anchors"] > 0
    _finish(1, ok, f"digit-product binomials match the Pascal recurrence, {rec['cases']} cases", time.time() - t0, 5)


def test_criterion_02_power_sums():
    t0 = time.time()
    rec = suite_power_sums()
    ok = rec["ok"] and rec["cases"] == 162
    _finish(2, ok, f"closed-form power sums equal direct field sums, {rec['cases']} cases", time.time() - t0, 1)


def test_criterion_03_digit_class_lemma():
    t0 = time.time()
    rec = suite_digit_lemma()
    ok = rec["ok"] and rec["cases"] == 907
    _finish(3, ok, f"digit-class comparison lemma holds on the full grid, {rec['cases']} cases", time.time() - t0, 10)


def test_criterion_04_pattern_roundtrip():
    t0 = time.time()
    rec = suite_pattern_roundtrip()
    ok = rec["ok"] and rec["cases"] == 200
    _finish(4, ok, f"stable digit patterns survive truncate/extract, {rec['cases']} seeded samples", time.time() - t0, 5)


def test_criterion_05_module_relations():
    t0 = time.time()
    rec = suite_sl2_relations()
    ok = rec["ok"] and rec["cases"] == 39
    _finish(5, ok, f"generator relations hold in induced and costandard models, {rec['cases']} modules", time.time() - t0, 10)


def test_criterion_06_hecke_split():
    t0 = time.time()
    rec = suite_hecke_split()
    ok = rec["ok"] and rec["cases"] == 3
    _finish(6, ok, "idempotent split gives dims (1, q), both simple, on all grid fields", time.time() - t0, 30)


def test_criterion_07_socle_and_head():
    t0 = time.time()
    rec = suite_sl2_socle_head()
    skipped = rec.get("skipped", [])
    ok = (
        rec["ok"]
        and rec["cases"] == 5
        and skipped == [{"p": 3, "a": 1, "lambda": 2,
                        "reason": "character trivial at this level"}]
    )
    _finish(7, ok, "unique socle and head of digit-product dimension, one recorded skip", time.time() - t0, 120)


def test_criterion_08_level_bridge():
    t0 = time.time()
    rec = suite_sl2_chain()
    ok = rec["ok"] and rec["cases"] == 10
    ok = ok and all(r["span_is_whole"] == r["pi_nonzero"] for r in rec["records"])
    _finish(8, ok, "span equality agrees with the costandard image on all 10 cases", time.time() - t0, 120)


def test_criterion_09_rank_one_dichotomy():
    t0 = time.time()
    a1 = RootDatum(((2,),))
    ok = True
    for p in (2, 3):
        for lam in range(-16, 17):
            rep = report(a1, TorusCharacter(a1, (RationalPower(lam),)), p)
            ok = ok and rep.finite_dimensional == (lam >= 0)
    _finish(9, ok, "rank-one modules are finite-dimensional exactly for nonnegative powers", time.time() - t0, 1)


def test_criterion_10_weyl_combinatorics():
    t0 = time.time()
    data = {
        "A1": RootDatum(((2,),)),
        "A2": RootDatum(((2, -1), (-1, 2))),
        "B2": RootDatum(((2, -1), (-2, 2))),
        "A3": RootDatum(((2, -1, 0), (-1, 2, -1), (0, -1, 2))),
    }
    ok = True
    for name, datum in data.items():
        ok = ok and poincare_coefficients(datum.cartan) == degree_product(CLASSICAL_DEGREES[name])
    _finish(10, ok, "length generating functions match the degree products for A1, A2, B2, A3", time.time() - t0, 1)
