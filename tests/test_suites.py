from __future__ import annotations

import json
import math

import pytest

from borelline import digits, polyfp
from borelline.digits import ArgumentError
from borelline.suites import (
    LUCAS_BOUND,
    POWER_SUM_ORDERS,
    SUITES,
    _pascal_rows_mod,
    run_suites,
    suite_lucas,
    suite_pattern_roundtrip,
    suite_power_sums,
    suite_sl2_chain,
    suite_sl2_socle_head,
)


def test_registry_names():
    assert list(SUITES) == [
        "digit-lemma",
        "lucas",
        "power-sums",
        "sl2-relations",
        "sl2-socle-head",
        "sl2-chain",
        "hecke-split",
        "pattern-roundtrip",
    ]


def test_records_are_json_ready():
    rec = suite_sl2_chain()
    text = json.dumps(rec, sort_keys=True)
    assert json.loads(text) == rec


def test_prime_filter_restricts_grid():
    full = suite_sl2_chain()
    only2 = suite_sl2_chain(p_filter=2)
    assert full["cases"] == 10
    assert only2["cases"] == 5
    assert all(r["p"] == 2 for r in only2["records"])


def test_empty_grid_passes_vacuously():
    for name, fn in SUITES.items():
        rec = fn(p_filter=7)
        assert rec["ok"] is True, name
        assert rec["cases"] == 0, name


def test_socle_head_skip_record():
    rec = suite_sl2_socle_head()
    assert rec["skipped"] == [
        {"p": 3, "a": 1, "lambda": 2, "reason": "character trivial at this level"}
    ]


def test_roundtrip_is_seeded_and_reproducible():
    a = suite_pattern_roundtrip()
    b = suite_pattern_roundtrip()
    assert a == b
    assert a["seed"] == 20260814


def test_run_suites_bundles_and_validates():
    bundle = run_suites(["power-sums", "digit-lemma"])
    assert bundle["schema"] == "v1"
    assert [s["suite"] for s in bundle["suites"]] == ["power-sums", "digit-lemma"]
    with pytest.raises(ArgumentError, match=r"unknown suites \['nope'\]; choose from: digit-lemma, "):
        run_suites(["nope"])


def test_hecke_split_fails_an_irreducible_whole_module(monkeypatch):
    # a (1, q) split makes the whole module reducible, so a whole-module
    # verdict of irreducible fails the case
    from borelline import suites
    from borelline.sl2lab import IrreducibilityVerdict

    real = suites.case_verdict

    def whole_claimed_irreducible(module):
        whole, key, section, ok = real(module)
        return IrreducibilityVerdict(True, whole.dimension), key, section, ok

    assert suites.suite_hecke_split(p_filter=2)["ok"] is True
    monkeypatch.setattr(suites, "case_verdict", whole_claimed_irreducible)
    rec = suites.suite_hecke_split(p_filter=2)
    assert rec["ok"] is False and rec["cases"] == len(rec["failures"]) == 2


def test_lucas_suite_asks_one_row_per_m(lucas_calls):
    # one digit-product row per m, compared with its Pascal row at once; no
    # binomial is asked entry by entry
    rec = suite_lucas(p_filter=2)
    assert rec["ok"] is True and rec["cases"] == 513 * 513
    assert lucas_calls["lucas_row"] == 513
    assert lucas_calls["lucas_binom"] == 0


def test_lucas_suite_names_a_wrong_row_entry(monkeypatch):
    from borelline import suites

    real = suites.lucas_row

    def one_entry_off(m, p, width):
        row = real(m, p, width)
        if m == 100:
            row[7] = (row[7] + 1) % p
        return row

    monkeypatch.setattr(suites, "lucas_row", one_entry_off)
    rec = suites.suite_lucas(p_filter=3)
    expected = math.comb(100, 7) % 3
    assert rec["ok"] is False and rec["cases"] == 263169
    assert rec["failures"] == [
        {"p": 3, "m": 100, "n": 7, "got": (expected + 1) % 3, "expected": expected}
    ]


def _pascal_rows_by_index(limit, p):
    """Reference route: rows 0..limit of the Pascal triangle mod p, each
    entry the sum of its two neighbours above, index by index."""
    rows = [[1]]
    for m in range(1, limit + 1):
        prev = rows[-1]
        rows.append([1] + [(prev[i - 1] + prev[i]) % p for i in range(1, m)] + [1])
    return rows


@pytest.mark.parametrize("p", (2, 3, 5, 7, 127))
def test_pascal_rows_by_whole_row_addition_match_the_index_route(p):
    # 127 is the largest prime whose neighbour sums, below 2p, fit a byte
    rows = _pascal_rows_mod(LUCAS_BOUND, p)
    reference = _pascal_rows_by_index(LUCAS_BOUND, p)
    assert len(rows) == len(reference) == LUCAS_BOUND + 1
    for m, (row, ref) in enumerate(zip(rows, reference)):
        assert list(row) == ref + [0] * (LUCAS_BOUND - m)


def test_pascal_rows_refuse_a_prime_past_a_byte():
    with pytest.raises(ArgumentError, match="p < 128"):
        _pascal_rows_mod(4, 131)


def test_power_sums_suite_searches_one_modulus_per_field(monkeypatch):
    # one least_irreducible search per order of POWER_SUM_ORDERS; a search
    # per (q, k, include_zero) oracle call made 162
    searches = []
    real = polyfp.least_irreducible

    def counting(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(polyfp, "least_irreducible", counting)
    digits._field_modulus.cache_clear()
    rec = suite_power_sums()
    assert rec["ok"] is True and rec["cases"] == 162
    assert sorted(searches) == [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def test_power_sums_oracle_makes_one_product_per_element_and_power(polyfp_mul_calls):
    # one pass per field walks each element's powers upward in k, one product
    # per step: q 3(q - 1) products per field. A pow_mod per (q, k,
    # include_zero) made 931 pow_mod calls and 4 999 products in all.
    suite_power_sums()
    del polyfp_mul_calls[:]
    assert suite_power_sums()["ok"] is True
    assert len(polyfp_mul_calls) == sum(q * 3 * (q - 1) for q in POWER_SUM_ORDERS) == 504
