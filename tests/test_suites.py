from __future__ import annotations

import json
import math

import pytest

from borelline.suites import (
    SUITES,
    run_suites,
    suite_lucas,
    suite_pattern_roundtrip,
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
    c = suite_pattern_roundtrip(seed=1)
    assert c["ok"] is True


def test_run_suites_bundles_and_validates():
    bundle = run_suites(["power-sums", "digit-lemma"])
    assert bundle["schema"] == "v1"
    assert [s["suite"] for s in bundle["suites"]] == ["power-sums", "digit-lemma"]
    with pytest.raises(KeyError):
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
