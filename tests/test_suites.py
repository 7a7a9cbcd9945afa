from __future__ import annotations

import json
import math

import pytest

from borelline import polyfp
from borelline.digits import ArgumentError, _pascal_rows_mod
from borelline.linalg import rref
from borelline.suites import (
    LUCAS_BOUND,
    POWER_SUM_ORDERS,
    SUITES,
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


def test_hecke_split_fails_an_irreducible_whole_module(monkeypatch, capsys):
    # a split into a zero piece and the whole module makes the whole module
    # a nonzero projector image, simple, so the case fails by its dims, in
    # the suite and in lab alike: both read case_verdict's failed checks,
    # and name only the check that fails
    from borelline import cli, sl2lab, suites
    from borelline.sl2lab import Subspace

    def irreducible_split(self):
        module = self.module
        whole = rref(module.codes, [module.unit_vector(i) for i in range(module.dim)])
        return Subspace(module, ()), Subspace(module, whole)

    assert suites.suite_hecke_split(p_filter=2)["ok"] is True
    monkeypatch.setattr(sl2lab.HeckeOperators, "idempotent_split", irreducible_split)
    rec = suites.suite_hecke_split(p_filter=2)
    assert rec["ok"] is False and rec["cases"] == 2
    assert rec["failures"] == [{"p": 2, "a": a, "dims": [0, q + 1]} for a, q in ((1, 2), (2, 4))]
    assert cli.main(["lab", "--p", "2", "--a", "1", "--power", "0"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["ok"] is False and doc["whole_irreducible"]["irreducible"] is True
    assert doc["hecke"] == {"dims": [0, 3], "irreducible": [False, True], "proof": [True, True]}
    assert captured.err == "verification: dims: [0, 3]\n"


def test_lucas_suite_asks_one_row_per_m(lucas_calls):
    # one digit-product triangle per prime, compared with the Pascal triangle
    # a row at a time; no row or binomial is asked on its own
    rec = suite_lucas(p_filter=2)
    assert rec["ok"] is True and rec["cases"] == 513 * 513
    assert lucas_calls["lucas_rows"] == 1
    assert lucas_calls["_lucas_digit_product"] == 0


def _lucas_failures_with(monkeypatch, wrong):
    """suite_lucas at p = 3 with entry (100, 7) of the digit-product rows
    replaced by wrong(entry), row 100 becoming a list; the failures,
    checked to name that entry."""
    from borelline import suites

    real = suites.lucas_rows

    def one_entry_off(limit, p):
        rows = real(limit, p)
        row = list(rows[100])
        row[7] = wrong(row[7])
        rows[100] = row
        return rows

    monkeypatch.setattr(suites, "lucas_rows", one_entry_off)
    rec = suites.suite_lucas(p_filter=3)
    assert rec["ok"] is False and rec["cases"] == 263169
    return rec["failures"]


def test_lucas_suite_names_a_wrong_row_entry(monkeypatch):
    expected = math.comb(100, 7) % 3
    assert _lucas_failures_with(monkeypatch, lambda entry: (entry + 1) % 3) == [
        {"p": 3, "m": 100, "n": 7, "got": (expected + 1) % 3, "expected": expected}
    ]


@pytest.mark.parametrize("wrong", (
    lambda entry: entry + 256,
    lambda entry: entry - 3,
    lambda entry: entry + 0.5,
), ids=("above-a-byte", "negative", "not-an-int"))
def test_lucas_suite_names_an_entry_no_byte_holds(monkeypatch, wrong):
    # a row holding such an entry is no bytes; it compares unequal to the
    # Pascal row without raising, and the suite lists it entry by entry
    expected = math.comb(100, 7) % 3
    assert _lucas_failures_with(monkeypatch, wrong) == [
        {"p": 3, "m": 100, "n": 7, "got": wrong(expected), "expected": expected}
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
    # one primitive_walk per order of POWER_SUM_ORDERS, as there was one
    # least_irreducible search before the walk replaced Rabin's test; a
    # search per (q, k, include_zero) oracle call made 162
    searches = []
    real = polyfp.primitive_walk

    def counting(p, d, product):
        searches.append((p, d))
        return real(p, d, product)

    monkeypatch.setattr(polyfp, "primitive_walk", counting)
    rec = suite_power_sums()
    assert rec["ok"] is True and rec["cases"] == 162
    assert sorted(searches) == [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def test_power_sums_oracle_makes_one_product_per_element_and_power(monkeypatch,
                                                                   polyfp_mul_calls):
    # one product table per field, q^2 products, and the powers of each
    # element walked upward in k by reads of it: 199 products in all. A
    # product per element and power, q 3(q - 1) per field, made 504; a
    # pow_mod per (q, k, include_zero) made 931 pow_mod calls and 4 999
    # products. The products of the modulus walks, one per field, are
    # counted apart, as those of the least_irreducible searches were.
    in_searches = []
    real = polyfp.primitive_walk

    def searching(*args):
        before = len(polyfp_mul_calls)
        found = real(*args)
        in_searches.append(len(polyfp_mul_calls) - before)
        return found

    monkeypatch.setattr(polyfp, "primitive_walk", searching)
    assert suite_power_sums()["ok"] is True
    assert len(in_searches) == len(POWER_SUM_ORDERS)
    oracle = len(polyfp_mul_calls) - sum(in_searches)
    assert oracle == sum(q * q for q in POWER_SUM_ORDERS) == 199


def test_power_sums_suite_filters_each_order_by_its_prime(monkeypatch):
    # p is split off q by prime_power_base: F_25 is kept by p = 5, where a
    # rule listing the powers of 2 and 3 took q = 25 for its own prime
    from borelline import suites

    monkeypatch.setattr(suites, "POWER_SUM_ORDERS", (2, 4, 25))
    assert suite_power_sums(p_filter=25)["cases"] == 0
    rec = suite_power_sums(p_filter=5)
    assert rec["ok"] is True and rec["cases"] == 2 * (3 * 24 + 1)
    assert suite_power_sums(p_filter=2)["cases"] == 2 * (3 * 1 + 1) + 2 * (3 * 3 + 1)


def test_sl2_relations_suite_names_a_submodule_of_the_wrong_dimension(monkeypatch):
    # the suite expects l_submodule to have Fine's dimension prod(d + 1) over
    # the base-p digits d of n; the whole module, also a submodule, has it
    # only where that product is n + 1: at p = 3 not for n = 3, 4, 6, 7
    from borelline import suites
    from borelline.sl2lab import Subspace

    def whole_module(cm):
        return Subspace(cm, rref(cm.codes, [cm.unit_vector(i) for i in range(cm.dim)]))

    assert suites.suite_sl2_relations(p_filter=3)["ok"] is True
    monkeypatch.setattr(suites, "l_submodule", whole_module)
    rec = suites.suite_sl2_relations(p_filter=3)
    assert rec["cases"] == 13
    assert rec["failures"] == [
        {"p": 3, "a": 1, "n": n, "dim": n + 1, "expected": expected}
        for n, expected in ((3, 2), (4, 4), (6, 3), (7, 6))
    ]
