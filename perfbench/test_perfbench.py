"""Tests of the benchmark itself (not of borelline).

    python3 -m pytest -q perfbench/test_perfbench.py

They start worker processes against the checkout this file sits in.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import (GOLDENS, Session, check_all, end_to_end, latency_samples, quantile,
                 run_stream)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TABLE = json.loads(GOLDENS.read_text(encoding="utf-8"))["goldens"]


def _canon(stream):
    return [[(r.argv, r.files) for r in batch] for batch in stream]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_stream(name):
    rounds = workloads.WORKLOADS[name].rounds
    assert _canon(rounds(7, 2)) == _canon(rounds(7, 2))
    assert _canon(rounds(7, 2)) != _canon(rounds(8, 2))


def test_every_drawable_document_has_a_golden():
    for req in workloads.golden_space():
        assert req.key in GOLDEN_TABLE, req.label()
    for batch in workloads.edge_rounds(3, 2):
        for req in batch:
            if req.expect_stdout not in ("golden", "empty"):
                assert req.expect_stdout in GOLDEN_TABLE


def test_suite_case_table_matches_readme_totals():
    for suite, total in workloads.README_TOTALS.items():
        assert workloads.expected_cases(suite, None) == total
        if suite != "pattern-roundtrip":
            assert sum(workloads.SUITE_CASES[suite].values()) == total


def _small_stream():
    lab = workloads.lab_space()
    pool = workloads.classify_pool()
    return ([lab[(3, 1, 1)][0], lab[(2, 2, 0)][1], lab[(2, 2, 1)][2], lab[(3, 1, 0)][3]]
            + [workloads.verify_request("hecke-split", 2),
               workloads.verify_request("sl2-chain", 2)]
            + pool[:5] + pool[-5:])


def test_traced_counts_repeat_across_fresh_workers():
    requests = _small_stream()
    workload = workloads.WORKLOADS["lab-proof"]
    snaps = []
    for i in range(2):
        trace_dir = ROOT / ".bench_work" / f"test-trace-{i}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        responses, _, stats, _ = run_stream(ROOT, requests, workload, trace_dir)
        failures, correct = check_all(requests, responses, GOLDEN_TABLE)
        assert not failures and correct
        trace = stats["trace"]
        snaps.append((trace["calls"], trace["counts"], trace["mul_cache_entries"],
                      trace["distinct_spins"], trace["rref_insert_useful"]))
        shutil.rmtree(trace_dir)
    assert snaps[0] == snaps[1]
    calls, counts = snaps[0][0], snaps[0][1]
    assert calls["sl2lab.spin"] > 0 and calls["classify.report"] > 0
    assert counts["towers.field_mul"] > 0


def _run_one(req, mode="inproc", deadline=60.0):
    session = Session(ROOT)
    try:
        return session.request(req, mode, deadline)
    finally:
        session.close()


def test_tampered_golden_counts_as_failed():
    req = workloads.classify_pool()[0]
    resp = _run_one(req)
    assert workloads.check_response(req, resp, GOLDEN_TABLE) == ""
    tampered = dict(GOLDEN_TABLE)
    tampered[req.key] = dict(tampered[req.key], stdout="0" * 64)
    assert workloads.check_response(req, resp, tampered) == "stdout differs from the golden"
    failures, correct = check_all([req], [resp], tampered)
    assert len(failures) == 1 and not correct


def test_known_answer_mismatch_counts_as_failed():
    req = workloads.lab_space()[(3, 1, 1)][0]
    resp = _run_one(req)
    doc = json.loads(resp["stdout"])
    doc["socle_head"]["head_dim"] += 1
    forged = dict(resp, stdout=json.dumps(doc, indent=2, sort_keys=True) + "\n")
    goldens = dict(GOLDEN_TABLE)
    goldens[req.key] = {"exit": 0, "stdout": workloads.stdout_digest(forged["stdout"])}
    assert "digit product" in workloads.check_response(req, forged, goldens)


@pytest.mark.parametrize("mode,req", [
    ("proc", workloads.Request(("verify", "--p", str(workloads.BIG_PRIME)))),
    ("inproc", workloads.lab_space()[(5, 1, 2)][0]),
])
def test_missed_deadline_is_failed_with_capped_latency(mode, req):
    resp = _run_one(req, mode, deadline=0.5)
    assert resp["error"] == "deadline"
    assert resp["latency"] == 0.5
    assert workloads.check_response(req, resp, GOLDEN_TABLE) == "deadline"


def test_repeated_sends_are_one_sample_and_deadlines_are_not_scaled():
    a, b, c = (workloads.verify_request(s, 2) for s in ("lucas", "sl2-chain", "hecke-split"))
    requests = [a, b, a, c, a]
    responses = [{"latency": t, "error": e} for t, e in
                 ((1.0, None), (2.0, None), (3.0, None), (5.0, "deadline"), (8.0, None))]
    assert sorted(latency_samples(requests, responses, [0.5] * 5)) == [1.0, 1.5, 5.0]
    stats = {"cpu_s": 4.0, "child_cpu_s": 1.0, "maxrss_kb": 2048, "child_maxrss_kb": 0}
    m = end_to_end(requests, responses, 25.0, stats, [0.2, 0.3, 0.4], 0.5, [0.5] * 5)
    assert m["latency_p50_s"][0] == quantile([1.0, 1.5, 5.0], 0.5)
    assert m["requests_per_s"][0] == 5 / (0.5 * 20.0 + 5.0)
    assert m["cpu_s_per_request"][0] == 0.5 * 5.0 / 5
    assert m["setup_s"][0] == 0.3


def test_worker_reports_calibration_outside_the_request_times():
    requests = _small_stream()[:3]
    _, wall, stats, _ = run_stream(ROOT, requests, workloads.WORKLOADS["lab-proof"])
    cal = stats["calibration"]
    assert len(cal["samples"]) >= 5 and cal["wall_s"] == sum(cal["samples"])
    assert 0 < wall


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lab-proof",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
