from __future__ import annotations

import argparse
import collections
import functools
import json
import random
import subprocess
import sys
from math import factorial
from types import SimpleNamespace

import pytest

from borelline import __version__, characters, cli, digits, towers
from borelline.characters import RationalPower, truncate
from borelline.cli import _document_text, main
from borelline.digits import ArgumentError
from borelline.sl2lab import CostandardModule, InducedModule, trivial_character
from borelline.suites import SUITES
from borelline.towers import CapabilityError, make_tower


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_parser(monkeypatch):
    """cli.main as a new process finds it: the next call builds the parser."""
    monkeypatch.setattr(cli, "_parser", None)


def test_verify_single_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "power-sums")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "v1"
    assert doc["ok"] is True
    assert [s["suite"] for s in doc["suites"]] == ["power-sums"]
    assert doc["suites"][0]["cases"] == 162


def test_verify_prime_filter_and_vacuous_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "digit-lemma", "--p", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["suites"][0]["cases"] == 0


def test_verify_output_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "pattern-roundtrip", "sl2-chain")
    _, out2, _ = run_cli(capsys, "verify", "pattern-roundtrip", "sl2-chain")
    assert out1 == out2


def test_verify_unknown_suite_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "no-such-suite")
    assert code == 2
    assert out == ""
    assert "unknown suites" in err


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "power-sums", "--out", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("argv", (
    ["verify", "power-sums", "--p", "3"],
    ["lab", "--p", "2", "--a", "1", "--power", "0"],
), ids=("verify", "lab"))
@pytest.mark.parametrize("target", ("missing-parent", "directory"))
def test_an_out_file_that_cannot_be_opened_is_usage_error(tmp_path, capsys, argv, target):
    out = tmp_path / "absent" / "x.json" if target == "missing-parent" else tmp_path
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.endswith(f"{str(out)!r}\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "absent").exists()


def test_classify_command(tmp_path, capsys):
    payload = {
        "cartan": [[2, -1], [-1, 2]],
        "restrictions": {
            "1": {"kind": "rational", "lambda": 1},
            "2": {"kind": "rational", "lambda": 2},
        },
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", str(path), "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["J"] == [1, 2]
    assert doc["finite_dimensional"] is True
    assert doc["schema"] == "v1"


def test_not_ok_document_exits_one(capsys, monkeypatch):
    import borelline.cli as cli

    def failing(names, p_filter=None):
        return {"schema": "v1", "ok": False, "suites": []}

    monkeypatch.setattr(cli, "run_suites", failing)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_relation_error_exits_one(capsys, monkeypatch):
    import borelline.cli as cli

    def broken(args):
        raise cli.RelationError("closed form and direct summation disagree")

    monkeypatch.setattr(cli, "_cmd_verify", broken)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert out == ""
    assert err.startswith("verification:")


def test_classify_invariant_failure_exits_one(tmp_path, capsys, monkeypatch):
    from borelline import classify

    # trivial restrictions outside the bounded support break an invariant
    monkeypatch.setattr(classify, "trivial_support", lambda tchar: frozenset({99}))
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps({"cartan": [[2]], "restrictions": {"1": {"kind": "trivial"}}}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "classify", str(path), "--p", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("verification:")
    assert "Traceback" not in err


def test_classify_bad_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps({"cartan": [[2]], "restrictions": {}}), encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "classify", str(path), "--p", "2")
    assert code == 2
    assert "error:" in err


def test_classify_nonprime_is_usage_error(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps({"cartan": [[2]], "restrictions": {"1": {"kind": "trivial"}}}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "classify", str(path), "--p", "6")
    assert code == 2
    assert "prime" in err


def test_level_past_tower_cap_is_capability_error(tmp_path, capsys):
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"kind": "rational", "lambda": 1}), encoding="utf-8")
    code, _, err = run_cli(capsys, "char-inspect", str(path), "--p", "2", "--level", "4")
    assert code == 3
    assert "capability:" in err
    assert "tower cap" in err


def test_classify_power_past_level_resolution_is_capability_error(tmp_path, capsys):
    # 2^6 has its top digit at position 6 >= 3!, which level 3 cannot resolve
    path = tmp_path / "in.json"
    path.write_text(
        json.dumps({"cartan": [[2]], "restrictions": {"1": {"kind": "rational", "lambda": 64}}}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "classify", str(path), "--p", "2", "--level", "3")
    assert (code, out) == (3, "")
    assert err == "capability: index 1: digit positions exceed level-3 resolution\n"


def test_char_inspect_command(tmp_path, capsys):
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"kind": "rational", "lambda": -1}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "char-inspect", str(path), "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["residues"] == [0, 2, 62]
    assert doc["digit_sums"] == [0, 1, 5]
    assert doc["bounded"] is False
    assert doc["pattern"] is None
    assert doc["no_pattern"]["reason"] == "digit sum still growing"
    assert {"r": 1, "found": True, "s": 2, "k": 2} in doc["lucas"]


def test_char_inspect_stable_pattern(tmp_path, capsys):
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"kind": "rational", "lambda": 1}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "char-inspect", str(path), "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["bounded"] is True
    assert doc["pattern"] == {
        "stabilized_at": 2,
        "level": 3,
        "factors": [{"digit": 1, "twist": [0, 0, 0]}],
    }
    assert doc["no_pattern"] is None


def test_lab_trivial_character(capsys):
    code, out, _ = run_cli(capsys, "lab", "--p", "2", "--a", "1", "--power", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["m"] == 0
    assert doc["hecke"]["dims"] == [1, 2]
    assert doc["hecke"]["irreducible"] == [True, True]
    assert doc["whole_irreducible"]["irreducible"] is False


def test_lab_nontrivial_character(capsys):
    code, out, _ = run_cli(capsys, "lab", "--p", "3", "--a", "1", "--power", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["socle_head"]["head_dim"] == 2
    assert doc["socle_head"]["socle_dim"] == 2


def test_lab_requires_exactly_one_character(capsys):
    code, _, err = run_cli(capsys, "lab", "--p", "2", "--a", "1")
    assert code == 2
    assert "exactly one" in err


def test_lab_capability_exit(capsys, polyfp_mul_calls):
    # q = 11^2 = 121 is past the desk-scale cap; the module is refused
    # before any tower is built for it
    code, out, err = run_cli(capsys, "lab", "--p", "11", "--a", "2", "--power", "0")
    assert code == 3
    assert out == ""
    assert "capability:" in err
    assert "121 exceeds the desk-scale cap 64" in err
    assert polyfp_mul_calls == []


def test_lab_nontrivial_character_past_the_cap_refused_before_building(capsys, polyfp_mul_calls):
    code, out, err = run_cli(capsys, "lab", "--p", "67", "--a", "1", "--power", "1")
    assert code == 3
    assert out == ""
    assert "capability:" in err
    assert "67 exceeds the desk-scale cap 64" in err
    assert polyfp_mul_calls == []


@pytest.mark.parametrize("argv, products, towers", (
    (("verify",), 265, 2),
    (("lab", "--p", "2", "--a", "3", "--power", "1"), 69, 1),
    (("lab", "--p", "2", "--a", "2", "--power", "1"), 5, 1),
    (("lab", "--p", "5", "--a", "1", "--power", "1"), 6, 1),
), ids=("verify", "lab-2-3-1", "lab-2-2-1", "lab-5-1-1"))
def test_commands_build_only_the_levels_they_use(capsys, fresh_caches, polyfp_mul_calls,
                                                  argv, products, towers):
    # one tower per prime, each level's f_n found on its first use by the
    # walk that builds its tables: verify builds the towers over 2 and 3
    # only, and lab at q = 64 never builds level 2. Each walk rejected on
    # the way costs the order of its root: 6 at (2, 3), for 1 + x^6; 2 at
    # (2, 2), for 1 + x^2; 2 at (5, 1), for x + 1. Searching f_n by Rabin's
    # test and a primitivity test before a walk of q - 1 products took 676,
    # 114, 20 and 28. With a tower per (p, a), each modulus searched when
    # the tower was made, verify and lab at (2, 3) took 744 and 168
    # products over 4 and 1 towers; with Rabin's test also run on the
    # candidates x divides, 715 and 130. verify took 602 while the power-sum
    # oracle still searched its six moduli by Rabin's test, before
    # polyfp.primitive_walk served it as it serves the towers, and 570 while
    # the oracle made a product per element and power, 504, where its
    # product tables now make 199, q^2 per field.
    assert run_cli(capsys, *argv)[0] == 0
    assert len(polyfp_mul_calls) == products
    assert make_tower.cache_info().currsize == towers


def test_verify_sl2_chain_makes_the_traced_field_operations(monkeypatch, capsys, fresh_caches):
    # the benchmark tracer counts FieldElement operators in these groups, and
    # sl2-chain is the one suite that makes them: each embedding's root
    # search evaluates f_m at the subfield's points. An operator that called
    # another counted one, as __add__ testing its operands by is_zero would,
    # changes a count
    groups = {"__mul__": "mul", "__add__": "addsub", "__sub__": "addsub",
              "__neg__": "addsub", "inverse": "inv", "is_zero": "is_zero"}
    counts = dict.fromkeys(groups.values(), 0)

    def counting(group, real):
        def op(*args):
            counts[group] += 1
            return real(*args)
        return op

    for name, group in groups.items():
        monkeypatch.setattr(towers.FieldElement, name,
                            counting(group, getattr(towers.FieldElement, name)))
    assert run_cli(capsys, "verify", "sl2-chain")[0] == 0
    assert counts == {"mul": 10, "addsub": 10, "inv": 0, "is_zero": 5}


@pytest.mark.parametrize("p, a", ((67, 1), (2, 4)))
def test_lab_refusals_build_no_tower(capsys, p, a):
    # the group-order cap and the tower cap both refuse before make_tower runs
    before = make_tower.cache_info()
    code, out, _ = run_cli(capsys, "lab", "--p", str(p), "--a", str(a), "--power", "1")
    assert (code, out) == (3, "")
    assert make_tower.cache_info() == before


@pytest.fixture
def code_table_builds(monkeypatch):
    """A list whose length counts the levels whose code tables are built
    from now on."""
    builds = []
    real = towers.Codes._tabulate

    def counting(codes):
        builds.append(None)
        real(codes)

    monkeypatch.setattr(towers.Codes, "_tabulate", counting)
    return builds


@pytest.mark.parametrize("argv, doc, code, builds", (
    (("classify", "--p", "3"), {"cartan": [[2, -1], [-1, 2]], "restrictions": {
        "1": {"kind": "rational", "lambda": 1}, "2": {"kind": "rational", "lambda": 2}}}, 0, 0),
    (("char-inspect", "--p", "3", "--level", "2"), {"kind": "rational", "lambda": 5}, 0, 0),
    (("lab", "--p", "67", "--a", "1", "--power", "1"), None, 3, 0),
    (("lab", "--p", "11", "--a", "2", "--power", "1"), None, 3, 0),
    (("lab", "--p", "2", "--a", "2", "--power", "1"), None, 0, 1),
), ids=("classify", "char-inspect", "lab-67-1", "lab-11-2", "lab-2-2"))
def test_only_a_module_builds_a_code_table(tmp_path, capsys, fresh_caches, code_table_builds,
                                           argv, doc, code, builds):
    # the code tables serve linear algebra alone: a request that builds no
    # module builds none, and a module builds the one of its level
    if doc is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = (argv[0], str(path), *argv[1:])
    assert run_cli(capsys, *argv)[0] == code
    assert len(code_table_builds) == builds


def test_lab_level_past_tower_cap_exits_before_truncating(capsys):
    code, out, err = run_cli(capsys, "lab", "--p", "3", "--a", "10", "--power", "1")
    assert code == 3
    assert out == ""
    assert "capability:" in err and "Traceback" not in err


LEVEL_CALLS = {
    "FieldTower": lambda level: make_tower(2).scalar(1, level),
    "truncate": lambda level: truncate(RationalPower(1), 2, level),
    "InducedModule": lambda level: InducedModule(2, level, trivial_character(2, max(level, 1))),
    "CostandardModule": lambda level: CostandardModule(1, 2, coeff_level=level),
}
LEVEL_COMMANDS = {
    "classify": {"cartan": [[2]], "restrictions": {"1": {"kind": "trivial"}}},
    "char-inspect": {"kind": "rational", "lambda": 1},
    "lab": None,
}


@pytest.mark.parametrize("level, error, code", ((0, ArgumentError, 2), (4, CapabilityError, 3)))
@pytest.mark.parametrize("entry", [*LEVEL_CALLS, *LEVEL_COMMANDS])
def test_every_entry_point_refuses_a_level_no_tower_has(tmp_path, capsys, entry, level, error, code):
    # one rule: below 1 is malformed input (exit 2), past the cap a
    # capability cap (exit 3)
    message = "at least 1" if code == 2 else "tower cap"
    if entry in LEVEL_CALLS:
        with pytest.raises(error, match=message):
            LEVEL_CALLS[entry](level)
        return
    if entry == "lab":
        argv = ["lab", "--p", "2", "--a", str(level), "--power", "1"]
    else:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(LEVEL_COMMANDS[entry]), encoding="utf-8")
        argv = [entry, str(path), "--p", "2", "--level", str(level)]
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert message in err


# every int option of every command, with the other arguments it needs
INT_OPTIONS = {
    ("verify", "--p"): ["verify"],
    ("classify", "--p"): ["classify", "-", "--level", "1"],
    ("classify", "--level"): ["classify", "-", "--p", "2"],
    ("char-inspect", "--p"): ["char-inspect", "-", "--level", "1"],
    ("char-inspect", "--level"): ["char-inspect", "-", "--p", "2"],
    ("lab", "--p"): ["lab", "--a", "1", "--power", "1"],
    ("lab", "--a"): ["lab", "--p", "5", "--power", "1"],
    ("lab", "--power"): ["lab", "--p", "5", "--a", "1"],
}


@pytest.mark.parametrize("command, option", INT_OPTIONS, ids=[" ".join(k) for k in INT_OPTIONS])
def test_an_int_option_past_the_conversion_limit_is_refused_in_a_short_line(
        capsys, command, option):
    # 5 000 digits, past int's 4 300-digit limit, are no int: exit 2 in
    # argparse's words, naming the value by its ends and its length, where
    # argparse echoed it whole in a 5.1 KB line
    with pytest.raises(SystemExit) as stop:
        main([*INT_OPTIONS[command, option], option, "5" * 5000])
    out, err = capsys.readouterr()
    assert (stop.value.code, out) == (2, "")
    assert len(err.encode()) < 300
    assert err.endswith(f"error: argument {option}: invalid int value: "
                        f"'55555555555...55555555555' (5002 characters)\n")


def test_a_short_bad_int_is_refused_in_argparse_own_words(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["lab", "--p", "5", "--a", "1", "--power", "1.5"])
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith("borelline lab: error: argument --power: invalid int value: '1.5'\n")


def test_char_inspect_expands_each_number_once_past_the_pattern(tmp_path, capsys, monkeypatch):
    # lambda = 5 at p = 2, level 3: the residues 0, 2 and 5, expanded once
    # each by extract_pattern and once more for the digit sums and nonzero
    # counts together, with p proven by the TruncatedCharacter, and 5 once
    # by classify_exact: 7 expansions. The digit sums and the nonzero
    # counts, each expanding each residue with its own primality proof,
    # made 10
    calls = []
    real = digits._expand

    def expanding(n, p):
        calls.append(n)
        return real(n, p)

    monkeypatch.setattr(digits, "_expand", expanding)
    monkeypatch.setattr(characters, "_expand", expanding)
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"kind": "rational", "lambda": 5}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "char-inspect", str(path), "--p", "2", "--level", "3")
    assert code == 0
    doc = json.loads(out)
    assert (doc["digit_sums"], doc["nonzero_counts"]) == ([0, 1, 2], [0, 1, 2])
    assert calls == [0, 2, 5, 0, 2, 5, 5]


LONG_TWIST = {"kind": "twisted", "factors": [{"theta": 1, "twist": [0] * 12000}]}
LONG_TWIST_COMMANDS = {
    "char-inspect": lambda path: ["char-inspect", path, "--p", "2"],
    "lab": lambda path: ["lab", "--p", "2", "--a", "1", "--char", path],
    "classify": lambda path: ["classify", path, "--p", "2"],
}


@pytest.mark.parametrize("command", LONG_TWIST_COMMANDS)
def test_a_twist_past_the_tower_cap_exits_3_on_every_command(tmp_path, capsys, monkeypatch,
                                                             command):
    # a twist lists one residue per level, so 12 000 of them name level
    # 12 000: refused on its length, before any residue is held to n!
    doc = LONG_TWIST
    if command == "classify":
        doc = {"cartan": [[2]], "restrictions": {"1": LONG_TWIST}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(characters, "factorial", None)
    code, out, err = run_cli(capsys, *LONG_TWIST_COMMANDS[command](str(path)))
    assert (code, out) == (3, "")
    assert err == "capability: level 12000 exceeds the tower cap 3\n"


def test_verify_large_prime_is_a_vacuous_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "1000000000000000003")
    assert code == 0
    _, out7, _ = run_cli(capsys, "verify", "--p", "7")
    assert out == out7


def test_verify_prime_past_primality_cap_is_capability_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--p", str(10 ** 25 + 13))
    assert code == 3
    assert out == ""
    assert "3317044064679887385961981" in err


def test_lab_char_file(tmp_path, capsys):
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"kind": "trivial"}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "lab", "--p", "2", "--a", "2", "--char", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 4
    assert doc["hecke"]["dims"] == [1, 4]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "borelline", "verify", "power-sums"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True


def test_importing_the_cli_loads_no_dataclasses_inspect_or_fractions():
    # each request is a process of its own, so what `import borelline.cli`
    # loads is paid on every one: `dataclasses` loads `inspect`, and
    # `fractions` loads `decimal`
    script = ("import json, sys; before = set(sys.modules); import borelline.cli; "
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "borelline.cli" in loaded and "borelline.classify" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "_decimal",
                         "_pydecimal"}


def test_char_inspect_answers_at_a_large_prime():
    # p = 1000003, lambda = -2: m_2 = p^2 - 3 has base-p digits (p - 3, p - 1),
    # low digit first, and the search over r = 1 tries k (p - 1). For k = 1
    # and 2 the low digits p - 1 and p - 2 exceed p - 3, so the binomial
    # vanishes; k = 3 gives 3p - 3 = (p - 3, 2) and C(p-3, p-3) C(p-1, 2) =
    # (p-1)(p-2)/2 = 1 mod p. Digitwise factorials would not finish in time.
    proc = subprocess.run(
        [sys.executable, "-m", "borelline", "char-inspect", "-",
         "--p", "1000003", "--level", "2"],
        input=json.dumps({"kind": "rational", "lambda": -2}),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["lucas"] == [{"r": 1, "found": True, "s": 2, "k": 3}]


@pytest.mark.parametrize("cartan", [[[2, -3], [-3, 2]], [[2, -2], [-2, 2]]])
def test_classify_refuses_cartan_matrices_not_of_finite_type(tmp_path, capsys, cartan):
    payload = {
        "cartan": cartan,
        "restrictions": {
            "1": {"kind": "rational", "lambda": 1},
            "2": {"kind": "rational", "lambda": 2},
        },
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path), "--p", "3")
    assert code == 2
    assert out == ""
    assert "not of finite type" in err and "pivot" in err


def test_char_inspect_lucas_search_is_capped():
    # p = 101, lambda = 101^5: every level-3 residue is 101^5, one digit 1 at
    # position 5, so binom(m_s, k (p - 1)) vanishes for each of the ~10^8
    # candidates k of the search at r = 1; it stops at its cap instead
    proc = subprocess.run(
        [sys.executable, "-m", "borelline", "char-inspect", "-",
         "--p", "101", "--level", "3"],
        input=json.dumps({"kind": "rational", "lambda": 101 ** 5}),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "capability:" in proc.stderr
    assert "r = 1" in proc.stderr and "100000" in proc.stderr


_HUGE_INTEGER = '{"kind": "rational", "lambda": 1' + "0" * 5000 + "}"
_DEEP_NESTING = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command", ["char-inspect", "classify", "lab"])
@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(
            _HUGE_INTEGER.encode(),
            id="5001-digit-lambda",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this interpreter converts integers of any length",
            ),
        ),
        pytest.param(_DEEP_NESTING.encode(), id="deep-nesting"),
        pytest.param(b"\xff\xfe{}", id="not-utf-8"),
    ],
)
def test_unreadable_json_is_usage_error(tmp_path, command, raw):
    path = tmp_path / "in.json"
    path.write_bytes(raw)
    argv = ["lab", "--char", str(path), "--a", "1"] if command == "lab" else [command, str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "borelline", *argv, "--p", "3"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


_LONG = int("7" * 4000)
# (character, the error line that names its long value by its first and last
# characters): each repeated the whole value, about 4 040 bytes
LONG_VALUE_ERRORS = (
    ({"kind": "twisted", "factors": [{"theta": _LONG, "twist": [0]}]},
     "digit value 777777777777...777777777777 (4000 digits) is not a base-3 digit"),
    ({"kind": "twisted", "factors": [{"theta": 1, "twist": [_LONG]}]},
     "twist residue at level 1 out of range: 777777777777...777777777777 (4000 digits)"),
    ({"kind": "x" * 4000},
     "unknown character kind 'xxxxxxxxxxx...xxxxxxxxxxx' (4002 characters)"),
)


@pytest.mark.parametrize("command", ["char-inspect", "classify", "lab"])
@pytest.mark.parametrize("char, message", LONG_VALUE_ERRORS,
                         ids=("digit-value", "twist-residue", "unknown-kind"))
def test_a_long_value_is_named_in_a_short_error(tmp_path, capsys, command, char, message):
    path = tmp_path / "in.json"
    doc = {"cartan": [[2]], "restrictions": {"1": char}} if command == "classify" else char
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["lab", "--char", str(path), "--a", "1"] if command == "lab" else [command, str(path)]
    code, out, err = run_cli(capsys, *argv, "--p", "3")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err.encode()) < 300


def test_malformed_json_message_is_the_decoder_message(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text('{"kind": rational}', encoding="utf-8")
    code, out, err = run_cli(capsys, "char-inspect", str(path), "--p", "3")
    assert (code, out, err) == (2, "", "error: Expecting value: line 1 column 10 (char 9)\n")


# -- one parser per process: built on the first call, holding no state --------


def _one_call_per_command(tmp_path):
    cartan = tmp_path / "cartan.json"
    cartan.write_text(json.dumps({
        "cartan": [[2, -1], [-1, 2]],
        "restrictions": {
            "1": {"kind": "rational", "lambda": 1},
            "2": {"kind": "rational", "lambda": 2},
        },
    }), encoding="utf-8")
    char = tmp_path / "char.json"
    char.write_text(json.dumps({"kind": "rational", "lambda": -1}), encoding="utf-8")
    return [
        ["verify", "power-sums", "--p", "3"],
        ["classify", str(cartan), "--p", "2"],
        ["char-inspect", str(char), "--p", "2"],
        ["lab", "--p", "3", "--a", "1", "--power", "1"],
    ]


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch, fresh_parser):
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(None)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    codes = [main(argv) for argv in _one_call_per_command(tmp_path)]
    for argv in (["lab", "--p", "two"], ["--version"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        codes.append(stop.value.code)
    assert codes == [0, 0, 0, 0, 2, 0]
    assert capsys.readouterr().out.endswith(f"borelline {__version__}\n")
    assert len(builds) == 1


def test_a_prime_filter_ends_with_its_call(capsys, monkeypatch, fresh_parser):
    _, filtered, _ = run_cli(capsys, "verify", "lucas", "--p", "2")
    code, full, _ = run_cli(capsys, "verify", "lucas")
    monkeypatch.setattr(cli, "_parser", None)
    _, fresh, _ = run_cli(capsys, "verify", "lucas")
    assert code == 0
    assert full == fresh != filtered


def test_an_out_file_ends_with_its_call(tmp_path, capsys, fresh_parser):
    target = tmp_path / "first.json"
    _, first, _ = run_cli(capsys, "lab", "--p", "2", "--a", "1", "--power", "0",
                          "--out", str(target))
    code, second, _ = run_cli(capsys, "lab", "--p", "3", "--a", "1", "--power", "1")
    assert code == 0 and second != first
    assert target.read_text(encoding="utf-8") == first


def test_a_refused_call_leaves_the_next_answering(capsys, monkeypatch, fresh_parser):
    argv = ["lab", "--p", "2", "--a", "1", "--power", "0"]
    _, expected, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_parser", None)
    assert run_cli(capsys, "lab", "--p", "2", "--a", "1")[:2] == (2, "")
    with pytest.raises(SystemExit) as stop:
        main(["lab", "--p", "2", "--a", "one"])
    assert stop.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *argv)[:2] == (0, expected)


def test_relation_error_exits_one_after_an_earlier_call(capsys, monkeypatch, fresh_parser):
    # a parser that kept the handlers of its first build would run the real
    # verify here
    assert run_cli(capsys, "verify", "power-sums", "--p", "3")[0] == 0

    def broken(args):
        raise cli.RelationError("closed form and direct summation disagree")

    monkeypatch.setattr(cli, "_cmd_verify", broken)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert out == ""
    assert err.startswith("verification:")


def test_calls_in_a_row_print_what_new_processes_print(tmp_path, capsys, fresh_parser):
    argvs = _one_call_per_command(tmp_path)
    in_process = [run_cli(capsys, *argv)[1] for argv in argvs]
    for argv, out in zip(argvs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "borelline", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, out)


# -- parsing -------------------------------------------------------------------

# (id, argv) with "@name" for a file of ROUTE_FILES. Every refusal kind that
# perfbench's edge-inputs sends, usage errors argparse reports, and the forms
# the top-level parser sends on to argparse's own route.
ROUTE_ARGVS = (
    ("nonprime", ["verify", "--p", "9"]),
    ("unknown-suite", ["verify", "lemma"]),
    ("char-and-power", ["lab", "--p", "2", "--a", "1", "--power", "1", "--char", "@char"]),
    ("malformed-classify", ["classify", "@bad", "--p", "3"]),
    ("malformed-char-inspect", ["char-inspect", "@bad", "--p", "3"]),
    ("bad-rank", ["classify", "@short", "--p", "5"]),
    ("level-past-cap", ["char-inspect", "@char", "--p", "2", "--level", "4"]),
    ("a-past-cap", ["lab", "--p", "2", "--a", "4", "--power", "1"]),
    ("q-past-cap", ["lab", "--p", "11", "--a", "2", "--power", "1"]),
    ("level-3-past-cap", ["lab", "--p", "3", "--a", "3", "--power", "1"]),
    ("a10", ["lab", "--p", "3", "--a", "10", "--power", "1"]),
    ("unknown-command", ["frobnicate", "--p", "2"]),
    ("abbreviated-command", ["ver", "lucas"]),
    ("no-arguments", []),
    ("version", ["--version"]),
    ("version-abbreviated", ["--vers"]),
    ("help", ["-h"]),
    ("lab-help", ["lab", "-h"]),
    ("verify-version", ["verify", "--version"]),
    ("verify-extra", ["verify", "lucas", "--p", "2", "extra"]),
    ("classify-extra", ["classify", "@cartan", "--p", "2", "extra"]),
    ("char-inspect-extra", ["char-inspect", "@char", "--p", "2", "--bogus"]),
    ("lab-extra", ["lab", "--p", "2", "--a", "1", "--power", "0", "extra"]),
    ("abbreviated-option", ["lab", "--p", "3", "--a", "1", "--pow", "2"]),
    ("equals", ["verify", "lucas", "--p=3"]),
    ("negative-power", ["lab", "--p", "5", "--a", "1", "--power", "-3"]),
    ("missing-value", ["lab", "--p", "5", "--a", "1", "--power"]),
    ("bad-int", ["lab", "--p", "two", "--a", "1"]),
    ("double-dash", ["verify", "--", "lucas"]),
    ("double-dash-first", ["--", "verify", "lucas"]),
    ("option-before-suite", ["verify", "--p", "2", "lucas"]),
    ("empty-before-equals", ["lab", "--=x"]),
    ("dash-equals", ["lab", "-=x"]),
)
ROUTE_FILES = {
    "char": json.dumps({"kind": "rational", "lambda": -1}),
    "bad": "[1, 2",
    "short": json.dumps({"cartan": [[2, -1], [-1, 2]],
                         "restrictions": {"1": {"kind": "trivial"}}}),
    "cartan": json.dumps({"cartan": [[2]], "restrictions": {"1": {"kind": "trivial"}}}),
}


def _argparse_route(parser):
    """parser, parsing as a plain argparse.ArgumentParser does."""
    parser.parse_known_args = functools.partial(argparse.ArgumentParser.parse_known_args,
                                                parser)
    return parser


def _outcome(monkeypatch, capsys, parser, argv):
    """What main returns and prints through parser, and what parse_args
    gives on the same argv: a namespace or an exit code."""
    monkeypatch.setattr(cli, "_parser", parser)
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    printed = capsys.readouterr()
    try:
        parsed = parser.parse_args(argv)
    except SystemExit as stop:
        parsed = stop.code
    capsys.readouterr()
    return code, printed.out, printed.err, parsed


@pytest.mark.parametrize("argv", [argv for _, argv in ROUTE_ARGVS],
                         ids=[name for name, _ in ROUTE_ARGVS])
def test_main_answers_as_argparse_own_route_does(tmp_path, monkeypatch, capsys, argv):
    for name, text in ROUTE_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    ours = _outcome(monkeypatch, capsys, cli.build_parser(), argv)
    theirs = _outcome(monkeypatch, capsys, _argparse_route(cli.build_parser()), argv)
    assert ours == theirs
    assert "Traceback" not in ours[2]


@pytest.mark.parametrize("argv, passes", (
    (["lab", "--p", "2", "--a", "1", "--power", "0"], {"lab": 1}),
    (["verify", "lucas", "--p", "2"], {"verify": 1}),
    (["labs", "--p", "2"], {"top-level": 1}),
), ids=("lab", "verify", "unknown"))
def test_a_known_command_is_parsed_by_its_subparser_alone(monkeypatch, capsys, argv, passes):
    parser = cli.build_parser()
    counted = collections.Counter()
    for name, each in [("top-level", parser), *parser.commands.items()]:
        def counting(*args, _name=name, _real=each._parse_known_args):
            counted[_name] += 1
            return _real(*args)

        monkeypatch.setattr(each, "_parse_known_args", counting)
    monkeypatch.setattr(cli, "_parser", parser)
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert dict(counted) == passes


# -- the document writer -------------------------------------------------------


@pytest.fixture
def written(monkeypatch, capsys):
    """A function that runs main on an argv and returns its exit code and
    the (document, stdout) pair it wrote. main sees a `cli.json` holding
    only dumps, loads and JSONDecodeError, as under perfbench's tracer; the
    last dumps of a call must be the document's, with the writer's encoder."""
    calls = []

    def dumps(obj, **kwargs):
        calls.append((obj, kwargs))
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(cli, "json", SimpleNamespace(
        dumps=dumps, loads=json.loads, JSONDecodeError=json.JSONDecodeError))

    def run(*argv):
        code, out, _ = run_cli(capsys, *argv)
        doc, kwargs = calls.pop()
        assert kwargs == {"indent": 2, "sort_keys": True, "cls": cli._DocumentEncoder}
        return code, (doc, out)

    return run


def _assert_written_as_json_dumps_writes(pairs):
    for doc, out in pairs:
        want = json.dumps(doc, indent=2, sort_keys=True)
        assert _document_text(doc) == want
        assert out == want + "\n"


def test_writer_matches_json_dumps_on_verify_documents(written):
    pairs = []
    for suite in SUITES:
        for p in (None, 2, 3, 5):
            code, pair = written("verify", suite, *(() if p is None else ("--p", str(p))))
            assert code == 0
            pairs.append(pair)
    assert len(pairs) == 32
    _assert_written_as_json_dumps_writes(pairs)


def test_writer_matches_json_dumps_on_lab_documents(written, tmp_path):
    pairs = []
    for p, a in ((2, 1), (3, 1), (2, 2), (5, 1)):
        q = p ** factorial(a)
        for power in range(-2, q):
            code, pair = written("lab", "--p", str(p), "--a", str(a), "--power", str(power))
            assert code == 0
            pairs.append(pair)
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"kind": "twisted", "factors": [
        {"theta": 1, "twist": [0, 1]}, {"theta": 1, "twist": [0, 0]}]}), encoding="utf-8")
    code, pair = written("lab", "--p", "2", "--a", "2", "--char", str(path))
    assert code == 0
    _assert_written_as_json_dumps_writes(pairs + [pair])


def _sample_character(rng, p, level):
    """A symbolic character that classify and char-inspect both answer."""
    kind = rng.choice(("trivial", "rational", "rational", "twisted"))
    if kind == "trivial":
        return {"kind": "trivial"}
    if kind == "rational":
        lam = rng.randrange(min(p ** factorial(level), 81))
        return {"kind": "rational", "lambda": lam if rng.random() < 0.5 else -1 - lam}
    positions = rng.sample(range(factorial(level)), min(2, factorial(level)))
    return {"kind": "twisted", "factors": [
        {"theta": rng.randrange(1, p), "twist": [e % factorial(n) for n in (1, 2, 3)]}
        for e in positions]}


SAMPLE_CARTANS = (
    [[2]], [[2, -1], [-1, 2]], [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], [[2, -3], [-1, 2]],
    [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(8)] for i in range(8)],
)


def test_writer_matches_json_dumps_on_classify_and_char_inspect_documents(written, tmp_path):
    rng = random.Random(30)
    pairs = []
    for n in range(60):
        p, level = rng.choice((2, 3, 5, 7)), rng.randrange(1, 4)
        path = tmp_path / f"{n}.json"
        if n % 2:
            command, doc = "char-inspect", _sample_character(rng, p, level)
        else:
            cartan = rng.choice(SAMPLE_CARTANS)
            command, doc = "classify", {
                "cartan": cartan,
                "restrictions": {str(i + 1): _sample_character(rng, p, level)
                                 for i in range(len(cartan))},
                "central": _sample_character(rng, p, level) if n % 4 == 0 else None,
            }
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, pair = written(command, str(path), "--p", str(p), "--level", str(level))
        assert code == 0
        pairs.append(pair)
    assert {doc["finite_dimensional"] for doc, _ in pairs[::2]} == {False, True}
    _assert_written_as_json_dumps_writes(pairs)


def test_writer_matches_json_dumps_on_documents_with_failures(written, monkeypatch):
    from borelline import sl2lab, suites
    from borelline.linalg import rref
    from borelline.sl2lab import Subspace

    def irreducible_split(self):
        module = self.module
        whole = rref(module.codes, [module.unit_vector(i) for i in range(module.dim)])
        return Subspace(module, ()), Subspace(module, whole)

    real_rows = suites.lucas_rows

    def one_entry_off(limit, p):
        rows = real_rows(limit, p)
        rows[100] = bytes([(rows[100][0] + 1) % p]) + rows[100][1:]
        return rows

    monkeypatch.setattr(sl2lab.HeckeOperators, "idempotent_split", irreducible_split)
    monkeypatch.setattr(suites, "lucas_rows", one_entry_off)
    pairs = []
    for argv in (("verify", "hecke-split", "--p", "2"), ("verify", "lucas", "--p", "3"),
                 ("lab", "--p", "2", "--a", "1", "--power", "0")):
        code, pair = written(*argv)
        assert code == 1 and pair[0]["ok"] is False
        pairs.append(pair)
    assert pairs[1][0]["suites"][0]["failures"]
    _assert_written_as_json_dumps_writes(pairs)


EDGE_VALUES = {
    "empty dict": {},
    "empty list": [],
    "empty tuple": (),
    "nested empties": {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": [{}]}},
    "non-ASCII": {"ключ": "значение", "k": "é ü 中文 \U0001f600"},
    "control characters": ["", "\x00\x01\x1f\x7f", "\"\\/\b\f\n\r\t", "\u2028\u2029"],
    "negative ints": [-1, 0, -(10 ** 40)],
    "4000-digit ints": {"big": 10 ** 3999, "neg": -(10 ** 3999) + 7},
    "bools beside ints": [True, 1, False, 0, None, [True, False], {"t": True, "o": 1}],
    "tuples": (1, (2, ()), [3, (4,)], {"t": (5, "six")}),
    "deep": [[[[{"z": [1, [2, [3]]]}]]]],
    "unsorted keys": {"b": 1, "a": {"d": 2, "c": 3}, "": None, "B": "x"},
    "scalars": [None, "s", 7],
}


@pytest.mark.parametrize("name", sorted(EDGE_VALUES))
def test_writer_matches_json_dumps_on_edge_values(name):
    obj = EDGE_VALUES[name]
    assert _document_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
    assert json.dumps(obj, indent=2, sort_keys=True, cls=cli._DocumentEncoder) == \
        json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", (1.5, [0, 2.0], {1, 2}, {"a": frozenset()}, {1: "a"},
                                 {"a": {("k",): 1}}, {"a": 1, 2: "b"}),
                         ids=("float", "float-in-list", "set", "frozenset-value",
                              "int-key", "tuple-key", "mixed-keys"))
def test_writer_refuses_what_no_document_holds(obj):
    with pytest.raises(TypeError):
        _document_text(obj)
