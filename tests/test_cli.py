from __future__ import annotations

import json
import subprocess
import sys

import pytest

from borelline import __version__, cli
from borelline.characters import RationalPower, truncate
from borelline.cli import main
from borelline.digits import ArgumentError
from borelline.sl2lab import CostandardModule, InducedModule, trivial_character
from borelline.towers import CapabilityError, FieldTower


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


def test_lab_level_past_tower_cap_exits_before_truncating(capsys):
    code, out, err = run_cli(capsys, "lab", "--p", "3", "--a", "10", "--power", "1")
    assert code == 3
    assert out == ""
    assert "capability:" in err and "Traceback" not in err


LEVEL_CALLS = {
    "FieldTower": lambda level: FieldTower(2, level),
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
