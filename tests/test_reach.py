"""The reach gate: every function defined in `src/borelline` is entered by
some CLI request, apart from a listed set, each entry with its reason.

A fresh interpreter, with PYTHONPATH=src alone, runs REQUESTS through
`cli.main` under `sys.setprofile` and reports every Python function it
entered. A fresh one, so that no tower, parser or level cache left by
earlier tests hides a build path. Each entered code object is matched to a
`def` of the sources by (module, first line, name): a code object's first
line is that of its first decorator, and so is the line taken from the AST
here. Comprehensions and lambdas are not `def`s and are not checked.

The gate fails when a `def` is never entered and not allowed, when an
allowed `def` is entered, and when an allowed `def` no longer exists, so
the allow-list cannot go stale.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "borelline"

# Why each allowed def stays in src/ though no request enters it.
TRACER_HELD = ("kept for perfbench/tracer.py, which reaches it by name (Codes.decode "
               "through Subspace.rows), until ROADMAP D10 and D16")
MISUSE = ("library misuse or inspection that no command makes: mixing levels or "
          "towers, assigning to a frozen record, repr or == of what no document holds")
WEYL = ("weyl's group machinery, called only by tests, test_criterion_10_weyl_combinatorics "
        "among them, until ROADMAP D13")

ALLOWED = {
    "sl2lab.Subspace.rows": TRACER_HELD,
    "towers.Codes.decode": TRACER_HELD,
    "sl2lab._projective_vectors": TRACER_HELD,
    "sl2lab._projective_vectors.<locals>.walk": TRACER_HELD,
    "towers.FieldElement.__neg__": TRACER_HELD,
    "towers.FieldElement.__sub__": TRACER_HELD,
    "towers.FieldElement.inverse": TRACER_HELD,
    "towers._mismatch": MISUSE,
    "digits._refuse_assignment": MISUSE,
    "digits._refuse_deletion": MISUSE,
    "towers.FieldElement.__repr__": MISUSE,
    "digits.record.<locals>.__repr__": MISUSE,
    "digits.record.<locals>.__eq__": MISUSE,
    "weyl.RootSystem": WEYL,
    "weyl.WeylElement": WEYL,
    "weyl.WeylGroup": WEYL,
    "weyl.weyl_group": WEYL,
    "weyl.poincare_product": WEYL,
}

# Each request with the exit code it must give: a request that stops
# answering as listed would quietly stop reaching what it was put here for.
A2 = [[2, -1], [-1, 2]]
B2 = [[2, -2], [-1, 2]]
G2 = [[2, -3], [-1, 2]]
DOCUMENTS = {
    "partial.json": {"cartan": A2, "central": {"kind": "rational", "lambda": 2},
                     "restrictions": {"1": {"kind": "rational", "lambda": 5},
                                      "2": {"kind": "rational", "lambda": -1}}},
    "finite.json": {"cartan": G2, "restrictions": {
        "1": {"kind": "trivial"},
        "2": {"kind": "twisted", "factors": [{"theta": 1, "twist": [0, 1, 1]},
                                             {"theta": 2, "twist": [0, 0, 0]}]}}},
    "empty.json": {"cartan": B2, "restrictions": {
        "1": {"kind": "rational", "lambda": -2}, "2": {"kind": "rational", "lambda": -7}}},
    "affine.json": {"cartan": [[2, -2], [-2, 2]], "restrictions": {
        "1": {"kind": "trivial"}, "2": {"kind": "trivial"}}},
    "rational.json": {"kind": "rational", "lambda": 5},
    "negative.json": {"kind": "rational", "lambda": -3},
    "twisted.json": {"kind": "twisted", "factors": [{"theta": 1, "twist": [0, 1, 1]}]},
    "broken.json": "{'kind': 1}",
}
REQUESTS = [
    (["verify"], 0),
    (["lab", "--p", "2", "--a", "1", "--power", "0"], 0),
    (["lab", "--p", "3", "--a", "1", "--power", "1"], 0),
    (["lab", "--p", "5", "--a", "1", "--power", "2"], 0),
    (["lab", "--p", "5", "--a", "1", "--power", "1"], 0),
    (["lab", "--p", "2", "--a", "2", "--power", "0"], 0),
    (["lab", "--p", "2", "--a", "2", "--char", "twisted.json"], 0),
    (["classify", "partial.json", "--p", "3", "--level", "2"], 0),
    (["classify", "finite.json", "--p", "3"], 0),
    (["classify", "empty.json", "--p", "5", "--level", "1"], 0),
    (["char-inspect", "rational.json", "--p", "2"], 0),
    (["char-inspect", "negative.json", "--p", "3"], 0),
    (["char-inspect", "twisted.json", "--p", "5", "--level", "3"], 0),
    (["classify", "affine.json", "--p", "2"], 2),
    (["char-inspect", "broken.json", "--p", "2"], 2),
    (["lab", "--p", "4", "--a", "1", "--power", "1"], 2),
    (["lab", "--p", "3", "--a", "1", "--power", "1", "--char", "rational.json"], 2),
    (["verify", "lemma"], 2),
    (["lab", "--p", "67", "--a", "1", "--power", "1"], 3),
    (["lab", "--p", "11", "--a", "2", "--power", "1"], 3),
    (["char-inspect", "rational.json", "--p", "2", "--level", "4"], 3),
]

CHILD = """
import contextlib, io, json, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
from borelline import cli

answers = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    answers.append((code, err.getvalue()))
sys.setprofile(None)
root = sys.argv[2]
print(json.dumps({"answers": answers, "entered": sorted(
    (c.co_filename[len(root):], c.co_firstlineno, c.co_name)
    for c in entered if c.co_filename.startswith(root))}))
"""


def source_defs():
    """(module.qualname, (file, first line, name)) for every def in the
    package, the first line being that of the first decorator."""
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.FunctionDef):
                    line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    defs.append((f"{module}.{prefix}{child.name}", (path.name, line, child.name)))
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return defs


def trace_requests(workdir):
    for name, doc in DOCUMENTS.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (workdir / name).write_text(text, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([argv for argv, _ in REQUESTS]),
         str(PACKAGE) + os.sep],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    return out["answers"], {tuple(e) for e in out["entered"]}


def allowed_defs(defs):
    """{allow-list entry: the qualnames it covers}: an entry names a def or
    a class, and covers it and every def inside it."""
    return {entry: {name for name, _ in defs if name == entry or name.startswith(entry + ".")}
            for entry in ALLOWED}


def test_every_def_is_reached_by_a_request_or_allowed_with_a_reason(tmp_path):
    answers, entered = trace_requests(tmp_path)
    wrong = [(argv, code, answer) for (argv, code), answer in zip(REQUESTS, answers)
             if answer[0] != code]
    assert not wrong, f"requests that no longer answer as listed: {wrong}"
    defs = source_defs()
    covered = allowed_defs(defs)
    allowed = set().union(*covered.values())
    unreached = sorted(name for name, key in defs if key not in entered and name not in allowed)
    reached_allowed = sorted(name for name, key in defs if key in entered and name in allowed)
    missing_allowed = sorted(entry for entry, names in covered.items() if not names)
    assert not unreached, f"no request enters these defs: {unreached}"
    assert not reached_allowed, f"a request enters these allowed defs: {reached_allowed}"
    assert not missing_allowed, f"these allowed defs no longer exist: {missing_allowed}"
