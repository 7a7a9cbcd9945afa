"""Which modules a command runs, what the package root hands out, and which
routes under tests/ import nothing of the package.

`borelline/__init__.py` registers its ten modules lazily: each is in
`sys.modules` from the package's import on, and is run on the first read of
one of its attributes. `type()` reads none, so a module has run exactly
when `type(sys.modules[name]) is types.ModuleType`. Each command runs in a
fresh interpreter, so that no earlier test has run a module for it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borelline

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = {"cli", "suites", "digits", "polyfp", "towers", "linalg", "sl2lab", "characters",
           "weyl", "classify"}

RUN_BY_COMMAND = """
import contextlib, io, json, sys, types
from borelline import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as stop:
        code = stop.code
print(json.dumps([code, [name[len("borelline."):] for name, mod in sys.modules.items()
                         if name.startswith("borelline.") and type(mod) is types.ModuleType]]))
"""

# what perfbench's tracer and worker read: every module by name in
# sys.modules, and the lru caches found in the module namespaces
PERFBENCH_VIEW = """
import functools, json, sys, types
import borelline
from borelline import cli, towers

names = sorted(n for n in sys.modules if n.startswith("borelline."))
run_before = [n for n in names if type(sys.modules[n]) is types.ModuleType]
caches = {id(obj): key for n in names for key, obj in vars(sys.modules[n]).items()
          if isinstance(obj, functools._lru_cache_wrapper)}
run_after = [n for n in names if type(sys.modules[n]) is types.ModuleType]
print(json.dumps([names, run_before, sorted(caches.values()), run_after]))
"""


def fresh_interpreter(script, *args, cwd=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


RATIONAL = {"kind": "rational", "lambda": 5}
A2 = {"cartan": [[2, -1], [-1, 2]], "restrictions": {"1": {"kind": "rational", "lambda": 5},
                                                      "2": {"kind": "trivial"}}}


@pytest.mark.parametrize("argv, exit_code, runs, not_run", [
    (["verify"], 0, "sl2lab", {"classify", "weyl"}),
    (["lab", "--p", "5", "--a", "1", "--power", "1"], 0, "sl2lab", {"classify", "weyl"}),
    (["char-inspect", "rational.json", "--p", "3"], 0, "characters",
     {"sl2lab", "linalg", "classify", "weyl"}),
    (["classify", "a2.json", "--p", "3", "--level", "2"], 0, "classify", {"sl2lab", "linalg"}),
    # q = 67 and q = 11^2 = 121 are past the desk-scale cap 64, refused in towers
    (["lab", "--p", "67", "--a", "1", "--power", "1"], 3, "characters",
     {"sl2lab", "linalg", "polyfp", "classify", "weyl"}),
    (["lab", "--p", "11", "--a", "2", "--power", "1"], 3, "characters",
     {"sl2lab", "linalg", "polyfp", "classify", "weyl"}),
], ids=("verify", "lab", "char-inspect", "classify", "lab-past-the-cap-q67",
        "lab-past-the-cap-q121"))
def test_a_command_runs_none_of_the_modules_it_does_not_reach(tmp_path, argv, exit_code, runs,
                                                              not_run):
    (tmp_path / "rational.json").write_text(json.dumps(RATIONAL), encoding="utf-8")
    (tmp_path / "a2.json").write_text(json.dumps(A2), encoding="utf-8")
    code, run = fresh_interpreter(RUN_BY_COMMAND, *argv, cwd=tmp_path)
    assert code == exit_code
    assert runs in run and set(run) <= MODULES and not set(run) & not_run, run


@pytest.mark.parametrize("argv, exit_code", [(["verify", "--p", "15"], 2), (["--version"], 0)],
                         ids=("not-a-prime", "version"))
def test_a_request_answered_at_parse_time_runs_only_the_parsing_modules(argv, exit_code):
    # p = 15 is refused by require_prime before any handler runs
    code, run = fresh_interpreter(RUN_BY_COMMAND, *argv)
    assert code == exit_code
    assert set(run) == {"cli", "digits", "suites", "towers"}


def test_every_module_is_registered_and_runs_when_its_namespace_is_read():
    names, run_before, caches, run_after = fresh_interpreter(PERFBENCH_VIEW)
    assert names == sorted(f"borelline.{name}" for name in MODULES)
    assert run_before == []
    assert caches == ["_induced_level", "_natural_level", "make_tower"]
    assert run_after == names


def test_each_public_name_is_the_object_its_own_module_defines():
    assert len(borelline.__all__) == len(set(borelline.__all__)) == 36
    for name in borelline.__all__:
        obj = getattr(borelline, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("borelline.") and vars(home)[name] is obj, name
    assert borelline.PreconditionError.__module__ == "borelline.digits"
    assert borelline.sl2lab.PreconditionError is borelline.PreconditionError
    with pytest.raises(AttributeError, match="has no attribute 'lucas_row'"):
        borelline.lucas_row
    with pytest.raises(AttributeError, match="has no attribute 'weyl_group'"):
        borelline.weyl_group


# Files under tests/ whose routes are meant to be independent of the package:
# one wrong rule in `borelline` cannot then pass both a route and the code.
INDEPENDENT_ROUTES = ("weyl_route.py",)


@pytest.mark.parametrize("route", INDEPENDENT_ROUTES)
def test_an_independent_route_imports_only_the_standard_library(route):
    tree = ast.parse((Path(__file__).parent / route).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    # a relative import's first part is "", no module of the standard library
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in imported), imported
