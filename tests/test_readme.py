"""The README's library example runs as written, so that a name dropped
from the package cannot leave it stale."""

from __future__ import annotations

import json
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The ```python block under "## Library use"."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_readme_library_example_runs_and_says_what_it_gives(capsys):
    names = {}
    exec(compile(library_example(), str(README), "exec"), names)
    # what its comments state
    assert names["theta"].residues == (0, 2, 2)
    assert [(t, w.residues) for t, w in names["pattern"].factors] == [(2, (0, 0, 0))]
    assert (names["report"].socle_dim, names["report"].head_dim) == (2, 2)
    assert (names["key"], names["failed"]) == ("socle_head", {})
    assert names["code"] == 0
    # the two commands each printed one document
    out = capsys.readouterr().out
    decoder = json.JSONDecoder()
    verify, end = decoder.raw_decode(out)
    lab, end = decoder.raw_decode(out, end + 1)
    assert verify["ok"] is True and lab["ok"] is True and out[end:] == "\n"
