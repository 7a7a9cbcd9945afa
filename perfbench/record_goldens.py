"""Record perfbench/goldens.json: exit code and stdout digest of every request
a seed can draw whose document is compared byte for byte.

    python3 perfbench/record_goldens.py

Run it from the root of the checkout whose outputs are the reference, and
only when the reference itself is meant to change: a golden recorded from a
broken program would hide the breakage.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import GOLDENS, Session


def main():
    root = Path.cwd()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    space = workloads.golden_space()
    session = Session(root)
    goldens, bad = {}, []
    try:
        for i, req in enumerate(space, 1):
            resp = session.request(req, "inproc", 600.0)
            if resp["error"] or resp["exit"] != 0:
                bad.append((req.label(), resp["exit"], resp["error"]))
                continue
            goldens[req.key] = {"exit": resp["exit"],
                                "stdout": workloads.stdout_digest(resp["stdout"]),
                                "argv": " ".join(req.argv)}
            print(f"[{i}/{len(space)}] {req.label()} {resp['latency']:.3f}s", file=sys.stderr)
    finally:
        session.close()
    if bad:
        for label, code, error in bad:
            print(f"error: {label}: exit {code} {error or ''}", file=sys.stderr)
        return 1
    GOLDENS.write_text(json.dumps({"commit": commit, "goldens": goldens},
                                  indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} goldens to {GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
