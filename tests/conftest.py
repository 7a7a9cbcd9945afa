from __future__ import annotations

import pytest

from borelline import polyfp


@pytest.fixture
def polyfp_mul_calls(monkeypatch):
    """A list whose length counts the calls of polyfp.mul from now on.

    Field arithmetic reaches polyfp.mul only while a tower or its tables are
    built, so the count is a machine-independent measure of that work.
    """
    calls = []
    real = polyfp.mul

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(polyfp, "mul", counting)
    return calls
