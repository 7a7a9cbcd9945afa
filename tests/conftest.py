from __future__ import annotations

from collections import Counter

import pytest

from borelline import characters, digits, linalg, polyfp, sl2lab, suites
from borelline.linalg import DenseMap, MonomialMap
from borelline.towers import make_tower


@pytest.fixture
def fresh_caches():
    """The program's caches as a new process finds them: no tower and no
    level module, induced or natural, is built yet. They are emptied again
    when the test ends, so that no level built under a patched map outlives
    the test."""
    caches = (make_tower, sl2lab._induced_level, sl2lab._natural_level)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


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


@pytest.fixture
def compose_calls(monkeypatch):
    """A Counter of the calls of MonomialMap.compose and DenseMap.compose
    from now on, keyed by class name: a machine-independent measure of the
    work of the relation checks."""
    calls = Counter()

    def counting(name, real):
        def compose(self, other):
            calls[name] += 1
            return real(self, other)
        return compose

    for cls in (MonomialMap, DenseMap):
        monkeypatch.setattr(cls, "compose", counting(cls.__name__, cls.compose))
    return calls


@pytest.fixture
def mat_mul_calls(monkeypatch):
    """A list whose length counts the calls of linalg.mat_mul from now on:
    the dense matrix products, which compositions with a monomial map do
    without."""
    calls = []
    real = linalg.mat_mul

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    return calls


@pytest.fixture
def monomial_apply_calls(monkeypatch):
    """A list whose length counts the calls of MonomialMap.apply from now
    on: a machine-independent measure of the work of M^U and of a census,
    which on a whole induced module make d(q + 1) and 2 of them,
    d = [F_q : F_p]."""
    calls = []
    real = MonomialMap.apply

    def counting(self, v):
        calls.append(None)
        return real(self, v)

    monkeypatch.setattr(MonomialMap, "apply", counting)
    return calls


@pytest.fixture
def lucas_calls(monkeypatch):
    """A Counter of the calls of digits.lucas_rows and
    digits._lucas_digit_product, the one single binomial, from now on,
    keyed by function name: a machine-independent measure of how often
    binomials are asked for. Each is patched in every module that binds it
    by name."""
    calls = Counter()

    def counting(name, real):
        def fn(*args):
            calls[name] += 1
            return real(*args)
        return fn

    for name in ("lucas_rows", "_lucas_digit_product"):
        real = getattr(digits, name)
        wrapper = counting(name, real)
        for module in (digits, suites, sl2lab, characters):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def rref_insert_calls(monkeypatch):
    """A list whose length counts the calls of linalg.rref_insert from now
    on, through `rref` and `spin` alike: the row reductions."""
    calls = []
    real = linalg.rref_insert

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(linalg, "rref_insert", counting)
    monkeypatch.setattr(sl2lab, "rref_insert", counting)
    return calls


@pytest.fixture
def spin_calls(monkeypatch):
    """A list whose length counts the calls of sl2lab.spin from now on."""
    calls = []
    real = sl2lab.spin

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(sl2lab, "spin", counting)
    return calls


@pytest.fixture
def enumerated_lines(monkeypatch):
    """A Counter of the lines `sl2lab._projective_vectors` walks from now
    on, keyed by the dimension of the span whose lines are walked."""
    lines = Counter()
    real = sl2lab._projective_vectors

    def counting(module, rows):
        for v in real(module, rows):
            lines[len(rows)] += 1
            yield v

    monkeypatch.setattr(sl2lab, "_projective_vectors", counting)
    return lines
