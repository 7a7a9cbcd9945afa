"""Exact arithmetic for digit-pattern characters and their induced modules.

Everything here is computed over the integers or over explicit finite field
towers: digit combinatorics (carry-free binomials, power sums, digit-class
comparisons), residue towers of torus characters and their stable patterns,
validated root data, parabolic classification reports for a character with
a stable line, and a rank-one laboratory that checks socles,
heads, and level transitions of induced modules by explicit linear algebra.

Importing the package compiles none of its ten modules. Each is put in
`sys.modules` and on the package through `importlib.util.LazyLoader`, and
is compiled and run when one of its attributes is first read, so a command
runs only the modules it reaches. The public names of `__all__` resolve
the same way, on first read, through the package's `__getattr__`: each is
the object its own module defines.
"""

from __future__ import annotations

import importlib.util
import sys

__version__ = "0.1.0"

# Every module of the package, with the public names it defines.
_PUBLIC = {
    "cli": (),
    "suites": (),
    "digits": ("ArgumentError", "CapabilityError", "PreconditionError", "RelationError",
               "check_digit_lemma", "lucas_rows", "power_sum"),
    "polyfp": (),
    "towers": ("FieldElement", "FieldTower", "make_tower"),
    "linalg": (),
    "sl2lab": ("CostandardModule", "InducedModule", "case_verdict", "l_submodule", "pi_image",
               "socle_head_report", "spin", "verify_irreducibility_chain"),
    "characters": ("GaloisTwist", "NoStablePattern", "RationalPower", "TruncatedCharacter",
                   "Trivial", "TwistedDigitSum", "X0Pattern", "classify_exact",
                   "extract_pattern", "is_compatible", "lucas_criterion", "truncate"),
    "weyl": ("RootDatum",),
    "classify": ("TorusCharacter", "report", "report_to_json", "steinberg_decompose",
                 "torus_character_from_json"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)


def _lazy(module):
    """The submodule, registered in `sys.modules` but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


globals().update({module: _lazy(module) for module in _PUBLIC})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
