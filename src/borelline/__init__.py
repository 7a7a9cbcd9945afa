"""Exact arithmetic for digit-pattern characters and their induced modules.

Everything here is computed over the integers or over explicit finite field
towers: digit combinatorics (carry-free binomials, power sums, digit-class
comparisons), residue towers of torus characters and their stable patterns,
root data with Weyl combinatorics, parabolic classification reports for a
character with a stable line, and a rank-one laboratory that checks socles,
heads, and level transitions of induced modules by explicit linear algebra.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .characters import (
    GaloisTwist,
    NoStablePattern,
    RationalPower,
    TruncatedCharacter,
    Trivial,
    TwistedDigitSum,
    X0Pattern,
    classify_exact,
    extract_pattern,
    is_compatible,
    lucas_criterion,
    truncate,
)
from .classify import (
    TorusCharacter,
    report,
    report_to_json,
    steinberg_decompose,
    torus_character_from_json,
)
from .digits import (
    ArgumentError,
    RelationError,
    check_digit_lemma,
    lucas_rows,
    power_sum,
)
from .sl2lab import (
    CostandardModule,
    InducedModule,
    PreconditionError,
    case_verdict,
    l_submodule,
    pi_image,
    socle_head_report,
    spin,
    verify_irreducibility_chain,
)
from .towers import CapabilityError, FieldElement, FieldTower, make_tower
from .weyl import (
    RootDatum,
    RootSystem,
    WeylGroup,
    poincare_product,
    weyl_group,
)

__all__ = [
    "ArgumentError",
    "CapabilityError",
    "CostandardModule",
    "FieldElement",
    "FieldTower",
    "GaloisTwist",
    "InducedModule",
    "NoStablePattern",
    "PreconditionError",
    "RationalPower",
    "RelationError",
    "RootDatum",
    "RootSystem",
    "TorusCharacter",
    "Trivial",
    "TruncatedCharacter",
    "TwistedDigitSum",
    "WeylGroup",
    "X0Pattern",
    "case_verdict",
    "check_digit_lemma",
    "classify_exact",
    "extract_pattern",
    "is_compatible",
    "l_submodule",
    "lucas_criterion",
    "lucas_rows",
    "make_tower",
    "pi_image",
    "poincare_product",
    "power_sum",
    "report",
    "report_to_json",
    "socle_head_report",
    "spin",
    "steinberg_decompose",
    "torus_character_from_json",
    "truncate",
    "verify_irreducibility_chain",
    "weyl_group",
]
