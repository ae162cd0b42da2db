"""Named small structures used throughout tests, searches and the CLI.

Each module fixture notes which unbounded structure it truncates. Monoid
fixtures ("over naturals") are modules over the natural-quotient semiring
returned by monoid_semiring(size), whose action is forced by repeated
addition, so their linear maps are exactly the additive monoid maps.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (Semimodule, make_boolean, make_product, make_saturating_naturals,
                   make_truncated_minplus, make_zmod, module_from_monoid,
                   monoid_semiring, self_module, validate_semimodule, zero_module)
from .errors import LemmaRefuted


def builtin_semirings():
    """Name -> semiring map for every builder fixture."""
    out = {
        "B": make_boolean(),
        "Z2": make_zmod(2),
        "Z3": make_zmod(3),
        "Z4": make_zmod(4),
        "T1": make_saturating_naturals(1),
        "T2": make_saturating_naturals(2),
        "T3": make_saturating_naturals(3),
        "minplus1": make_truncated_minplus(1),
        "minplus2": make_truncated_minplus(2),
        "minplus3": make_truncated_minplus(3),
        "BxZ2": make_product(make_boolean(), make_zmod(2)),
        "T2xB": make_product(make_saturating_naturals(2), make_boolean()),
        "nat3": monoid_semiring(3),
        "nat4": monoid_semiring(4),
    }
    return out


def _checked(m: Semimodule) -> Semimodule:
    report = validate_semimodule(m)
    if not report.ok:
        raise LemmaRefuted(f"fixture module invalid:\n{report}")
    return m


# Monoid fixtures, all over the shared naturals quotient monoid_semiring(4)
# so morphisms between them exist. Truncations:
#   chain2   truncates (N, max)      -- two-element chain 0 < 1
#   max3     truncates (N, max)      -- chain 0 < 1 < 2
#   sat3     truncates (N, +)        -- saturating addition on {0,1,2}
#   sat4     truncates (N, +)        -- saturating addition on {0,1,2,3}
#   z2/z3/z4 are already finite groups

@lru_cache(maxsize=None)
def monoid_fixture(name: str) -> Semimodule:
    tables = {
        "chain2": ((0, 1), (1, 1)),
        "max3": ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
        "sat3": ((0, 1, 2), (1, 2, 2), (2, 2, 2)),
        "sat4": ((0, 1, 2, 3), (1, 2, 3, 3), (2, 3, 3, 3), (3, 3, 3, 3)),
        "z2": ((0, 1), (1, 0)),
        "z3": ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        "z4": ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)),
    }
    return _checked(module_from_monoid(tables[name], name, monoid_semiring(4)))


def builtin_modules():
    """Name -> module map: monoid fixtures plus each small semiring over itself."""
    out = {name: monoid_fixture(name)
           for name in ("chain2", "max3", "sat3", "sat4", "z2", "z3", "z4")}
    for sname in ("B", "Z2", "Z4", "T2"):
        s = builtin_semirings()[sname]
        out[f"{sname}.self"] = _checked(self_module(s))
        out[f"{sname}.zero"] = zero_module(s)
    t2 = builtin_semirings()["T2"]
    # the same three carriers as modules over T2 rather than over the naturals
    out["chain2.T2"] = _checked(module_from_monoid(((0, 1), (1, 1)), "chain2.T2", t2))
    out["max3.T2"] = _checked(module_from_monoid(((0, 1, 2), (1, 1, 2), (2, 2, 2)),
                                                 "max3.T2", t2))
    return out
