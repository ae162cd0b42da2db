"""semiexact: exactness kernel for finite semirings and semimodules.

Finite carriers, dense tables, exhaustive checks: kernels, cokernels,
Bourne quotients, uniform-morphism classification, exact sequences, and
mechanical verification of the classical diagram lemmas in their
semimodule form (Short Five, Five, Nine, Snake with explicit connecting
morphism).
"""

from importlib import import_module

__version__ = "0.1.0"

# public names by home module; __getattr__ imports the home on first use (PEP 562)
_EXPORTS = {
    "core": """Element Semimodule Semiring Subsemimodule ValidationReport Violation
        all_subsemimodules generators is_cancellable is_cancellative_module is_subtractive
        make_boolean make_natural_quotient make_product make_saturating_naturals
        make_truncated_minplus make_zmod module_from_monoid monoid_semiring self_module
        subtractive_closure subtractive_closure_set validate_semimodule validate_semiring
        zero_module""",
    "errors": """HypothesisError LemmaRefuted ParameterError PreconditionError SemiexactError
        StructureError WorkspaceError""",
    "exactness": """ExactnessVerdict KerCokerResult Sequence ShortExactResult SubobjectCharacter
        analyze is_short_exact ker_coker_sequence short_sequence subobject_character""",
    "morphisms": """Morphism MorphismClassification canonical_iso classify cokernel coimage
        compose enumerate_hom hom_add identity_morphism image induced_from_cokernel
        induced_to_kernel is_cancellative_morphism kernel submodule_as_module zero_morphism""",
    "quotients": """Congruence QuotientModule bourne_congruence kernel_pair_congruence
        projection_kernel_is_closure quotient""",
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
