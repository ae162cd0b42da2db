"""semiexact: exactness kernel for finite semirings and semimodules.

Finite carriers, dense tables, exhaustive checks: kernels, cokernels,
Bourne quotients, uniform-morphism classification, exact sequences, and
mechanical verification of the classical diagram lemmas in their
semimodule form (Short Five, Five, Nine, Snake with explicit connecting
morphism).
"""

__version__ = "0.1.0"

from .core import (Element, Semimodule, Semiring, Subsemimodule, ValidationReport,
                   Violation, all_subsemimodules, generators, is_cancellable,
                   is_cancellative_module, is_subtractive, make_boolean,
                   make_natural_quotient, make_product, make_saturating_naturals,
                   make_truncated_minplus, make_zmod, module_from_monoid,
                   monoid_semiring, self_module, subtractive_closure,
                   subtractive_closure_set, validate_semimodule, validate_semiring,
                   zero_module)
from .errors import (HypothesisError, LemmaRefuted, ParameterError, PreconditionError,
                     SemiexactError, StructureError, WorkspaceError)
from .exactness import (ExactnessVerdict, KerCokerResult, Sequence, ShortExactResult,
                        SubobjectCharacter, analyze, is_short_exact,
                        ker_coker_sequence, short_sequence, subobject_character)
from .morphisms import (Morphism, MorphismClassification, canonical_iso, classify,
                        cokernel, coimage, compose, enumerate_hom, hom_add,
                        identity_morphism, image, induced_from_cokernel,
                        induced_to_kernel, is_cancellative_morphism, kernel,
                        submodule_as_module, zero_morphism)
from .quotients import (Congruence, QuotientModule, bourne_congruence,
                        kernel_pair_congruence, projection_kernel_is_closure, quotient)

__all__ = [n for n in dir() if not n.startswith("_")]
