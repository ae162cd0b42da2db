"""Exception taxonomy shared across the package.

Structural problems (bad table shapes, dangling references) are kept
distinct from axiom violations, which validators report as data, and
from hypothesis failures, which diagram verifiers raise before any
conclusion is asserted.
"""


class SemiexactError(Exception):
    pass


class StructureError(SemiexactError):
    """Malformed input: wrong table dimensions, out-of-range index, bad shape."""


class ParameterError(SemiexactError):
    """Invalid parameter to a builder or a search (unknown property id, n < 2, ...)."""


class PreconditionError(SemiexactError):
    """A documented operation precondition does not hold (e.g. g∘f != 0)."""


class HypothesisError(SemiexactError):
    """A lemma hypothesis failed re-verification; no verdict is produced.

    `where`, when given, is the file:line of the input the hypothesis was
    checked on; it prefixes the message and leaves assertion_id and
    witness as they are.
    """

    def __init__(self, assertion_id, witness="-", where=None):
        self.assertion_id = assertion_id
        self.witness = witness
        message = f"hypothesis {assertion_id} violated ({witness})"
        super().__init__(message if where is None else f"{where}: {message}")


class LemmaRefuted(SemiexactError):
    """A verified lemma conclusion failed on a hypothesis-satisfying instance.

    This never indicates new mathematics; it indicates a bug in this package
    or in the instance generator, and is surfaced loudly.
    """


class WorkspaceError(SemiexactError):
    """Aggregate of located parse/validation errors for one workspace."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("\n".join(str(p) for p in self.problems))
