"""Exception hierarchy.

Validation-style operations (verify_*, validate_*) report failures as data,
not exceptions; exceptions are for violated preconditions and structural
misuse.
"""


class OrbiparError(Exception):
    """Base class for all orbipar errors."""


class StructuralError(OrbiparError):
    """Mismatched fields, precisions or shapes between operands."""


class DomainError(OrbiparError):
    """Input outside an operation's mathematical domain."""


class NotInvertibleError(DomainError):
    """Inversion of a non-unit; carries the valuation of the offending value."""

    def __init__(self, message, valuation=None):
        super().__init__(message)
        self.valuation = valuation


class ConfigurationError(OrbiparError):
    """Unsatisfiable construction request (missing roots of unity, bad tower data...)."""


class AssemblyError(OrbiparError):
    """Product-module condition (A)/(B)/(C) violation; names the condition and indices."""

    def __init__(self, message, condition=None, indices=None):
        super().__init__(message)
        self.condition = condition
        self.indices = indices


class RankDeficiencyError(OrbiparError):
    """Invariant extraction found fewer generators than the rank within trustworthy precision."""

    def __init__(self, message, found=None, expected=None):
        super().__init__(message)
        self.found = found
        self.expected = expected


class PrecisionError(OrbiparError):
    """Requested precision exceeds what the inputs can support."""

    def __init__(self, message, achievable=None):
        super().__init__(message)
        self.achievable = achievable


class ScenarioError(OrbiparError):
    """Malformed scenario file or unresolved reference."""
