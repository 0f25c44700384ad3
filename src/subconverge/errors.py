"""Exception types shared across the package."""


class SubconvergeError(Exception):
    """Base class for all package errors."""


class DomainError(SubconvergeError):
    """A state left the declared invariant domain."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NonFiniteError(SubconvergeError):
    """An evaluation produced inf or NaN (typically exponential overflow)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SequenceBoundError(SubconvergeError):
    """A stored parameter value violates its declared inf/sup."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class CriterionInapplicableError(SubconvergeError):
    """The sublinearity hypothesis fails arbitrarily close to the origin."""


class BoundValidationError(SubconvergeError):
    """A bounding function failed its validity checks."""


class FoldError(SubconvergeError):
    """A planar system cannot be folded (no solvability form, no
    preimage, or consistency failure).  ``index`` is the step n of the
    sigma_n that failed, when known."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ModelParameterError(SubconvergeError):
    """Model family parameters violate their admissibility constraints."""


class ConfigError(SubconvergeError):
    """Experiment configuration is malformed."""
