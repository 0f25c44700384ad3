"""Exception types shared across the package."""


class SubconvergeError(Exception):
    """Base class for all package errors."""


class _IndexedError(SubconvergeError):
    """An error at a known position: ``index`` is the step (or stored
    value) where it happened, when known."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DomainError(_IndexedError):
    """A state left the declared invariant domain."""


class NonFiniteError(_IndexedError):
    """An evaluation produced inf or NaN (typically exponential overflow)."""


class CriterionInapplicableError(SubconvergeError):
    """The sublinearity hypothesis fails arbitrarily close to the origin."""


class BoundValidationError(SubconvergeError):
    """A bounding function failed its validity checks."""


class FoldError(_IndexedError):
    """A planar system cannot be folded (no solvability form, no
    preimage, or consistency failure).  ``index`` is the step n of the
    sigma_n that failed, when known."""


class ModelParameterError(SubconvergeError):
    """Model family parameters violate their admissibility constraints."""


class ConfigError(SubconvergeError):
    """Experiment configuration is malformed."""
