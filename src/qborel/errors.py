"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a run configuration or problem description is malformed."""


class DomainError(ValueError):
    """Raised when an evaluation point violates a domain precondition."""


class ZeroRingError(DomainError):
    """Raised when a kernel zero ring lies near the arc of a sector
    difference; unlike other domain errors, a small move of eps mends it."""


class GeometryError(RuntimeError):
    """Raised when a sector/root geometry requirement cannot be met."""


class DivergenceError(RuntimeError):
    """Raised when an iteration diverges instead of contracting."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class UsageError(ValueError):
    """Raised for invalid CLI commands or operator misuse."""
