"""Exception types shared across the package."""


class MomentflowError(Exception):
    """Base class for all package-specific errors."""


class RangeError(MomentflowError, ValueError):
    """An index (r, s, e, ...) lies outside its admissible range."""


class StateError(MomentflowError, ValueError):
    """A semiclassical state violates a structural invariant."""


class ClosureError(MomentflowError, ValueError):
    """The truncation policy does not cover an encountered moment index."""


class ConfigError(MomentflowError, ValueError):
    """Invalid run configuration."""


class DomainError(MomentflowError, ValueError):
    """Evaluation left the model's physical domain (e.g. p <= 0)."""


class CapacityError(MomentflowError, ValueError):
    """A truncated-basis resource limit was exceeded."""


class AdiabaticBreakdownError(MomentflowError, ValueError):
    """1 + U''/(m w^2) dropped below the infrared cutoff."""


class UnsupportedProviderError(MomentflowError, TypeError):
    """Characteristic-function values are not obtainable for this provider."""


class ReconstructionError(MomentflowError, ValueError):
    """Wave-function reconstruction failed (e.g. non-positive density)."""


class DegenerateStateError(MomentflowError, ValueError):
    """A covariance matrix required to be invertible is singular."""
