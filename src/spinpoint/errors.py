"""Exception types shared across the package."""


class SpinpointError(Exception):
    """Base class for all spinpoint errors."""


class ParameterDomainError(SpinpointError, ValueError):
    """A physical parameter is outside its admissible domain."""


class InvalidTransferError(SpinpointError, ValueError):
    """A transfer matrix does not conserve the longitudinal current."""


class SpectralSingularityError(SpinpointError, RuntimeError):
    """The S-matrix at this momentum is not finite."""

    def __init__(self, k: float, message: str | None = None):
        self.k = float(k)
        super().__init__(message or f"S-matrix is not finite at k={self.k!r}")


class ConfigError(SpinpointError, ValueError):
    """A run configuration is malformed or semantically invalid."""


class FitWindowError(SpinpointError, ValueError):
    """Too few band points inside the requested fit window."""
