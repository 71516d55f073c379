"""Exception types shared across the package."""


class CurveflowError(Exception):
    """Base class for all package-specific failures."""


class HypothesisError(CurveflowError):
    """A curve (or parameter set) violates a required analytic hypothesis."""


class CoverageError(CurveflowError):
    """A grid function does not cover the domain an operation needs to read."""

    def __init__(self, message: str, missing_extent: tuple | None = None):
        super().__init__(message)
        self.missing_extent = missing_extent


class NonFiniteError(CurveflowError):
    """An input carries NaN or inf samples, which one FFT spreads to every output."""


class GeometryError(CurveflowError):
    """A covering construction has no admissible configuration."""
