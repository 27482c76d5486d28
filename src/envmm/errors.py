"""Exception types shared across the package.

Every error raised on purpose derives from EnvmmError so callers can
catch domain failures without swallowing programming mistakes.
"""


class EnvmmError(Exception):
    """Base class for all deliberate failures."""


class ShapeMismatch(EnvmmError):
    """Operands live on incompatible spaces or have incompatible shapes,
    including a truncation level or channel count out of range."""


class DegenerateSpec(EnvmmError, ValueError):
    """A prescribed covariance is not symmetric PSD within tolerance, or
    has no positive power where some is needed."""


class BadConfig(EnvmmError):
    """An experiment or builder configuration is malformed."""


class BadGrid(EnvmmError):
    """A frequency grid is too coarse for the covariance sequence."""
