"""Exception types shared across the package.

Every error raised on purpose derives from EnvmmError so callers can
catch domain failures without swallowing programming mistakes.
"""


class EnvmmError(Exception):
    """Base class for all deliberate failures."""


class ShapeMismatch(EnvmmError):
    """Operands live on incompatible spaces or have incompatible shapes."""


class BadTruncation(EnvmmError):
    """Truncation level outside the valid range for the object."""


class DegenerateSpec(EnvmmError, ValueError):
    """A prescribed covariance is not symmetric PSD within tolerance, or
    has no positive power where some is needed."""


class BadConfig(EnvmmError):
    """An experiment or builder configuration is malformed."""


class BadGrid(EnvmmError):
    """A frequency grid is too coarse for the covariance sequence."""


class EmbeddingNotPSD(EnvmmError):
    """The periodic extension of a covariance sequence is indefinite."""


class WrongDimension(EnvmmError):
    """An operation restricted to a fixed channel count got something else."""
