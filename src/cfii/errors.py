"""Exception types shared across the package.

Everything derives from CfiiError so callers (and the CLI) can map any
numerical-degeneracy failure to a single exit path while still catching
specific conditions when they care.
"""


class CfiiError(Exception):
    """Base class for all package-specific errors."""


class DegenerateModelError(CfiiError, ValueError):
    """A probability needed by the computation is zero (or the model is
    irregular: zero probability with a nonzero derivative)."""


class NonPositiveFiError(CfiiError, ValueError):
    """A Fisher information that must be strictly positive is not."""


class ResistanceOverflowError(CfiiError, ValueError):
    """A positive Fisher information whose inverse (an information
    resistance), a sum of such inverses, 1/F^4 or F^4 overflows, or a
    finite Fisher matrix whose largest eigenvalue, resistance u^T F^+ u or
    its inverse does."""


class NotPositiveDefiniteError(CfiiError, ValueError):
    """A joint information matrix fails positive definiteness."""


class NonStochasticChannelError(CfiiError, ValueError):
    """A coarse-graining channel has negative entries or rows that do not
    sum to one."""


class OptimizationError(CfiiError, RuntimeError):
    """A numerical optimization could not produce a usable result."""


class NoCrossingError(CfiiError, RuntimeError):
    """No sign change of the target function inside the search interval."""


class DegenerateBenchmarkError(CfiiError, ValueError):
    """A module Fisher information vanishes, so the harmonic benchmark
    (and hence the saturation ratio) is undefined."""


class EstimationError(CfiiError, ValueError):
    """A finite-sample estimate is unusable (e.g. an empirical standard
    error of 0, or a classifier score that overflows)."""

