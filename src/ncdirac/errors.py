"""Exception types shared across the package."""


class DegreeError(ValueError):
    """Operator commutators are defined only for polynomials of degree <= 1."""


class ConfigError(ValueError):
    """A configuration the model cannot run; the command line exits 2 on it."""


class GridError(ValueError):
    """Time grid is unusable (too short or nonuniform)."""


class SizeError(ValueError):
    """Truncation size is too small to represent the operators."""


class DimError(ValueError):
    """Matrix and state dimensions do not match."""


class CoverageError(ValueError):
    """Sampled series does not cover the requested integration range."""
