"""Exception types shared across the package."""


class DegreeError(ValueError):
    """Operator commutators are defined only for polynomials of degree <= 1."""


class ConfigError(ValueError):
    """A configuration the model cannot run; the command line exits 2 on it."""
