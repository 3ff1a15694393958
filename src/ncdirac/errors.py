"""Exception types shared across the package."""


class DegreeError(ValueError):
    """Operator commutators are defined only for polynomials of degree <= 1."""


class HbarError(ValueError):
    """The deformed Hamiltonian is undefined: hbar != 1 with theta or eta nonzero."""


class SingularParameterError(ValueError):
    """A closed form divides by a parameter that is zero."""


class GridError(ValueError):
    """Time grid is unusable (too short or nonuniform)."""


class StepError(ValueError):
    """Integration step size is inconsistent with the requested interval."""


class SizeError(ValueError):
    """Truncation size is too small to represent the operators."""


class DimError(ValueError):
    """Matrix and state dimensions do not match."""


class CoverageError(ValueError):
    """Sampled series does not cover the requested integration range."""
