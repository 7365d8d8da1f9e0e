"""Exception types shared across the package.

The CLI maps these onto exit codes: bad input (ConfigError, DataError,
GeometryError, GridMismatchError, ResolutionError) exits with 64,
numerical failures (solver divergence, unmet accuracy targets) with 2.
"""


class TodalabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TodalabError, ValueError):
    """Invalid parameters, options, or configuration files."""


class GridMismatchError(TodalabError, ValueError):
    """Fields defined on different grids were combined."""


class DataError(TodalabError, ValueError):
    """Non-finite or otherwise unusable field data."""


class SolvabilityError(TodalabError, ValueError):
    """A Poisson right-hand side with nonzero mean on the torus."""

    def __init__(self, mean: float):
        self.mean = mean
        super().__init__(f"right-hand side has nonzero mean {mean:.3e}; "
                         "the periodic Poisson problem is unsolvable")


class GeometryError(TodalabError, ValueError):
    """Test-function windows overlap or fall outside their chart, or a
    conformal factor is not representable on the grid."""


class AccuracyError(TodalabError, RuntimeError):
    """A quadrature, or the metric's grid resolution, missed its tolerance."""


class ResolutionError(TodalabError, RuntimeError):
    """A feature (point separation, bubble width) is unresolvable on the grid."""


class SolverError(TodalabError, RuntimeError):
    """Iterative solver failure; carries the energy trace when available."""

    def __init__(self, message: str, trace=None):
        self.trace = list(trace) if trace is not None else None
        super().__init__(message)
