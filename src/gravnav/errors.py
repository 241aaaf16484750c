"""Exception types shared across the package."""


class GravNavError(Exception):
    """Base class for all gravnav errors."""


class GridFormatError(GravNavError):
    """Raster file does not conform to the ASCII grid format.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedGeometryError(GridFormatError):
    """Grid geometry the library does not support (non-square cells)."""


class OutOfBoundsError(GravNavError):
    """Query position lies outside the map extent."""


class NodataError(GravNavError):
    """Query touches a nodata cell."""


class CovarianceError(GravNavError):
    """Covariance matrix is not symmetric positive definite."""


class EmptyWindowError(GravNavError):
    """Search window does not intersect the map."""


class NoFixError(GravNavError):
    """No candidate information available to produce a position fix."""


class NumericalError(GravNavError):
    """Numerical failure (NaN/Inf) inside an iterative estimator.

    ``iteration`` holds the iteration index at which the failure surfaced.
    ``rows`` names the failed rows when the input was a stack (one row per
    seed) and the others came through.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 rows: tuple[int, ...] | None = None):
        self.iteration = iteration
        self.rows = rows
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)


class ConfigError(GravNavError):
    """Invalid scenario configuration."""
