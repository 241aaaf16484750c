"""Exception types shared across the package, one meaning each.

``gravnav`` exits 2 on a bad input (:class:`ConfigError`, :class:`GridFormatError`,
:class:`OutOfBoundsError`, :class:`NodataError`) and 3 on a :class:`NumericalError`,
which in a campaign fails only its seed; anything else is a bug (exit 1).
An empty gate, a batch without a candidate, a fix off the map or on nodata
and a cell without a gradient are normal outcomes, returned as values.
"""


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
    """A map query on an input touches a nodata cell."""


class NumericalError(GravNavError):
    """An estimator broke down: a value not finite or a covariance not positive definite.

    ``iteration`` holds the iteration index at which the failure surfaced.
    ``rows`` names the failed rows when the input was a stack (one row per
    seed) and the others came through. A run of nav-filter predict steps
    names the step that failed as the ``iteration`` and the ``belief``
    before it.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 rows: tuple[int, ...] | None = None, belief=None):
        self.iteration = iteration
        self.rows = rows
        self.belief = belief
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)


class ConfigError(GravNavError):
    """Invalid scenario configuration."""
