"""Geo-referenced scalar raster maps and gated candidate lookup.

A :class:`GridMap` stores a scalar field (e.g. vertical gravity in m/s^2) on a
uniform square grid in a local planar East-North frame. Candidate lookup scans
the cells inside the gating ellipse of a position prior for values compatible
with a sensed scalar and returns them in a deterministic order. The module
also provides the local feature-variability statistic used to judge how
informative a map region is.

All operations are pure functions of their inputs; a loaded map is never
mutated and may be shared freely across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CovarianceError,
    EmptyWindowError,
    GridFormatError,
    NodataError,
    NumericalError,
    OutOfBoundsError,
    UnsupportedGeometryError,
)

__all__ = [
    "GridMap",
    "CandidateSet",
    "load_grid",
    "save_grid",
    "value_at",
    "gradient_at",
    "lookup_candidates",
    "feature_variability",
    "variability_field",
    "normalize_variability",
]

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_CHECK_CELLS = 1 << 16  # cells per chunk of the finiteness check: no map-sized temporary


def plain_point(pos) -> tuple[float, ...]:
    """``pos`` as a tuple of Python floats, which print as plain numbers in
    a message (a numpy 2 scalar prints as ``np.float64(...)``)."""
    return tuple(map(float, pos))


@dataclass(frozen=True)
class GridMap:
    """Scalar raster with uniform square cells.

    ``values`` is an (n_rows, n_cols) array in row-major order with the
    northernmost row first; ``origin`` is the lower-left (south-west) corner
    of the lower-left cell in meters. Cell centers therefore sit at
    ``origin + (col + 0.5, rows_from_south + 0.5) * cell_size``.
    """

    n_rows: int
    n_cols: int
    origin: np.ndarray
    cell_size: float
    values: np.ndarray
    nodata: float = -9999.0

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        vals = np.asarray(self.values, dtype=float).reshape(self.n_rows, self.n_cols)
        object.__setattr__(self, "values", vals)
        if self.n_rows < 2 or self.n_cols < 2:
            raise ValueError("grid must be at least 2x2")
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        if not (math.isfinite(self.cell_size) and np.isfinite(self.origin).all()):
            raise ValueError("origin and cell_size must be finite")
        step = max(1, _CHECK_CELLS // self.n_cols)
        for r0 in range(0, self.n_rows, step):
            rows = vals[r0:r0 + step]
            if not (np.isfinite(rows) | (rows == self.nodata)).all():
                raise ValueError("non-nodata values must be finite")

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) outer bounds in meters."""
        x0, y0 = plain_point(self.origin)
        return (x0, x0 + self.n_cols * self.cell_size,
                y0, y0 + self.n_rows * self.cell_size)

    def in_bounds(self, pos) -> bool:
        x, y = float(pos[0]), float(pos[1])
        xmin, xmax, ymin, ymax = self.extent
        return xmin <= x <= xmax and ymin <= y <= ymax

    def cell_center(self, row: int, col: int) -> np.ndarray:
        """Center of the cell at (row, col); row 0 is the northern edge."""
        x0, y0 = self.origin
        h = self.cell_size
        x = x0 + (col + 0.5) * h
        y = y0 + (self.n_rows - 1 - row + 0.5) * h
        return np.array([x, y])

    def cell_of(self, pos) -> tuple[int, int]:
        """(row, col) of the cell containing ``pos`` (clamped to the grid)."""
        if not self.in_bounds(pos):
            raise OutOfBoundsError(
                f"position {plain_point(pos)} outside map extent {self.extent}")
        x0, y0 = self.origin
        h = self.cell_size
        col = min(int((float(pos[0]) - x0) / h), self.n_cols - 1)
        row_s = min(int((float(pos[1]) - y0) / h), self.n_rows - 1)
        return self.n_rows - 1 - row_s, col


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Gated candidate cells for one field measurement, one row per cell.

    ``locations`` holds the cell centers, ``grads`` the finite-difference
    field gradients there (see :func:`gradient_at`), ``residuals`` the
    absolute value residuals against ``measurement`` and ``cells`` the
    (row, col) indices; each column is a read-only array. Rows are sorted
    ascending by value residual, ties broken by distance to the prior mean,
    then by row-major cell index.
    """

    locations: np.ndarray
    grads: np.ndarray
    residuals: np.ndarray
    cells: np.ndarray
    measurement: float
    sigma: float

    def __post_init__(self):
        n = len(self.residuals)
        for name, shape, dtype in (("locations", (n, 2), float), ("grads", (n, 2), float),
                                   ("residuals", (n,), float), ("cells", (n, 2), int)):
            column = np.array(getattr(self, name), dtype=dtype).reshape(shape)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def empty(cls, measurement: float, sigma: float) -> "CandidateSet":
        return cls((), (), (), (), float(measurement), float(sigma))

    def __len__(self) -> int:
        return len(self.residuals)


def load_grid(path) -> GridMap:
    """Parse an ASCII grid file.

    Header lines ``ncols``, ``nrows``, ``xllcorner``, ``yllcorner``,
    ``cellsize``, ``nodata_value`` followed by ``nrows`` lines of ``ncols``
    whitespace-separated floats, north row first.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise GridFormatError(f"grid file {path} is not UTF-8 text: "
                                  f"byte {exc.start} cannot be decoded") from None

    header: dict[str, float] = {}
    idx = 0
    while idx < len(lines) and len(header) < len(_HEADER_KEYS):
        tokens = lines[idx].split()
        if not tokens:
            idx += 1
            continue
        key = tokens[0].lower()
        if key in ("dx", "dy"):
            raise UnsupportedGeometryError(
                "dx/dy headers (non-square cells) are not supported", line=idx + 1)
        if key not in _HEADER_KEYS:
            raise GridFormatError(f"unexpected header key {tokens[0]!r}", line=idx + 1)
        if key in header:
            raise GridFormatError(f"duplicate header key {tokens[0]!r}", line=idx + 1)
        if len(tokens) != 2:
            raise GridFormatError(f"header {tokens[0]!r} needs exactly one value", line=idx + 1)
        try:
            header[key] = float(tokens[1])
        except ValueError:
            raise GridFormatError(f"cannot parse value {tokens[1]!r}", line=idx + 1) from None
        value = header[key]
        if key != "nodata_value" and not math.isfinite(value):
            raise GridFormatError(f"{key} must be finite, got {tokens[1]}", line=idx + 1)
        if key in ("ncols", "nrows") and not value.is_integer():
            raise GridFormatError(f"{key} must be an integer", line=idx + 1)
        if key in ("ncols", "nrows") and value < 2:
            raise GridFormatError(f"{key} must be >= 2, got {int(value)}", line=idx + 1)
        if key == "cellsize" and not value > 0:
            raise GridFormatError(f"cellsize must be positive, got {value}", line=idx + 1)
        idx += 1

    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise GridFormatError(f"missing header keys: {', '.join(missing)}", line=idx)

    n_cols, n_rows = int(header["ncols"]), int(header["nrows"])

    rows = []
    for r in range(n_rows):
        line_no = idx + r + 1
        if idx + r >= len(lines):
            raise GridFormatError(f"expected {n_rows} data rows, file ends after {r}", line=line_no - 1)
        tokens = lines[idx + r].split()
        if len(tokens) != n_cols:
            raise GridFormatError(
                f"expected {n_cols} values, got {len(tokens)}", line=line_no)
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            raise GridFormatError("cannot parse data value", line=line_no) from None

    trailing = [ln for ln in lines[idx + n_rows:] if ln.strip()]
    if trailing:
        raise GridFormatError("trailing data after grid rows", line=idx + n_rows + 1)

    try:
        return GridMap(
            n_rows=n_rows,
            n_cols=n_cols,
            origin=np.array([header["xllcorner"], header["yllcorner"]]),
            cell_size=header["cellsize"],
            values=np.array(rows, dtype=float),
            nodata=header["nodata_value"],
        )
    except ValueError as exc:
        raise GridFormatError(str(exc)) from None


def save_grid(grid: GridMap, path) -> None:
    """Write ``grid`` in the ASCII format read by :func:`load_grid`.

    Floats are serialized with 17 significant digits so a save/load round
    trip is bit-exact.
    """
    def f(x: float) -> str:
        return format(float(x), ".17g")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ncols {grid.n_cols}\n")
        fh.write(f"nrows {grid.n_rows}\n")
        fh.write(f"xllcorner {f(grid.origin[0])}\n")
        fh.write(f"yllcorner {f(grid.origin[1])}\n")
        fh.write(f"cellsize {f(grid.cell_size)}\n")
        fh.write(f"nodata_value {f(grid.nodata)}\n")
        for r in range(grid.n_rows):
            fh.write(" ".join(f(v) for v in grid.values[r]) + "\n")


def value_at(grid: GridMap, pos) -> float:
    """Bilinearly interpolated field value at ``pos``.

    Interpolation runs between cell centers; inside the half-cell margin
    along the map edge the fractional index is clamped, so edge queries
    degrade to nearest-cell values. Exact cell-center queries return the
    stored value.
    """
    if not grid.in_bounds(pos):
        raise OutOfBoundsError(f"position {plain_point(pos)} outside map extent {grid.extent}")
    x0, y0 = grid.origin
    h = grid.cell_size
    gx = (float(pos[0]) - x0) / h - 0.5
    gy = (float(pos[1]) - y0) / h - 0.5  # fractional row index counted from the south
    gx = min(max(gx, 0.0), grid.n_cols - 1.0)
    gy = min(max(gy, 0.0), grid.n_rows - 1.0)
    c0 = min(int(gx), grid.n_cols - 2)
    s0 = min(int(gy), grid.n_rows - 2)
    fx = gx - c0
    fy = gy - s0
    r_lo = grid.n_rows - 1 - s0        # array row of the southern pair
    r_hi = grid.n_rows - 1 - (s0 + 1)  # array row of the northern pair
    v = grid.values
    corners = (v[r_lo, c0], v[r_lo, c0 + 1], v[r_hi, c0], v[r_hi, c0 + 1])
    if any(c == grid.nodata for c in corners):
        raise NodataError(f"nodata cell touches interpolation stencil at {plain_point(pos)}")
    sw, se, nw, ne = corners
    return float((1 - fy) * ((1 - fx) * sw + fx * se) + fy * ((1 - fx) * nw + fx * ne))


def gradient_at(grid: GridMap, pos) -> np.ndarray:
    """Finite-difference field gradient (d/dEast, d/dNorth) at ``pos``.

    Central differences on the cell grid around the cell containing ``pos``;
    one-sided at the map edge.
    """
    row, col = grid.cell_of(pos)
    return _cell_gradients(grid, np.array([row]), np.array([col]))[0]


def _cell_gradients(grid: GridMap, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(n, 2) gradients of :func:`gradient_at` at the given cells.

    Raises :class:`NodataError` naming the first cell, in the given order,
    whose stencil touches a nodata cell.
    """
    h = grid.cell_size
    v = grid.values
    c_lo, c_hi = np.maximum(cols - 1, 0), np.minimum(cols + 1, grid.n_cols - 1)
    r_n, r_s = np.maximum(rows - 1, 0), np.minimum(rows + 1, grid.n_rows - 1)
    west, east, north, south = v[rows, c_lo], v[rows, c_hi], v[r_n, cols], v[r_s, cols]
    bad = np.flatnonzero((west == grid.nodata) | (east == grid.nodata)
                         | (north == grid.nodata) | (south == grid.nodata))
    if bad.size:
        k = bad[0]
        raise NodataError(f"nodata cell in gradient stencil at cell ({rows[k]}, {cols[k]})")
    gx = (east - west) / ((c_hi - c_lo) * h)
    gy = (north - south) / ((r_s - r_n) * h)  # row index grows southward
    return np.column_stack([gx, gy])


def lookup_candidates(
    grid: GridMap,
    value: float,
    sigma: float,
    prior_mean,
    prior_cov,
    gamma: float,
    n_max: int,
    k_sig: float,
) -> CandidateSet:
    """Collect map cells compatible with the sensed ``value``.

    The search region is the gating ellipse of the position prior,
    ``{z : (z - m)' C^-1 (z - m) <= gamma}``; the cells scanned are those
    whose centers lie in its tight axis-aligned bounding box, of half extents
    ``sqrt(gamma * C_jj)``. A cell qualifies when its center passes the
    ellipse gate and its value is within ``k_sig * sigma`` of ``value``. At
    most ``n_max`` candidates are returned, best residual first, with
    deterministic tie-breaking.

    ``prior_cov`` must be symmetric, as the nav filter keeps its
    covariances; only its positive definiteness is checked. Raises
    :class:`NumericalError` when the prior mean or covariance is not finite,
    :class:`CovarianceError` when the covariance is not positive definite,
    and :class:`EmptyWindowError` when the box does not contain any cell
    center; a box that contains cells but no compatible values yields an
    empty :class:`CandidateSet`.
    """
    cx, cy = np.asarray(prior_mean, dtype=float)
    cov = np.asarray(prior_cov, dtype=float)
    finite_mean = math.isfinite(cx) and math.isfinite(cy)
    eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    if not (finite_mean and eigvals.min() > 0):
        # eigvalsh gives NaN for a covariance that is not finite
        if not finite_mean or np.isnan(eigvals).any():
            raise NumericalError("position prior is not finite")
        raise CovarianceError(f"prior covariance is not positive definite (eigs {eigvals})")
    hx, hy = np.sqrt(gamma * np.diag(cov))
    x0, y0 = grid.origin
    h = grid.cell_size

    c_lo = max(int(math.ceil((cx - hx - x0) / h - 0.5)), 0)
    c_hi = min(int(math.floor((cx + hx - x0) / h - 0.5)), grid.n_cols - 1)
    s_lo = max(int(math.ceil((cy - hy - y0) / h - 0.5)), 0)
    s_hi = min(int(math.floor((cy + hy - y0) / h - 0.5)), grid.n_rows - 1)
    if c_lo > c_hi or s_lo > s_hi:
        raise EmptyWindowError("search window contains no map cell centers")

    cols = np.arange(c_lo, c_hi + 1)
    srows = np.arange(s_lo, s_hi + 1)
    rows = grid.n_rows - 1 - srows
    xs = x0 + (cols + 0.5) * h
    ys = y0 + (srows + 0.5) * h
    vals = grid.values[np.ix_(rows, cols)]

    live = np.isfinite(vals) & (vals != grid.nodata)
    resid = np.abs(vals - value)
    ok = live & (resid <= k_sig * sigma)

    # Ellipsoidal gate inside the rectangle (stricter than the rectangle alone).
    gx, gy = np.meshgrid(xs - cx, ys - cy, indexing="xy")
    sinv = np.linalg.inv(cov)
    quad = (sinv[0, 0] * gx * gx + (sinv[0, 1] + sinv[1, 0]) * gx * gy
            + sinv[1, 1] * gy * gy)
    ok &= quad <= gamma

    si, ci = np.nonzero(ok)
    locs = np.column_stack([xs[ci], ys[si]])
    residuals = resid[si, ci]
    dists = np.hypot(locs[:, 0] - cx, locs[:, 1] - cy)
    arr_rows = rows[si]
    arr_cols = cols[ci]
    rowmajor = arr_rows * grid.n_cols + arr_cols
    order = np.lexsort((rowmajor, dists, residuals))[: int(n_max)]
    cells = np.column_stack([arr_rows[order], arr_cols[order]])
    return CandidateSet(locs[order], _cell_gradients(grid, cells[:, 0], cells[:, 1]),
                        residuals[order], cells, float(value), float(sigma))


def feature_variability(grid: GridMap, center_cell: tuple[int, int], template_half_width: int) -> float:
    """Mean squared deviation of the map around a cell.

    Over a square template of side ``2 * template_half_width + 1`` cells,
    clipped to the map, returns ``mean((m_center - m_j)^2)`` across all
    non-center cells j. Zero on locally constant maps; scales with the
    square of any value scaling; invariant to adding a constant.
    """
    row, col = center_cell
    if not (0 <= row < grid.n_rows and 0 <= col < grid.n_cols):
        raise OutOfBoundsError(f"center cell {center_cell} outside grid")
    if template_half_width < 0:
        raise ValueError("template_half_width must be >= 0")
    center_val = grid.values[row, col]
    if center_val == grid.nodata or not np.isfinite(center_val):
        raise NodataError(f"center cell {center_cell} has no data")
    r0, r1 = max(row - template_half_width, 0), min(row + template_half_width, grid.n_rows - 1)
    c0, c1 = max(col - template_half_width, 0), min(col + template_half_width, grid.n_cols - 1)
    tmpl = grid.values[r0:r1 + 1, c0:c1 + 1]
    mask = np.isfinite(tmpl) & (tmpl != grid.nodata)
    mask[row - r0, col - c0] = False
    others = tmpl[mask]
    if others.size == 0:
        raise ValueError("clipped template must contain at least 2 usable cells")
    return float(np.mean((center_val - others) ** 2))


def variability_field(grid: GridMap, template_half_width: int) -> np.ndarray:
    """Feature variability of every cell, via integral images.

    Equivalent to calling :func:`feature_variability` at each cell (boundary
    templates clipped identically) but O(cells) instead of O(cells * template).
    Requires a map without nodata cells.
    """
    if template_half_width < 0:
        raise ValueError("template_half_width must be >= 0")
    v = grid.values
    if (v == grid.nodata).any():
        raise NodataError("variability_field requires a map without nodata cells")
    w = template_half_width

    def box_sum(arr: np.ndarray) -> np.ndarray:
        sat = np.zeros((arr.shape[0] + 1, arr.shape[1] + 1))
        np.cumsum(np.cumsum(arr, axis=0), axis=1, out=sat[1:, 1:])
        rows, cols = arr.shape
        r = np.arange(rows)
        c = np.arange(cols)
        r0, r1 = np.maximum(r - w, 0), np.minimum(r + w, rows - 1) + 1
        c0, c1 = np.maximum(c - w, 0), np.minimum(c + w, cols - 1) + 1
        return (sat[np.ix_(r1, c1)] - sat[np.ix_(r0, c1)]
                - sat[np.ix_(r1, c0)] + sat[np.ix_(r0, c0)])

    ones = np.ones_like(v)
    n_all = box_sum(ones)
    s1 = box_sum(v)
    s2 = box_sum(v * v)
    n_others = n_all - 1
    if (n_others <= 0).any():
        raise ValueError("template too small: every cell needs at least one neighbor")
    # sum_j (m_i - m_j)^2 over the template minus the center term (which is 0)
    total = n_all * v * v - 2.0 * v * s1 + s2
    return np.maximum(total / n_others, 0.0)


def normalize_variability(history, window_len: int) -> float:
    """Current variability divided by the trailing-window maximum.

    ``history`` is the chronological sequence of raw variability values with
    the current value last. Returns a value in [0, 1]; an all-zero trailing
    window (and a zero current value) map to 0.
    """
    if len(history) == 0:
        raise ValueError("history must be non-empty")
    if window_len < 1:
        raise ValueError("window_len must be >= 1")
    current = float(history[-1])
    trailing = [float(v) for v in history[-window_len:]]
    peak = max(trailing)
    if current <= 0.0 or peak <= 0.0:
        return 0.0
    return current / peak
