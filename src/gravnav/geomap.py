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


def grid_extent(x0: float, y0: float, cell_size: float, n_rows: int,
                n_cols: int) -> tuple[float, float, float, float]:
    """(xmin, xmax, ymin, ymax) outer bounds in meters of an ``n_rows`` by
    ``n_cols`` grid of ``cell_size`` cells whose lower-left corner is at
    ``(x0, y0)``: the extent of a :class:`GridMap`, from its geometry alone."""
    x0, y0 = float(x0), float(y0)
    return (x0, x0 + n_cols * cell_size, y0, y0 + n_rows * cell_size)


@dataclass(frozen=True)
class GridMap:
    """Scalar raster with uniform square cells.

    ``values`` is a 2-D array of shape ``(n_rows, n_cols)`` in row-major
    order with the northernmost row first; ``origin`` is the lower-left
    (south-west) corner of the lower-left cell in meters. Cell centers
    therefore sit at ``origin + (col + 0.5, rows_from_south + 0.5) * cell_size``.
    """

    origin: np.ndarray
    cell_size: float
    values: np.ndarray
    nodata: float = -9999.0

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or self.n_rows < 2 or self.n_cols < 2:
            raise ValueError("grid values must be a 2-D array of at least 2x2, "
                             f"got shape {vals.shape}")
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
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) outer bounds in meters."""
        return grid_extent(*self.origin, self.cell_size, self.n_rows, self.n_cols)

    def in_bounds(self, pos):
        """Whether ``pos``, a ``(2,)`` point or an ``(..., 2)`` array of
        points, lies on the map, edges included: a bool at a point, else a
        mask of the points' leading shape."""
        pos = np.asarray(pos, dtype=float)
        xmin, xmax, ymin, ymax = self.extent
        return ((xmin <= pos[..., 0]) & (pos[..., 0] <= xmax)
                & (ymin <= pos[..., 1]) & (pos[..., 1] <= ymax))

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


def _parse_header(lines) -> tuple[dict[str, float], int]:
    """The header of a grid file whose lines ``lines`` yields, and the number
    of lines it took, blank ones included.

    Reads no line past the last header key. A header fault raises
    :class:`GridFormatError` naming its 1-based line.
    """
    header: dict[str, float] = {}
    idx = 0
    lines = iter(lines)
    while len(header) < len(_HEADER_KEYS) and (line := next(lines, None)) is not None:
        idx += 1
        tokens = line.split()
        if not tokens:
            continue
        key = tokens[0].lower()
        if key in ("dx", "dy"):
            raise UnsupportedGeometryError(
                "dx/dy headers (non-square cells) are not supported", line=idx)
        if key not in _HEADER_KEYS:
            raise GridFormatError(f"unexpected header key {tokens[0]!r}", line=idx)
        if key in header:
            raise GridFormatError(f"duplicate header key {tokens[0]!r}", line=idx)
        if len(tokens) != 2:
            raise GridFormatError(f"header {tokens[0]!r} needs exactly one value", line=idx)
        try:
            header[key] = float(tokens[1])
        except ValueError:
            raise GridFormatError(f"cannot parse value {tokens[1]!r}", line=idx) from None
        value = header[key]
        if key != "nodata_value" and not math.isfinite(value):
            raise GridFormatError(f"{key} must be finite, got {tokens[1]}", line=idx)
        if key in ("ncols", "nrows") and not value.is_integer():
            raise GridFormatError(f"{key} must be an integer", line=idx)
        if key in ("ncols", "nrows") and value < 2:
            raise GridFormatError(f"{key} must be >= 2, got {int(value)}", line=idx)
        if key == "cellsize" and not value > 0:
            raise GridFormatError(f"cellsize must be positive, got {value}", line=idx)

    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise GridFormatError(f"missing header keys: {', '.join(missing)}", line=idx)
    return header, idx


def _grid_lines(fh, path):
    """The lines of the grid file open in binary as ``fh``: those of
    ``str.splitlines`` of its UTF-8 text, decoded one b"\\n"-line at a time.

    A byte that does not decode raises :class:`GridFormatError` naming its
    offset in the file, when the line that holds it is reached.
    """
    # Every UTF-8 text line ends at a b"\n" and no character holds that
    # byte, so splitting each decoded b"\n"-line gives the file's lines.
    offset = 0
    for raw in fh:
        try:
            yield from raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise GridFormatError(f"grid file {path} is not UTF-8 text: byte "
                                  f"{offset + exc.start} cannot be decoded") from None
        offset += len(raw)


def read_grid_extent(path) -> tuple[float, float, float, float]:
    """The extent of the grid file at ``path``, read from its header alone.

    It equals ``load_grid(path).extent`` for a file :func:`load_grid` reads.
    The header is read as :func:`load_grid` reads it, and its faults raise
    the same errors; no line past the header is read.
    """
    with open(path, "rb") as fh:
        header = _parse_header(_grid_lines(fh, path))[0]
    return grid_extent(header["xllcorner"], header["yllcorner"], header["cellsize"],
                       int(header["nrows"]), int(header["ncols"]))


def load_grid(path) -> GridMap:
    """Parse an ASCII grid file.

    Header lines ``ncols``, ``nrows``, ``xllcorner``, ``yllcorner``,
    ``cellsize``, ``nodata_value`` (:func:`_parse_header`) followed by
    ``nrows`` lines of ``ncols`` whitespace-separated floats, north row first.
    Each row is parsed straight into the map's array, so the file is held
    one line at a time. The first fault in file order raises
    :class:`GridFormatError` naming its line, or its byte if not UTF-8.
    """
    with open(path, "rb") as fh:
        lines = _grid_lines(fh, path)
        header, idx = _parse_header(lines)
        n_cols, n_rows = int(header["ncols"]), int(header["nrows"])
        try:
            values = np.empty((n_rows, n_cols))
        except (MemoryError, ValueError):
            raise GridFormatError(f"a {n_rows} x {n_cols} grid does not fit in memory",
                                  line=idx) from None
        for r in range(n_rows):
            line_no = idx + r + 1
            line = next(lines, None)
            if line is None:
                raise GridFormatError(f"expected {n_rows} data rows, file ends after {r}",
                                      line=line_no - 1)
            tokens = line.split()
            if len(tokens) != n_cols:
                raise GridFormatError(
                    f"expected {n_cols} values, got {len(tokens)}", line=line_no)
            try:
                values[r] = list(map(float, tokens))
            except ValueError:
                raise GridFormatError("cannot parse data value", line=line_no) from None
        if any(line.strip() for line in lines):
            raise GridFormatError("trailing data after grid rows", line=idx + n_rows + 1)

    try:
        return GridMap(
            origin=np.array([header["xllcorner"], header["yllcorner"]]),
            cell_size=header["cellsize"],
            values=values,
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


def value_at(grid: GridMap, pos) -> float | np.ndarray:
    """Bilinearly interpolated field value at ``pos``, a ``(2,)`` point or an
    ``(..., 2)`` array of points: a float (an ``np.float64``) at a point, else
    an array of the points' leading shape.

    Interpolation runs between cell centers; inside the half-cell margin
    along the map edge the fractional index is clamped, so edge queries
    degrade to nearest-cell values. Exact cell-center queries return the
    stored value. The first point off the map raises
    :class:`OutOfBoundsError`, else the first whose stencil touches a nodata
    cell raises :class:`NodataError`.
    """
    pos = np.asarray(pos, dtype=float)
    off = ~grid.in_bounds(pos)
    if off.any():
        raise OutOfBoundsError(
            f"position {_first_point(pos, off)} outside map extent {grid.extent}")
    x0, y0 = grid.origin
    h = grid.cell_size
    # Fractional column and row indices; rows are counted from the south.
    gx = np.clip((pos[..., 0] - x0) / h - 0.5, 0.0, grid.n_cols - 1.0)
    gy = np.clip((pos[..., 1] - y0) / h - 0.5, 0.0, grid.n_rows - 1.0)
    c0 = np.minimum(gx.astype(int), grid.n_cols - 2)
    s0 = np.minimum(gy.astype(int), grid.n_rows - 2)
    fx = gx - c0
    fy = gy - s0
    r_lo = grid.n_rows - 1 - s0  # array row of the southern pair; the northern is above it
    v = grid.values
    sw, se, nw, ne = v[r_lo, c0], v[r_lo, c0 + 1], v[r_lo - 1, c0], v[r_lo - 1, c0 + 1]
    hole = (sw == grid.nodata) | (se == grid.nodata) | (nw == grid.nodata) | (ne == grid.nodata)
    if hole.any():
        raise NodataError(
            f"nodata cell touches interpolation stencil at {_first_point(pos, hole)}")
    return (1 - fy) * ((1 - fx) * sw + fx * se) + fy * ((1 - fx) * nw + fx * ne)


def _first_point(pos: np.ndarray, mask) -> tuple[float, ...]:
    """The first point of ``pos``, an ``(..., 2)`` array, where ``mask`` is
    set, in plain numbers."""
    return plain_point(pos.reshape(-1, 2)[np.flatnonzero(mask)[0]])


def gradient_at(grid: GridMap, pos) -> np.ndarray:
    """Finite-difference field gradient (d/dEast, d/dNorth) at ``pos``.

    Central differences on the cell grid around the cell containing ``pos``;
    one-sided at the map edge. Raises :class:`NodataError` naming the cell
    when its stencil touches a nodata cell.
    """
    row, col = grid.cell_of(pos)
    rows, cols = np.array([row]), np.array([col])
    if _no_gradient(grid, rows, cols)[0]:
        raise NodataError(f"nodata cell in gradient stencil at cell ({row}, {col})")
    return _cell_gradients(grid, rows, cols)[0]


def _stencil(grid: GridMap, rows, cols) -> tuple[np.ndarray, ...]:
    """West and east columns and north and south rows of each cell's
    central-difference stencil, one-sided at the map edge."""
    c_lo, c_hi = np.maximum(cols - 1, 0), np.minimum(cols + 1, grid.n_cols - 1)
    r_n, r_s = np.maximum(rows - 1, 0), np.minimum(rows + 1, grid.n_rows - 1)
    return c_lo, c_hi, r_n, r_s


def _no_gradient(grid: GridMap, rows, cols) -> np.ndarray:
    """(n,) mask of the given cells without a gradient: their stencil
    touches nodata."""
    v, nodata = grid.values, grid.nodata
    c_lo, c_hi, r_n, r_s = _stencil(grid, rows, cols)
    return ((v[rows, c_lo] == nodata) | (v[rows, c_hi] == nodata)
            | (v[r_n, cols] == nodata) | (v[r_s, cols] == nodata))


def _cell_gradients(grid: GridMap, rows, cols) -> np.ndarray:
    """(n, 2) gradients of :func:`gradient_at` at the given cells, whose
    stencils hold data (see :func:`_no_gradient`)."""
    h = grid.cell_size
    v = grid.values
    c_lo, c_hi, r_n, r_s = _stencil(grid, rows, cols)
    gx = (v[rows, c_hi] - v[rows, c_lo]) / ((c_hi - c_lo) * h)
    gy = (v[r_n, cols] - v[r_s, cols]) / ((r_s - r_n) * h)  # row index grows southward
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
    ellipse gate, its value is within ``k_sig * sigma`` of ``value`` and its
    gradient stencil holds data (the tracker weighs a cell by its gradient).
    At most ``n_max`` candidates are returned, best residual first, with
    deterministic tie-breaking; a box too large for a float covers the map.

    An empty gate is a normal outcome: a box that holds no cell center and a
    box whose cells hold no compatible value both give an empty
    :class:`CandidateSet`. ``prior_cov`` must be symmetric, as the nav filter
    keeps its covariances. A prior mean that is not finite, or a covariance
    that is not finite or not positive definite, raises
    :class:`NumericalError`: the nav filter that made the prior broke down.
    """
    cx, cy = np.asarray(prior_mean, dtype=float)
    cov = np.asarray(prior_cov, dtype=float)
    eigvals = np.linalg.eigvalsh(0.5 * cov + 0.5 * cov.T)
    if not (math.isfinite(cx) and math.isfinite(cy) and eigvals.min() > 0):
        # eigvalsh gives NaN for a covariance that is not finite
        raise NumericalError(f"position prior {plain_point((cx, cy))} is not finite or its "
                             f"covariance not positive definite (eigs {plain_point(eigvals)})")
    x0, y0 = grid.origin
    h = grid.cell_size
    with np.errstate(over="ignore"):  # an infinite box, clamped to the map, covers it
        hx, hy = np.sqrt(gamma * np.diag(cov))
        c_lo = math.ceil(min(max((cx - hx - x0) / h - 0.5, 0.0), grid.n_cols))
        c_hi = math.floor(min(max((cx + hx - x0) / h - 0.5, -1.0), grid.n_cols - 1.0))
        s_lo = math.ceil(min(max((cy - hy - y0) / h - 0.5, 0.0), grid.n_rows))
        s_hi = math.floor(min(max((cy + hy - y0) / h - 0.5, -1.0), grid.n_rows - 1.0))
    if c_lo > c_hi or s_lo > s_hi:
        return CandidateSet.empty(value, sigma)

    # The box, south row first; values are tested before the ellipse.
    box = grid.values[grid.n_rows - 1 - s_hi:grid.n_rows - s_lo, c_lo:c_hi + 1][::-1]
    resid = np.subtract(box, value)
    np.abs(resid, out=resid)
    srows, cols = np.nonzero((resid <= k_sig * sigma) & (box != grid.nodata))
    resid = resid[srows, cols]
    srows += s_lo
    cols += c_lo

    # Ellipsoidal gate inside the rectangle (stricter than the rectangle alone).
    xs, ys = x0 + (cols + 0.5) * h, y0 + (srows + 0.5) * h
    gx, gy = xs - cx, ys - cy
    sinv = np.linalg.inv(cov)
    keep = np.flatnonzero(sinv[0, 0] * gx * gx + (sinv[0, 1] + sinv[1, 0]) * gx * gy
                          + sinv[1, 1] * gy * gy <= gamma)

    # Cells without a gradient drop before ranking; gradients are taken
    # only for the candidates returned.
    rows, cols = grid.n_rows - 1 - srows[keep], cols[keep]
    has_grad = ~_no_gradient(grid, rows, cols)
    keep, rows, cols = keep[has_grad], rows[has_grad], cols[has_grad]
    residuals = resid[keep]
    dists = np.hypot(gx[keep], gy[keep])
    order = np.lexsort((rows * grid.n_cols + cols, dists, residuals))[: int(n_max)]
    keep, rows, cols = keep[order], rows[order], cols[order]
    locs = np.column_stack([xs[keep], ys[keep]])
    return CandidateSet(locs, _cell_gradients(grid, rows, cols), residuals[order],
                        np.column_stack([rows, cols]), float(value), float(sigma))


def feature_variability(grid: GridMap, center_cell: tuple[int, int], template_half_width: int) -> float:
    """Mean squared deviation of the map around a cell.

    Over a square template of side ``2 * template_half_width + 1`` cells,
    clipped to the map, returns ``mean((m_center - m_j)^2)`` across all
    non-center cells j that hold data; zero when the center or every j holds
    none, as such a patch carries no position information. Zero on locally
    constant maps; scales with the square of any value scaling; invariant to
    adding a constant.
    """
    row, col = center_cell
    if not (0 <= row < grid.n_rows and 0 <= col < grid.n_cols):
        raise OutOfBoundsError(f"center cell {center_cell} outside grid")
    center_val = grid.values[row, col]
    r0, r1 = max(row - template_half_width, 0), min(row + template_half_width, grid.n_rows - 1)
    c0, c1 = max(col - template_half_width, 0), min(col + template_half_width, grid.n_cols - 1)
    tmpl = grid.values[r0:r1 + 1, c0:c1 + 1]
    mask = tmpl != grid.nodata
    mask[row - r0, col - c0] = False
    others = tmpl[mask]
    if center_val == grid.nodata or others.size == 0:
        return 0.0
    return float(np.mean((center_val - others) ** 2))


def variability_field(grid: GridMap, template_half_width: int) -> np.ndarray:
    """Feature variability of every cell, via integral images.

    Equivalent to calling :func:`feature_variability` at each cell (boundary
    templates clipped identically) but O(cells) instead of O(cells * template).
    Requires a map without nodata cells.
    """
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
    current = float(history[-1])
    peak = float(max(history[-window_len:]))
    if current <= 0.0 or peak <= 0.0:
        return 0.0
    return current / peak
