"""Geo-referenced scalar raster maps and gated candidate lookup.

A :class:`GridMap` stores a scalar field (e.g. vertical gravity in m/s^2) on a
uniform square grid in a local planar East-North frame. Candidate lookup scans
the cells of a gated search region for values compatible with a sensed scalar
and returns them in a deterministic order. The module also provides the local
feature-variability statistic used to judge how informative a map region is.

All operations are pure functions of their inputs; a loaded map is never
mutated and may be shared freely across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CovarianceError,
    EmptyWindowError,
    GridFormatError,
    NodataError,
    OutOfBoundsError,
    UnsupportedGeometryError,
)

__all__ = [
    "GridMap",
    "SearchWindow",
    "Candidate",
    "CandidateSet",
    "load_grid",
    "save_grid",
    "value_at",
    "gradient_at",
    "search_window",
    "lookup_candidates",
    "feature_variability",
    "variability_field",
    "normalize_variability",
]

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")

# Gate threshold covering 99% of a 2-dof chi-square (see search_window).
DEFAULT_GAMMA = 9.21
# Residual gate width in units of the field-noise sigma.
DEFAULT_K_SIG = 3.0


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
        live = vals != self.nodata
        if not np.isfinite(vals[live]).all():
            raise ValueError("non-nodata values must be finite")

    @property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) outer bounds in meters."""
        x0, y0 = self.origin
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
            raise OutOfBoundsError(f"position {tuple(pos)} outside map extent {self.extent}")
        x0, y0 = self.origin
        h = self.cell_size
        col = min(int((float(pos[0]) - x0) / h), self.n_cols - 1)
        row_s = min(int((float(pos[1]) - y0) / h), self.n_rows - 1)
        return self.n_rows - 1 - row_s, col

    def is_nodata(self, row: int, col: int) -> bool:
        return bool(self.values[row, col] == self.nodata)


@dataclass(frozen=True)
class SearchWindow:
    """Axis-aligned rectangle circumscribing a gating ellipse.

    ``prior_cov`` keeps the full 2x2 prior covariance so that candidate
    lookup can enforce the ellipsoidal gate inside the rectangle.
    """

    center: np.ndarray
    half_extents: np.ndarray
    gamma: float
    prior_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "half_extents", np.asarray(self.half_extents, dtype=float))
        object.__setattr__(self, "prior_cov", np.asarray(self.prior_cov, dtype=float))
        if not (self.half_extents > 0).all():
            raise ValueError("half_extents must be positive")


@dataclass(frozen=True)
class Candidate:
    """One gated map location compatible with a sensed value."""

    location: np.ndarray
    map_value: float = 0.0
    value_residual: float = 0.0
    grad: np.ndarray = field(default_factory=lambda: np.zeros(2))
    cell: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "location", np.asarray(self.location, dtype=float))
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))


@dataclass(frozen=True)
class CandidateSet:
    """Gated candidate locations for one field measurement.

    Candidates are sorted ascending by value residual, ties broken by
    distance to the prior mean, then by row-major cell index.
    """

    candidates: tuple[Candidate, ...]
    measurement: float
    sigma: float
    prior_mean: np.ndarray
    prior_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "prior_mean", np.asarray(self.prior_mean, dtype=float))
        object.__setattr__(self, "prior_cov", np.asarray(self.prior_cov, dtype=float))

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    @cached_property
    def locations(self) -> np.ndarray:
        """(n, 2) read-only array of candidate positions, built on first use."""
        if self.candidates:
            locs = np.array([c.location for c in self.candidates])
        else:
            locs = np.zeros((0, 2))
        locs.flags.writeable = False
        return locs


def load_grid(path) -> GridMap:
    """Parse an ASCII grid file.

    Header lines ``ncols``, ``nrows``, ``xllcorner``, ``yllcorner``,
    ``cellsize``, ``nodata_value`` followed by ``nrows`` lines of ``ncols``
    whitespace-separated floats, north row first.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

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
        if key in ("ncols", "nrows") and header[key] != int(header[key]):
            raise GridFormatError(f"{key} must be an integer", line=idx + 1)
        idx += 1

    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise GridFormatError(f"missing header keys: {', '.join(missing)}", line=idx)

    n_cols, n_rows = int(header["ncols"]), int(header["nrows"])
    if n_cols < 2:
        raise GridFormatError(f"ncols must be >= 2, got {n_cols}", line=1)
    if n_rows < 2:
        raise GridFormatError(f"nrows must be >= 2, got {n_rows}", line=2)
    if not header["cellsize"] > 0:
        raise GridFormatError(f"cellsize must be positive, got {header['cellsize']}", line=5)

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

    values = np.array(rows, dtype=float)
    nodata = header["nodata_value"]
    live = values != nodata
    if not np.isfinite(values[live]).all():
        raise GridFormatError("non-nodata values must be finite")

    return GridMap(
        n_rows=n_rows,
        n_cols=n_cols,
        origin=np.array([header["xllcorner"], header["yllcorner"]]),
        cell_size=header["cellsize"],
        values=values,
        nodata=nodata,
    )


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
        raise OutOfBoundsError(f"position {tuple(pos)} outside map extent {grid.extent}")
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
        raise NodataError(f"nodata cell touches interpolation stencil at {tuple(pos)}")
    sw, se, nw, ne = corners
    return float((1 - fy) * ((1 - fx) * sw + fx * se) + fy * ((1 - fx) * nw + fx * ne))


def gradient_at(grid: GridMap, pos) -> np.ndarray:
    """Finite-difference field gradient (d/dEast, d/dNorth) at ``pos``.

    Central differences on the cell grid around the cell containing ``pos``;
    one-sided at the map edge.
    """
    row, col = grid.cell_of(pos)
    return _cell_gradient(grid, row, col)


def _cell_gradient(grid: GridMap, row: int, col: int) -> np.ndarray:
    h = grid.cell_size
    v = grid.values
    c_lo, c_hi = max(col - 1, 0), min(col + 1, grid.n_cols - 1)
    r_n, r_s = max(row - 1, 0), min(row + 1, grid.n_rows - 1)
    used = (v[row, c_lo], v[row, c_hi], v[r_n, col], v[r_s, col])
    if any(u == grid.nodata for u in used):
        raise NodataError(f"nodata cell in gradient stencil at cell ({row}, {col})")
    gx = (v[row, c_hi] - v[row, c_lo]) / ((c_hi - c_lo) * h)
    gy = (v[r_n, col] - v[r_s, col]) / ((r_s - r_n) * h)  # row index grows southward
    return np.array([gx, gy])


def search_window(prior_mean, prior_cov, gamma: float = DEFAULT_GAMMA) -> SearchWindow:
    """Axis-aligned rectangle circumscribing the gating ellipse.

    The ellipse is ``{z : (z - m)' C^-1 (z - m) <= gamma}``; the tight
    axis-aligned bounding box has half extents ``sqrt(gamma * C_jj)``.
    """
    mean = np.asarray(prior_mean, dtype=float)
    cov = np.asarray(prior_cov, dtype=float)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if cov.shape != (2, 2):
        raise CovarianceError(f"prior covariance must be 2x2, got {cov.shape}")
    if not np.allclose(cov, cov.T, rtol=0, atol=1e-9 * max(1.0, abs(cov).max())):
        raise CovarianceError("prior covariance is not symmetric")
    eigvals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    if eigvals.min() <= 0:
        raise CovarianceError(f"prior covariance is not positive definite (eigs {eigvals})")
    half = np.sqrt(gamma * np.diag(cov))
    return SearchWindow(center=mean, half_extents=half, gamma=float(gamma), prior_cov=cov)


def lookup_candidates(
    grid: GridMap,
    s: float,
    sigma: float,
    window: SearchWindow,
    n_max: int,
    k_sig: float = DEFAULT_K_SIG,
) -> CandidateSet:
    """Collect map cells compatible with the sensed value ``s``.

    A cell qualifies when its center lies inside the window rectangle,
    passes the ellipsoidal gate of the window's prior, and its value is
    within ``k_sig * sigma`` of ``s``. At most ``n_max`` candidates are
    returned, best residual first, with deterministic tie-breaking.

    Raises :class:`EmptyWindowError` when the window does not contain any
    cell center; a window that contains cells but no compatible values
    yields an empty :class:`CandidateSet`.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    x0, y0 = grid.origin
    h = grid.cell_size
    cx, cy = window.center
    hx, hy = window.half_extents

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
    resid = np.abs(vals - s)
    ok = live & (resid <= k_sig * sigma)

    # Ellipsoidal gate inside the rectangle (stricter than the rectangle alone).
    gx, gy = np.meshgrid(xs - cx, ys - cy, indexing="xy")
    sinv = np.linalg.inv(window.prior_cov)
    quad = (sinv[0, 0] * gx * gx + (sinv[0, 1] + sinv[1, 0]) * gx * gy
            + sinv[1, 1] * gy * gy)
    ok &= quad <= window.gamma

    si, ci = np.nonzero(ok)
    if si.size == 0:
        return CandidateSet((), float(s), float(sigma), window.center, window.prior_cov)

    locs = np.column_stack([xs[ci], ys[si]])
    residuals = resid[si, ci]
    dists = np.hypot(locs[:, 0] - cx, locs[:, 1] - cy)
    arr_rows = rows[si]
    arr_cols = cols[ci]
    rowmajor = arr_rows * grid.n_cols + arr_cols
    order = np.lexsort((rowmajor, dists, residuals))[: int(n_max)]

    cands = []
    for k in order:
        r, c = int(arr_rows[k]), int(arr_cols[k])
        cands.append(Candidate(
            location=locs[k],
            map_value=float(vals[si[k], ci[k]]),
            value_residual=float(residuals[k]),
            grad=_cell_gradient(grid, r, c),
            cell=(r, c),
        ))
    return CandidateSet(tuple(cands), float(s), float(sigma), window.center, window.prior_cov)


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
