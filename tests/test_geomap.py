import dataclasses
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravnav.config import parse_config
from gravnav.errors import (
    GridFormatError,
    NodataError,
    NumericalError,
    OutOfBoundsError,
    UnsupportedGeometryError,
)
from gravnav.geomap import (
    CandidateSet,
    GridMap,
    feature_variability,
    gradient_at,
    load_grid,
    lookup_candidates,
    normalize_variability,
    read_grid_extent,
    save_grid,
    value_at,
    variability_field,
)
from gravnav.harness import build_grid
from oracles import box_lookup_candidates, brute_variability, cell_gradient, point_value_at

CORRIDOR_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "corridor.cfg")
DEMO_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "demo.cfg")


def write_grid_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def simple_grid(values, cell=1.0, origin=(0.0, 0.0), nodata=-9999.0):
    return GridMap(origin=np.array(origin), cell_size=cell, values=values, nodata=nodata)


class TestLoadGrid:
    def test_parses_2x2(self, tmp_path):
        p = write_grid_text(tmp_path / "g.asc", "\n".join([
            "ncols 2", "nrows 2", "xllcorner 0", "yllcorner 0",
            "cellsize 1.0", "nodata_value -9999", "1 2", "3 4", ""]))
        grid = load_grid(p)
        assert grid.n_rows == 2 and grid.n_cols == 2
        assert grid.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert grid.cell_size == 1.0

    def test_rejects_zero_ncols(self, tmp_path):
        p = write_grid_text(tmp_path / "g.asc", "\n".join([
            "ncols 0", "nrows 2", "xllcorner 0", "yllcorner 0",
            "cellsize 1.0", "nodata_value -9999", "", ""]))
        with pytest.raises(GridFormatError):
            load_grid(p)

    def test_error_names_line_number(self, tmp_path):
        p = write_grid_text(tmp_path / "g.asc", "\n".join([
            "ncols 2", "nrows 2", "xllcorner 0", "yllcorner 0",
            "cellsize 1.0", "nodata_value -9999", "1 2", "3", ""]))
        with pytest.raises(GridFormatError) as exc:
            load_grid(p)
        assert exc.value.line == 8

    def test_rejects_dx_dy(self, tmp_path):
        p = write_grid_text(tmp_path / "g.asc", "\n".join([
            "ncols 2", "nrows 2", "xllcorner 0", "yllcorner 0",
            "dx 1.0", "dy 2.0", "nodata_value -9999", "1 2", "3 4", ""]))
        with pytest.raises(UnsupportedGeometryError):
            load_grid(p)

    def test_rejects_bad_token(self, tmp_path):
        p = write_grid_text(tmp_path / "g.asc", "\n".join([
            "ncols 2", "nrows 2", "xllcorner 0", "yllcorner 0",
            "cellsize 1.0", "nodata_value -9999", "1 2", "3 oops", ""]))
        with pytest.raises(GridFormatError):
            load_grid(p)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("key", ["ncols", "nrows", "xllcorner", "yllcorner", "cellsize"])
    def test_rejects_non_finite_header_naming_its_line(self, tmp_path, key, token):
        header = {"ncols": "2", "nrows": "2", "xllcorner": "0", "yllcorner": "0",
                  "cellsize": "1.0", key: token}
        p = write_grid_text(tmp_path / "g.asc", "\n".join(  # a blank line first
            ["", *(f"{k} {v}" for k, v in header.items()), "nodata_value -9999", "1 2", "3 4"]))
        with pytest.raises(GridFormatError, match=f"^line .*: {key} must be finite") as exc:
            load_grid(p)
        assert exc.value.line == 2 + list(header).index(key)

    @pytest.mark.parametrize("origin, cell", [((np.nan, 0.0), 1.0), ((0.0, -np.inf), 1.0),
                                              ((0.0, 0.0), np.inf)])
    def test_grid_rejects_non_finite_geometry(self, origin, cell):
        with pytest.raises(ValueError, match="origin and cell_size must be finite"):
            simple_grid([[1.0, 2.0], [3.0, 4.0]], cell=cell, origin=origin)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_data(self, tmp_path, token):
        p = write_grid_text(tmp_path / "g.asc", "\n".join([
            "ncols 2", "nrows 2", "xllcorner 0", "yllcorner 0",
            "cellsize 1.0", "nodata_value -9999", f"1 {token}", "3 4", ""]))
        with pytest.raises(GridFormatError, match="^non-nodata values must be finite$"):
            load_grid(p)

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        values = 9.79 + 1e-3 * rng.standard_normal((100, 100))
        grid = simple_grid(values, cell=250.0, origin=(123.456, -789.01))
        path = tmp_path / "map.asc"
        save_grid(grid, path)
        back = load_grid(path)
        assert back.n_rows == grid.n_rows and back.n_cols == grid.n_cols
        assert back.cell_size == grid.cell_size
        assert (back.origin == grid.origin).all()
        assert back.nodata == grid.nodata
        assert (back.values == grid.values).all()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Negative, subnormal and near-overflow values next to whatever hypothesis draws.
_EDGE_VALUES = st.sampled_from([-1e300, 1e300, 5e-324, -5e-324, 1e-310, -2.5, 0.0, -0.0])


@st.composite
def grids(draw):
    rows, cols = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    nodata = draw(_FINITE)
    cells = st.one_of(_FINITE, _EDGE_VALUES)
    values = np.array(draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols)))
    holes = np.array(draw(st.lists(st.booleans(), min_size=rows * cols,
                                   max_size=rows * cols)))
    values[holes] = nodata
    origin = np.array([draw(_FINITE), draw(_FINITE)]) + 0.375
    cell = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return GridMap(origin=origin, cell_size=cell, values=values.reshape(rows, cols),
                   nodata=nodata)


@given(grids())
def test_save_load_round_trip_is_exact(grid):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.asc")
        save_grid(grid, path)
        back = load_grid(path)
    assert (back.n_rows, back.n_cols) == (grid.n_rows, grid.n_cols)
    assert np.array_equal(back.origin, grid.origin)
    assert back.cell_size == grid.cell_size
    assert back.nodata == grid.nodata
    assert np.array_equal(back.values, grid.values)
    assert np.array_equal(back.values == back.nodata, grid.values == grid.nodata)


@given(grids())
def test_header_extent_is_the_loaded_extent(grid):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.asc")
        save_grid(grid, path)
        assert read_grid_extent(path) == load_grid(path).extent == grid.extent


_GOOD_HEADER = ["ncols 2", "nrows 2", "xllcorner 0.5", "yllcorner -3", "cellsize 2.5",
                "nodata_value -9999"]


class TestReadGridExtent:
    """The header-only read parses the header as :func:`load_grid` does."""

    @pytest.mark.parametrize("header", [
        ["", "ncols 2", "ncols 2"],
        ["ncols 2", "nrows 2", "xllcorner 0", "yllcorner 0", "dx 1.0", "dy 2.0"],
        ["ncols 2", "rows 2"],
        ["ncols 2", "nrows 2 3"],
        ["ncols 2", "nrows two"],
        ["ncols 2.5"],
        ["ncols 1"],
        ["ncols 2", "nrows 2", "xllcorner inf"],
        ["ncols 2", "nrows 2", "cellsize 0"],
        ["ncols 2", "nrows 2", "", "xllcorner 0"],
        [],
    ], ids=["duplicate", "dx", "unknown-key", "two-values", "unparsed", "fraction",
            "too-few", "not-finite", "cellsize-zero", "missing-after-blank", "empty"])
    def test_header_fault_is_the_loaders(self, tmp_path, header):
        p = write_grid_text(tmp_path / "g.asc", "\n".join(header))
        with pytest.raises(GridFormatError) as loaded:
            load_grid(p)
        with pytest.raises(type(loaded.value)) as read:
            read_grid_extent(p)
        assert (str(read.value), read.value.line) == (str(loaded.value), loaded.value.line)

    def test_undecodable_header_byte_is_the_loaders(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_bytes("\n".join(_GOOD_HEADER[:3]).encode() + b"\nyllcorner \xff0\n")
        with pytest.raises(GridFormatError) as loaded:
            load_grid(p)
        with pytest.raises(GridFormatError) as read:
            read_grid_extent(p)
        assert str(read.value) == str(loaded.value)
        byte = p.read_bytes().index(b"\xff")
        assert str(read.value).endswith(f"byte {byte} cannot be decoded")

    def test_lines_split_as_the_loader_splits_them(self, tmp_path):
        # Windows and old Mac line ends, a form feed and a unicode line separator
        text = ("\r\n".join(_GOOD_HEADER[:2]) + "\r" + _GOOD_HEADER[2] + "\x0c"
                + _GOOD_HEADER[3] + " " + "\n".join(_GOOD_HEADER[4:]) + "\n1 2\n3 4\n")
        p = write_grid_text(tmp_path / "g.asc", text)
        assert read_grid_extent(p) == load_grid(p).extent == (0.5, 5.5, -3.0, 2.0)

    @pytest.mark.parametrize("rows", [["1 2", "3 oops"], ["1 2"], ["1 2", "3 4", "5 6"]],
                             ids=["bad-token", "short", "trailing"])
    def test_data_rows_are_not_read(self, tmp_path, rows):
        p = write_grid_text(tmp_path / "g.asc", "\n".join(_GOOD_HEADER + rows))
        with pytest.raises(GridFormatError):
            load_grid(p)
        assert read_grid_extent(p) == (0.5, 5.5, -3.0, 2.0)

    def test_undecodable_data_byte_is_not_read(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_bytes("\n".join(_GOOD_HEADER).encode() + b"\n1 2\n3 \xff\n")
        with pytest.raises(GridFormatError, match="not UTF-8"):
            load_grid(p)
        assert read_grid_extent(p) == (0.5, 5.5, -3.0, 2.0)


class TestRowReader:
    """Data rows are read from the header's line reader, one line at a time."""

    def test_tokens_load_as_float_reads_them(self, tmp_path):
        tokens = ["1_0", "+2", "1E3", ".5", "-0", "5e-324"]
        p = write_grid_text(tmp_path / "g.asc", "\n".join(
            ["ncols 6", *_GOOD_HEADER[1:], " ".join(tokens), " ".join(reversed(tokens))]))
        want = np.array([[float(t) for t in tokens], [float(t) for t in reversed(tokens)]])
        assert load_grid(p).values.tobytes() == want.tobytes()  # -0 keeps its sign

    def test_header_fault_before_an_undecodable_byte_is_reported(self, tmp_path):
        # Declared: the first fault in file order is reported.
        p = tmp_path / "g.asc"
        p.write_bytes(b"ncols 2\nnrows two\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                      b"nodata_value -9999\n1 2\n3 \xff\n")
        for read in (load_grid, read_grid_extent):
            with pytest.raises(GridFormatError) as exc:
                read(p)
            assert str(exc.value) == "line 2: cannot parse value 'two'"

    def test_undecodable_data_byte_names_its_offset(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_bytes("\n".join(_GOOD_HEADER).encode() + b"\n1 2\n3 \xff\n")
        with pytest.raises(GridFormatError) as exc:
            load_grid(p)
        byte = p.read_bytes().index(b"\xff")
        assert str(exc.value) == f"grid file {p} is not UTF-8 text: byte {byte} cannot be decoded"

    def test_grid_too_large_to_hold_is_a_format_error(self, tmp_path):
        p = write_grid_text(tmp_path / "g.asc", "\n".join(
            ["ncols 2", "nrows 1e300", *_GOOD_HEADER[2:], "1 2", "3 4"]))
        with pytest.raises(GridFormatError, match=r"^line 6: a 1000\d+ x 2 grid does not fit"):
            load_grid(p)


class TestGridMapShape:
    def test_shape_is_read_from_values(self):
        grid = simple_grid(np.arange(6.0).reshape(2, 3))
        assert (grid.n_rows, grid.n_cols) == (2, 3)
        assert grid.extent == (0.0, 3.0, 0.0, 2.0)
        assert grid.values.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    @pytest.mark.parametrize("values", [np.arange(6.0), np.zeros((2, 3, 2)), 5.0],
                             ids=["flat", "3-d", "scalar"])
    def test_values_not_2d_rejected(self, values):
        with pytest.raises(ValueError, match="2-D"):
            simple_grid(values)

    def test_shape_is_not_a_field(self):
        with pytest.raises(TypeError):
            GridMap(n_rows=3, n_cols=2, origin=np.zeros(2), cell_size=1.0,
                    values=np.arange(6.0).reshape(2, 3))

    def test_replace_values_keeps_shape_in_step(self):
        grid = simple_grid(np.zeros((2, 3)))
        wide = dataclasses.replace(grid, values=np.ones((4, 5)))
        assert (wide.n_rows, wide.n_cols) == (4, 5)
        assert wide.extent == (0.0, 5.0, 0.0, 4.0)


class TestGridMapCheck:
    """The finiteness check in row chunks accepts exactly the maps that the
    one-pass ``isfinite(values[values != nodata]).all()`` accepts."""

    @pytest.mark.parametrize("nodata", [-9999.0, np.nan, np.inf])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -9999.0])
    @pytest.mark.parametrize("cell", [(0, 0), (1, 5), (39, 4099)],
                             ids=["first", "second-row", "last-chunk"])
    def test_chunked_check_matches_one_pass(self, nodata, bad, cell):
        # 4100 columns give 15 rows per chunk, so the last cell is in chunk 3.
        values = np.ones((40, 4100))
        values[cell] = bad
        live = values != nodata
        if np.isfinite(values[live]).all():
            simple_grid(values, nodata=nodata)
        else:
            with pytest.raises(ValueError, match="non-nodata values must be finite"):
                simple_grid(values, nodata=nodata)


class TestPlainNumbersInMessages:
    def test_cell_of_out_of_bounds(self):
        grid = simple_grid(np.ones((2, 2)), origin=(0.0, 0.0))
        with pytest.raises(OutOfBoundsError) as exc:
            grid.cell_of(np.array([1e9, 1.0]))
        assert str(exc.value) == ("position (1000000000.0, 1.0) outside map extent "
                                  "(0.0, 2.0, 0.0, 2.0)")

    def test_value_at_out_of_bounds(self):
        grid = simple_grid(np.ones((2, 2)))
        with pytest.raises(OutOfBoundsError) as exc:
            value_at(grid, np.array([5.0, 0.5]))
        assert str(exc.value) == "position (5.0, 0.5) outside map extent (0.0, 2.0, 0.0, 2.0)"

    def test_value_at_nodata(self):
        grid = simple_grid([[0.0, -9999.0], [1.0, 2.0]])
        with pytest.raises(NodataError) as exc:
            value_at(grid, np.array([1.0, 1.0]))
        assert str(exc.value) == "nodata cell touches interpolation stencil at (1.0, 1.0)"


class TestValueAt:
    def test_cell_center_identity(self):
        grid = simple_grid([[5.0, 6.0], [7.0, 8.0]])
        for r in range(2):
            for c in range(2):
                assert value_at(grid, grid.cell_center(r, c)) == grid.values[r, c]

    def test_constant_map(self):
        grid = simple_grid(np.full((4, 4), 3.25))
        rng = np.random.default_rng(0)
        for _ in range(50):
            pos = rng.uniform(0.0, 4.0, 2)
            assert value_at(grid, pos) == pytest.approx(3.25, abs=1e-14)

    def test_center_of_four_cells(self):
        # north row [0, 1], south row [1, 2]; the middle of the 4 centers
        grid = simple_grid([[0.0, 1.0], [1.0, 2.0]])
        assert value_at(grid, (1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_out_of_bounds(self):
        grid = simple_grid([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(OutOfBoundsError):
            value_at(grid, (5.0, 0.5))

    def test_nodata_corner(self):
        grid = simple_grid([[0.0, -9999.0], [1.0, 2.0]])
        with pytest.raises(NodataError):
            value_at(grid, (1.0, 1.0))


class TestGradientAt:
    def test_linear_ramp(self):
        xs = np.arange(5) * 1.0
        values = np.tile(2.0 * (xs + 0.5), (5, 1))
        grid = simple_grid(values)
        g = gradient_at(grid, (2.5, 2.5))
        assert g[0] == pytest.approx(2.0)
        assert g[1] == pytest.approx(0.0)

    def test_north_ramp_sign(self):
        # value grows northward: positive d/dNorth
        values = np.array([[3.0, 3.0], [1.0, 1.0]])
        grid = simple_grid(values)
        g = gradient_at(grid, (1.0, 1.0))
        assert g[1] > 0


def gated(grid, center, cov, gamma, value=0.0, sigma=1.0, n_max=10_000, k_sig=3.0):
    """Candidates of ``grid`` in the gating ellipse of the prior ``(center, cov)``."""
    return lookup_candidates(grid, value, sigma, np.asarray(center, dtype=float),
                             np.asarray(cov, dtype=float), gamma, n_max, k_sig)


class TestSearchWindow:
    """The search region of :func:`lookup_candidates`: the prior's gating ellipse.

    On a flat map every cell passes the residual gate, so the candidates are
    exactly the cell centers inside the ellipse, which reaches
    ``sqrt(gamma * C_jj)`` from the center along each axis.
    """

    def flat(self, cell=0.25):
        return simple_grid(np.zeros((81, 81)), cell=cell, origin=(-10.125, -10.125))

    def test_unit_cov_three_sigma(self):
        grid = self.flat()
        cs = gated(grid, np.zeros(2), np.eye(2), gamma=9.0)
        reach = np.abs(cs.locations).max(axis=0)
        assert (reach <= 3.0).all() and (reach > 3.0 - grid.cell_size).all()
        assert (np.hypot(*cs.locations.T) <= 3.0 + 1e-12).all()

    def test_diagonal_cov(self):
        grid = self.flat()
        cs = gated(grid, np.zeros(2), np.diag([4.0, 1.0]), gamma=1.0)
        reach = np.abs(cs.locations).max(axis=0)
        assert (reach <= [2.0, 1.0]).all() and (reach > np.array([2.0, 1.0]) - 0.25).all()

    def test_correlated_cov_contains_ellipse(self):
        # the scanned box holds the whole ellipse: the lookup finds every cell
        # center of the map that lies inside it
        grid = self.flat(cell=0.1)
        center = grid.cell_center(40, 40) + np.array([0.03, -0.02])
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        cs = gated(grid, center, cov, gamma=9.0)
        sinv = np.linalg.inv(cov)
        inside = {(r, c) for r in range(grid.n_rows) for c in range(grid.n_cols)
                  if (d := grid.cell_center(r, c) - center) @ sinv @ d <= 9.0}
        assert set(map(tuple, cs.cells.tolist())) == inside
        reach = np.abs(cs.locations - center).max(axis=0)
        assert (reach <= 3.0).all() and (reach > 3.0 - 2 * grid.cell_size).all()

    @pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]],
                                     [[-1.0, 0.0], [0.0, -1.0]]],
                             ids=["indefinite", "singular", "negative"])
    def test_non_pd_prior_is_a_numerical_error(self, cov):
        # At the default unscented weights a position block that is not
        # positive definite means the nav filter has broken down: the seed
        # fails, rather than the scan reading as empty.
        with pytest.raises(NumericalError, match="not positive definite"):
            gated(self.flat(), np.zeros(2), np.array(cov), gamma=9.0)

    @pytest.mark.parametrize("cov, gamma", [(1e308 * np.eye(2), 9.21), (4.0 * np.eye(2), 1e308)],
                             ids=["wide-prior", "wide-gate"])
    def test_unbounded_box_covers_the_whole_map(self, cov, gamma):
        # gamma * C_jj overflows: the box is infinite and covers the map, and
        # the ellipse passes every cell center
        grid = self.flat()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs = gated(grid, [1e3, -1e3], cov, gamma)
        assert len(cs) == grid.n_rows * grid.n_cols


class TestLookupCandidates:
    def test_constant_map_matches_all_window_cells(self):
        grid = simple_grid(np.full((9, 9), 5.0))
        # strip window: 5 columns wide, 1 row tall, centered on a cell center
        cov = np.diag([(2.4 / 3.0) ** 2, (0.4 / 3.0) ** 2])
        cs = gated(grid, [4.5, 4.5], cov, 9.0, value=5.0, n_max=20)
        assert len(cs) == 5
        assert (cs.residuals == 0.0).all()

    def test_no_cell_within_residual_gate(self):
        sigma = 0.1
        grid = simple_grid(np.full((5, 5), 5.0 + 100.0 * 3.0 * sigma))
        cs = gated(grid, [2.5, 2.5], np.eye(2), 9.0, value=5.0, sigma=sigma, n_max=20)
        assert len(cs) == 0

    @pytest.mark.parametrize("center, cov", [
        ([100.0, 100.0], 1e-4 * np.eye(2)),  # off the map
        ([2.0, 2.0], 1e-4 * np.eye(2)),      # between cell centres
    ], ids=["off-map", "between-centres"])
    def test_box_without_cell_centre_is_empty(self, center, cov):
        # an empty box gives what a box with no matching value gives
        grid = simple_grid(np.full((5, 5), 1.0))
        cs = gated(grid, center, cov, 9.0, value=1.0, sigma=0.25, n_max=20)
        assert len(cs) == 0
        assert (cs.measurement, cs.sigma) == (1.0, 0.25)
        assert cs.locations.shape == (0, 2) and cs.cells.shape == (0, 2)
        assert not cs.locations.flags.writeable

    def test_two_cluster_map_equals_exhaustive_scan(self):
        values = np.zeros((20, 20))
        values[2:5, 2:5] = 1.0
        values[14:17, 15:18] = 1.0
        grid = simple_grid(values)
        sigma = 0.01
        center, cov = np.array([10.0, 10.0]), np.diag([40.0, 40.0])
        cs = gated(grid, center, cov, 9.0, value=1.0, sigma=sigma, n_max=500)

        expected = set()
        sinv = np.linalg.inv(cov)
        for r in range(20):
            for c in range(20):
                d = grid.cell_center(r, c) - center
                if d @ sinv @ d > 9.0:
                    continue
                if abs(values[r, c] - 1.0) > 3.0 * sigma:
                    continue
                expected.add((r, c))
        got = set(map(tuple, cs.cells.tolist()))
        assert got == expected
        # both clusters represented
        assert any(r < 10 for r, _ in got) and any(r >= 10 for r, _ in got)

    def test_gate_soundness_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            values = rng.normal(0.0, 1.0, (30, 30))
            grid = simple_grid(values, cell=rng.uniform(0.5, 3.0))
            center = grid.origin + rng.uniform(5.0, 25.0, 2) * grid.cell_size
            a = rng.uniform(0.5, 4.0)
            b = rng.uniform(0.5, 4.0)
            rho = rng.uniform(-0.6, 0.6) * np.sqrt(a * b)
            cov = np.array([[a, rho], [rho, b]]) * grid.cell_size ** 2 * 4.0
            gamma = rng.uniform(4.0, 12.0)
            s = rng.normal(0.0, 1.0)
            sigma = rng.uniform(0.1, 1.0)
            cs = lookup_candidates(grid, s, sigma, center, cov, gamma, 10, 3.0)
            sinv = np.linalg.inv(cov)
            for loc, residual in zip(cs.locations, cs.residuals):
                d = loc - center
                assert d @ sinv @ d <= gamma + 1e-12
                assert residual <= 3.0 * sigma + 1e-12

    def test_determinism_and_prefix_monotonicity(self):
        rng = np.random.default_rng(5)
        values = np.round(rng.normal(0.0, 1.0, (25, 25)), 1)  # force residual ties
        grid = simple_grid(values)
        center, cov = np.array([12.0, 12.0]), np.diag([30.0, 30.0])
        a = gated(grid, center, cov, 9.21, sigma=0.5, n_max=15)
        b = gated(grid, center, cov, 9.21, sigma=0.5, n_max=15)
        assert a.cells.tolist() == b.cells.tolist()
        for n in (1, 3, 7, 12):
            prefix = gated(grid, center, cov, 9.21, sigma=0.5, n_max=n)
            assert prefix.cells.tolist() == a.cells.tolist()[:n]

    def test_columns_match_per_cell_reference(self):
        # windows reaching the map edges exercise the one-sided differences
        rng = np.random.default_rng(17)
        for _ in range(100):
            values = 9.79 + 2e-3 * rng.standard_normal((int(rng.integers(2, 12)),
                                                        int(rng.integers(2, 12))))
            grid = simple_grid(values, cell=rng.uniform(10.0, 90.0),
                               origin=rng.uniform(-1e3, 1e3, 2))
            extent = np.array([grid.n_cols, grid.n_rows]) * grid.cell_size
            center = grid.origin + rng.uniform(0.0, 1.0, 2) * extent
            cov = np.diag(rng.uniform(0.05, 1.0, 2) * extent ** 2)
            s = 9.79 + 2e-3 * rng.standard_normal()
            cs = gated(grid, center, cov, 9.21, value=s, sigma=1e-3, n_max=30)
            for loc, grad, residual, (r, c) in zip(cs.locations, cs.grads, cs.residuals,
                                                   cs.cells):
                assert np.array_equal(loc, grid.cell_center(r, c))
                assert np.array_equal(grad, cell_gradient(values, r, c, grid.cell_size))
                assert np.array_equal(grad, gradient_at(grid, loc))
                assert residual == abs(values[r, c] - s)

    def test_cells_without_gradient_are_not_candidates(self):
        # every live cell matches, but the four neighbours of the hole have
        # no gradient: they are dropped before the cut, so the four diagonal
        # cells come first, in row-major order
        values = np.full((7, 7), 1.0)
        values[3, 3] = -9999.0
        grid = simple_grid(values)
        cs = gated(grid, grid.cell_center(3, 3), 4.0 * np.eye(2), 9.0, value=1.0, n_max=20)
        assert len(cs) == 20
        assert cs.cells[:4].tolist() == [[2, 2], [2, 4], [4, 2], [4, 4]]
        assert not {(2, 3), (3, 2), (3, 4), (4, 3)} & {tuple(c) for c in cs.cells.tolist()}
        assert cs.grads.tolist() == [[0.0, 0.0]] * 20
        with pytest.raises(NodataError, match=r"at cell \(4, 3\)$"):
            gradient_at(grid, grid.cell_center(4, 3))
        # a prior beside the hole still finds its own cell first
        kept = gated(grid, grid.cell_center(1, 3), 4.0 * np.eye(2), 9.0, value=1.0, n_max=1)
        assert kept.cells.tolist() == [[1, 3]]
        assert kept.grads.tolist() == [[0.0, 0.0]]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hole_share=st.floats(0.0, 0.1),
           center=st.tuples(st.floats(-5.0, 35.0), st.floats(-5.0, 25.0)),
           sigmas=st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 8.0)),
           rho=st.floats(-0.9, 0.9), value=st.floats(-2.0, 2.0), n_max=st.integers(1, 50))
    def test_holed_map_gives_live_gated_cells_or_raises(self, seed, hole_share, center,
                                                        sigmas, rho, value, n_max):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 1.0, (20, 30))
        values[rng.random(values.shape) < hole_share] = -9999.0
        grid = simple_grid(values)
        (sx, sy), center = sigmas, np.array(center)
        cov = np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
        sigma, k_sig, gamma = 0.1, 3.0, 9.21
        cs = lookup_candidates(grid, value, sigma, center, cov, gamma, n_max, k_sig)
        sinv = np.linalg.inv(cov)
        for loc, grad, residual, (r, c) in zip(cs.locations, cs.grads, cs.residuals, cs.cells):
            assert values[r, c] != -9999.0
            assert np.array_equal(grad, gradient_at(grid, loc))  # its stencil holds data
            assert np.array_equal(loc, grid.cell_center(r, c))
            d = loc - center
            assert d @ sinv @ d <= gamma * (1.0 + 1e-9)
            assert residual == abs(values[r, c] - value) <= k_sig * sigma

    @pytest.mark.parametrize("mean, cov", [
        ([np.nan, 4.5], np.eye(2)),
        ([4.5, np.inf], np.eye(2)),
        ([4.5, 4.5], np.full((2, 2), np.nan)),
        ([4.5, 4.5], np.array([[np.inf, 0.0], [0.0, 1.0]])),
    ], ids=["mean-nan", "mean-inf", "cov-nan", "cov-inf"])
    def test_non_finite_prior_is_a_numerical_error(self, mean, cov):
        grid = simple_grid(np.full((9, 9), 5.0))
        with pytest.raises(NumericalError, match="not finite"):
            gated(grid, mean, cov, 9.0, value=5.0, n_max=20)

    def test_locations_built_once_and_read_only(self):
        grid = simple_grid(np.full((9, 9), 5.0))
        cs = gated(grid, [4.5, 4.5], np.eye(2), 9.0, value=5.0, n_max=20)
        locs = cs.locations
        assert locs.shape == (len(cs), 2)
        assert cs.locations is locs
        with pytest.raises(ValueError):
            locs[0, 0] = 0.0
        empty = gated(grid, [4.5, 4.5], np.eye(2), 9.0, value=50.0, n_max=20)
        assert empty.locations.shape == (0, 2)
        assert not empty.locations.flags.writeable
        for cset in (cs, empty, CandidateSet.empty(5.0, 1.0)):
            n = len(cset)
            assert cset.grads.shape == cset.cells.shape == (n, 2)
            assert cset.residuals.shape == (n,)
            assert cset.cells.dtype.kind == "i"
            for column in (cset.locations, cset.grads, cset.residuals, cset.cells):
                assert not column.flags.writeable


@pytest.fixture(scope="module")
def corridor_grid():
    return build_grid(parse_config(CORRIDOR_CFG))


def holed_grid():
    """Coarse values, so residuals and distances tie, with nodata holes."""
    rng = np.random.default_rng(11)
    values = np.round(rng.standard_normal((40, 60)), 1)
    values[rng.random(values.shape) < 0.1] = -9999.0
    return simple_grid(values, cell=25.0, origin=(-300.0, 1000.0))


def lookup_cases(grid, seed, n, margin, sigmas):
    """``(value, sigma, mean, cov, gamma, n_max, k_sig)`` of an empty box, a
    box past the east edge, an infinite and an overflowing gate, and ``n``
    random lookups: prior sigmas from 1 m to 3 km, centres on the map or up
    to ``margin`` beyond its edge, measurement sigmas within ``sigmas``."""
    rng = np.random.default_rng(seed)
    xmin, xmax, ymin, ymax = grid.extent
    live = np.argwhere(grid.values != grid.nodata)

    def value(prior=None):
        # the value of the cell under a point drawn from the prior, else of a live cell
        if prior is None:
            return float(grid.values[tuple(live[rng.integers(len(live))])])
        point = rng.multivariate_normal(*prior)
        return float(grid.values[grid.cell_of(np.clip(point, [xmin, ymin], [xmax, ymax]))])

    mid = [(xmin + xmax) / 2, (ymin + ymax) / 2]
    cases = [(value(), sigmas[1], [xmin - margin, ymin - margin], np.eye(2), 9.21, 20, 3.0),
             (value(), sigmas[1], [xmax + 100.0, mid[1]], 9e4 * np.eye(2), 9.21, 20, 3.0),
             (value(), sigmas[0], mid, 900.0 * np.eye(2), np.inf, 20, 3.0),
             (value(), sigmas[0], mid, 900.0 * np.eye(2), 1e308, 20, 3.0)]
    for _ in range(n):
        sx, sy = 10.0 ** rng.uniform(0.0, np.log10(3000.0), 2)
        rho = rng.uniform(-0.95, 0.95)
        cov = np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
        mean = [rng.uniform(xmin - margin, xmax + margin),
                rng.uniform(ymin - margin, ymax + margin)]
        sigma = 10.0 ** rng.uniform(*np.log10(sigmas))
        gamma = 9.21 if rng.random() < 0.5 else rng.uniform(0.5, 30.0)
        cases.append((value((mean, cov)) + sigma * rng.standard_normal(), sigma, mean, cov, gamma,
                      int(rng.integers(1, 40)), rng.uniform(1.0, 4.0)))
    return cases


def oracle_errors(grid, points):
    """The error the point-by-point interpolation raises at each point, or ``None``."""
    errors = []
    for pos in points:
        try:
            point_value_at(grid, pos)
            errors.append(None)
        except (OutOfBoundsError, NodataError) as exc:
            errors.append(exc)
    return errors


class TestValueAtKeepsThePointBits:
    """``value_at`` over an array of points returns, bit for bit, what the
    point-by-point interpolation it replaced (``oracles.point_value_at``)
    returns at each, and raises its error at the first bad point."""

    def assert_same_bits(self, grid, points):
        want = np.array([point_value_at(grid, pos) for pos in points])
        got = value_at(grid, points)
        assert got.shape == (len(points),) and got.tobytes() == want.tobytes()
        assert value_at(grid, points[:, None]).tobytes() == want.tobytes()  # (n, 1, 2)
        for pos, w in zip(points[::97], want[::97]):
            one = value_at(grid, pos)
            assert type(one) is np.float64 and one.tobytes() == w.tobytes()

    def test_random_interior_points(self, corridor_grid):
        xmin, xmax, ymin, ymax = corridor_grid.extent
        rng = np.random.default_rng(3)
        points = np.column_stack([rng.uniform(xmin, xmax, 20000), rng.uniform(ymin, ymax, 20000)])
        self.assert_same_bits(corridor_grid, points)

    def test_edge_margins_corners_and_cell_centres(self, corridor_grid):
        grid = corridor_grid
        xmin, xmax, ymin, ymax = grid.extent
        half = 0.5 * grid.cell_size
        rng = np.random.default_rng(4)
        n = 1000
        xs, ys = rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n)
        margins = [np.column_stack([rng.uniform(xmin, xmin + half, n), ys]),
                   np.column_stack([rng.uniform(xmax - half, xmax, n), ys]),
                   np.column_stack([xs, rng.uniform(ymin, ymin + half, n)]),
                   np.column_stack([xs, rng.uniform(ymax - half, ymax, n)])]
        corners = np.array([[x, y] for x in (xmin, xmin + half, xmax - half, xmax)
                            for y in (ymin, ymin + half, ymax - half, ymax)])
        rows, cols = rng.integers(0, grid.n_rows, n), rng.integers(0, grid.n_cols, n)
        centres = np.array([grid.cell_center(r, c) for r, c in zip(rows, cols)])
        self.assert_same_bits(grid, np.concatenate(margins + [corners, centres]))
        assert np.array_equal(value_at(grid, centres), grid.values[rows, cols])

    def test_holed_map_names_the_first_hole(self):
        grid = holed_grid()
        xmin, xmax, ymin, ymax = grid.extent
        rng = np.random.default_rng(5)
        points = np.column_stack([rng.uniform(xmin, xmax, 400), rng.uniform(ymin, ymax, 400)])
        errors = oracle_errors(grid, points)
        want = next(e for e in errors if e is not None)
        assert isinstance(want, NodataError)
        with pytest.raises(NodataError) as exc:
            value_at(grid, points)
        assert str(exc.value) == str(want) and "np.float64" not in str(exc.value)
        self.assert_same_bits(grid, points[[e is None for e in errors]])

    @pytest.mark.parametrize("off", [(-1e-9, 0.0), (0.0, 1e-9), (1e9, 0.0), (np.nan, 0.0)],
                             ids=["west", "north", "far-east", "nan"])
    def test_off_map_names_the_first_point(self, corridor_grid, off):
        xmin, xmax, ymin, ymax = corridor_grid.extent
        rng = np.random.default_rng(6)
        points = np.column_stack([rng.uniform(xmin, xmax, 8), rng.uniform(ymin, ymax, 8)])
        points[3] = [xmin, ymax] + np.array(off)
        points[6] = [xmax + 5.0, ymin]
        want = next(e for e in oracle_errors(corridor_grid, points) if e is not None)
        for pos in (points, points[3]):
            with pytest.raises(OutOfBoundsError) as exc:
                value_at(corridor_grid, pos)
            assert str(exc.value) == str(want) and "np.float64" not in str(exc.value)


class TestLookupKeepsTheBoxScansBits:
    """The value-first lookup returns, bit for bit, the candidates of the
    whole-box scan it replaced (``oracles.box_lookup_candidates``)."""

    def assert_same_bits(self, grid, cases):
        sizes = set()
        for case in cases:
            got, want = lookup_candidates(grid, *case), box_lookup_candidates(grid, *case)
            for name in ("locations", "grads", "residuals", "cells"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.array_equal(a, b) and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()  # -0.0 and 0.0 differ here
            assert (got.measurement, got.sigma) == (want.measurement, want.sigma)
            sizes.add(len(got))
        assert 0 in sizes and len(sizes) > 2

    def test_corridor_map(self, corridor_grid):
        self.assert_same_bits(corridor_grid, lookup_cases(corridor_grid, 1, 300, 8000.0,
                                                          (1e-5, 1e-3)))

    def test_holed_map(self):
        grid = holed_grid()
        self.assert_same_bits(grid, lookup_cases(grid, 2, 300, 500.0, (0.01, 1.0)))

    def test_whole_map_gate_peak_memory_below_2_maps(self, corridor_grid):
        # Only the cells whose value passes meet the ellipse test: the box
        # itself is a view, and the residual its one map-sized array.
        grid = corridor_grid
        tracemalloc.start()
        try:
            cs = lookup_candidates(grid, float(grid.values[240, 40]), 1e-5, [1800.0, 12000.0],
                                   900.0 * np.eye(2), 1e308, 20, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cs) == 20
        assert peak < 2 * grid.values.nbytes

    def test_gradients_only_for_the_candidates_returned(self, monkeypatch):
        # a gate that every cell of the demo map passes: gradients are taken
        # after ranking, for the n_max cells kept, not for each passing cell
        import gravnav.geomap as geomap

        grid = build_grid(parse_config(DEMO_CFG))
        case = (float(grid.values.mean()), 1.0, [7500.0, 1500.0], 1e12 * np.eye(2), 1e308, 20, 3.0)
        assert np.abs(grid.values - case[0]).max() <= case[1] * case[6]
        want = box_lookup_candidates(grid, *case)
        gradient_cells = []
        real = geomap._cell_gradients

        def counted(grid, rows, cols):
            gradient_cells.append(len(rows))
            return real(grid, rows, cols)

        monkeypatch.setattr(geomap, "_cell_gradients", counted)
        got = lookup_candidates(grid, *case)
        assert len(got) == 20 < grid.values.size
        assert sum(gradient_cells) <= 20
        for name in ("locations", "grads", "residuals", "cells"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestFeatureVariability:
    def test_constant_map_zero(self):
        grid = simple_grid(np.full((7, 7), 2.5))
        assert feature_variability(grid, (3, 3), 2) == 0.0

    def test_center_one_neighbors_zero(self):
        values = np.zeros((3, 3))
        values[1, 1] = 1.0
        grid = simple_grid(values)
        assert feature_variability(grid, (1, 1), 1) == pytest.approx(1.0)

    def test_quadratic_scaling_and_offset_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0.0, 1.0, (9, 9))
        grid = simple_grid(values)
        base = feature_variability(grid, (4, 4), 2)
        scaled = feature_variability(simple_grid(3.0 * values), (4, 4), 2)
        shifted = feature_variability(simple_grid(values + 17.0), (4, 4), 2)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            values = rng.normal(0.0, 1.0, (12, 12))
            grid = simple_grid(values)
            r = int(rng.integers(0, 12))
            c = int(rng.integers(0, 12))
            w = int(rng.integers(1, 5))
            assert feature_variability(grid, (r, c), w) == pytest.approx(
                brute_variability(values, r, c, w), rel=1e-12)

    def test_patch_without_data_is_zero(self):
        # a nodata cell, and a data cell whose whole template is nodata,
        # carry no position information
        values = np.full((5, 5), -9999.0)
        values[2, 2] = 3.0
        values[0, 0] = 7.0
        grid = simple_grid(values)
        assert feature_variability(grid, (1, 1), 1) == 0.0
        assert feature_variability(grid, (2, 2), 1) == 0.0
        assert feature_variability(grid, (2, 2), 2) == 16.0

    def test_out_of_bounds_center(self):
        grid = simple_grid(np.zeros((4, 4)))
        with pytest.raises(OutOfBoundsError):
            feature_variability(grid, (9, 0), 1)

    def test_variability_field_matches_pointwise(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0.0, 1.0, (15, 11))
        grid = simple_grid(values)
        field = variability_field(grid, 2)
        for r in range(15):
            for c in range(11):
                assert field[r, c] == pytest.approx(
                    feature_variability(grid, (r, c), 2), rel=1e-10, abs=1e-12)


class TestNormalizeVariability:
    def test_single_sample_is_max(self):
        assert normalize_variability([5.0], 10) == 1.0

    def test_half_of_trailing_max(self):
        assert normalize_variability([10.0, 5.0], 10) == 0.5

    def test_all_zero(self):
        assert normalize_variability([0.0, 0.0], 10) == 0.0

    def test_window_truncation(self):
        history = [100.0] + [1.0] * 10
        assert normalize_variability(history, 5) == 1.0
        assert normalize_variability(history, 11) == pytest.approx(0.01)
