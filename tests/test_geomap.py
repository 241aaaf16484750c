import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravnav.errors import (
    CovarianceError,
    EmptyWindowError,
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
    save_grid,
    value_at,
    variability_field,
)
from oracles import brute_variability, cell_gradient


def write_grid_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def simple_grid(values, cell=1.0, origin=(0.0, 0.0), nodata=-9999.0):
    values = np.asarray(values, dtype=float)
    return GridMap(n_rows=values.shape[0], n_cols=values.shape[1],
                   origin=np.array(origin), cell_size=cell, values=values,
                   nodata=nodata)


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
    return GridMap(n_rows=rows, n_cols=cols, origin=origin, cell_size=cell,
                   values=values.reshape(rows, cols), nodata=nodata)


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

    def test_rejects_non_pd(self):
        with pytest.raises(CovarianceError):
            gated(self.flat(), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), gamma=9.0)


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

    def test_empty_window_raises(self):
        grid = simple_grid(np.full((5, 5), 1.0))
        with pytest.raises(EmptyWindowError):
            gated(grid, [100.0, 100.0], 1e-4 * np.eye(2), 9.0, value=1.0, n_max=20)

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
            try:
                cs = lookup_candidates(grid, s, sigma, center, cov, gamma, 10, 3.0)
            except EmptyWindowError:
                continue
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

    def test_nodata_in_gradient_stencil_names_first_candidate(self):
        # every live cell matches; the four neighbours of the hole tie on
        # residual and distance, so row-major order puts (2, 3) first
        values = np.full((7, 7), 1.0)
        values[3, 3] = -9999.0
        grid = simple_grid(values)
        with pytest.raises(NodataError, match=r"at cell \(2, 3\)$"):
            gated(grid, grid.cell_center(3, 3), 4.0 * np.eye(2), 9.0, value=1.0, n_max=20)
        with pytest.raises(NodataError, match=r"at cell \(4, 3\)$"):
            gradient_at(grid, grid.cell_center(4, 3))
        # only the kept candidates need a gradient: (2, 3) is gated in but cut
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
        try:
            cs = lookup_candidates(grid, value, sigma, center, cov, gamma, n_max, k_sig)
        except NodataError:
            assert (values == -9999.0).any()
            return
        except EmptyWindowError:
            return
        sinv = np.linalg.inv(cov)
        for loc, residual, (r, c) in zip(cs.locations, cs.residuals, cs.cells):
            assert values[r, c] != -9999.0
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
        # Not a CovarianceError, which the tracker reads as an empty scan.
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
