import numpy as np
import pytest

from gravnav.errors import (
    CovarianceError,
    EmptyWindowError,
    GridFormatError,
    NodataError,
    OutOfBoundsError,
    UnsupportedGeometryError,
)
from gravnav.geomap import (
    GridMap,
    feature_variability,
    gradient_at,
    load_grid,
    lookup_candidates,
    normalize_variability,
    save_grid,
    search_window,
    value_at,
    variability_field,
)
from oracles import brute_variability


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


class TestSearchWindow:
    def test_unit_cov_three_sigma(self):
        w = search_window(np.zeros(2), np.eye(2), gamma=9.0)
        assert w.half_extents == pytest.approx([3.0, 3.0])

    def test_diagonal_cov(self):
        w = search_window(np.zeros(2), np.diag([4.0, 1.0]), gamma=1.0)
        assert w.half_extents == pytest.approx([2.0, 1.0])

    def test_correlated_cov_contains_ellipse(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        w = search_window(np.array([2.0, -1.0]), cov, gamma=9.0)
        assert w.half_extents == pytest.approx([3.0, 3.0])
        chol = np.linalg.cholesky(cov)
        theta = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
        boundary = w.center + np.sqrt(9.0) * (chol @ np.vstack([np.cos(theta), np.sin(theta)])).T
        inside = np.abs(boundary - w.center) <= w.half_extents + 1e-12
        assert inside.all()

    def test_rejects_non_pd(self):
        with pytest.raises(CovarianceError):
            search_window(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), gamma=9.0)


class TestLookupCandidates:
    def test_constant_map_matches_all_window_cells(self):
        grid = simple_grid(np.full((9, 9), 5.0))
        # strip window: 5 columns wide, 1 row tall, centered on a cell center
        cov = np.diag([(2.4 / 3.0) ** 2, (0.4 / 3.0) ** 2])
        w = search_window(np.array([4.5, 4.5]), cov, gamma=9.0)
        cs = lookup_candidates(grid, 5.0, sigma=1.0, window=w, n_max=20)
        assert len(cs) == 5
        assert all(c.value_residual == 0.0 for c in cs)

    def test_no_cell_within_residual_gate(self):
        sigma = 0.1
        grid = simple_grid(np.full((5, 5), 5.0 + 100.0 * 3.0 * sigma))
        w = search_window(np.array([2.5, 2.5]), np.eye(2), gamma=9.0)
        cs = lookup_candidates(grid, 5.0, sigma=sigma, window=w, n_max=20)
        assert len(cs) == 0

    def test_empty_window_raises(self):
        grid = simple_grid(np.full((5, 5), 1.0))
        w = search_window(np.array([100.0, 100.0]), 1e-4 * np.eye(2), gamma=9.0)
        with pytest.raises(EmptyWindowError):
            lookup_candidates(grid, 1.0, sigma=1.0, window=w, n_max=20)

    def test_two_cluster_map_equals_exhaustive_scan(self):
        values = np.zeros((20, 20))
        values[2:5, 2:5] = 1.0
        values[14:17, 15:18] = 1.0
        grid = simple_grid(values)
        sigma = 0.01
        w = search_window(np.array([10.0, 10.0]), np.diag([40.0, 40.0]), gamma=9.0)
        cs = lookup_candidates(grid, 1.0, sigma=sigma, window=w, n_max=500)

        expected = set()
        sinv = np.linalg.inv(w.prior_cov)
        for r in range(20):
            for c in range(20):
                center = grid.cell_center(r, c)
                d = center - w.center
                if abs(d[0]) > w.half_extents[0] or abs(d[1]) > w.half_extents[1]:
                    continue
                if d @ sinv @ d > w.gamma:
                    continue
                if abs(values[r, c] - 1.0) > 3.0 * sigma:
                    continue
                expected.add((r, c))
        got = {c.cell for c in cs}
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
            w = search_window(center, cov, gamma)
            s = rng.normal(0.0, 1.0)
            sigma = rng.uniform(0.1, 1.0)
            try:
                cs = lookup_candidates(grid, s, sigma, w, n_max=10)
            except EmptyWindowError:
                continue
            sinv = np.linalg.inv(cov)
            for cand in cs:
                d = cand.location - center
                assert d @ sinv @ d <= gamma + 1e-12
                assert cand.value_residual <= 3.0 * sigma + 1e-12

    def test_determinism_and_prefix_monotonicity(self):
        rng = np.random.default_rng(5)
        values = np.round(rng.normal(0.0, 1.0, (25, 25)), 1)  # force residual ties
        grid = simple_grid(values)
        w = search_window(np.array([12.0, 12.0]), np.diag([30.0, 30.0]), gamma=9.21)
        a = lookup_candidates(grid, 0.0, sigma=0.5, window=w, n_max=15)
        b = lookup_candidates(grid, 0.0, sigma=0.5, window=w, n_max=15)
        assert [c.cell for c in a] == [c.cell for c in b]
        for n in (1, 3, 7, 12):
            prefix = lookup_candidates(grid, 0.0, sigma=0.5, window=w, n_max=n)
            assert [c.cell for c in prefix] == [c.cell for c in a][:n]

    def test_locations_built_once_and_read_only(self):
        grid = simple_grid(np.full((9, 9), 5.0))
        w = search_window(np.array([4.5, 4.5]), np.eye(2), gamma=9.0)
        cs = lookup_candidates(grid, 5.0, sigma=1.0, window=w, n_max=20)
        locs = cs.locations
        assert locs.shape == (len(cs), 2)
        assert cs.locations is locs
        with pytest.raises(ValueError):
            locs[0, 0] = 0.0
        empty = lookup_candidates(grid, 50.0, sigma=1.0, window=w, n_max=20)
        assert empty.locations.shape == (0, 2)
        assert not empty.locations.flags.writeable


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
