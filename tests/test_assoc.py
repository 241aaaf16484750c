import numpy as np
import pytest

from gravnav.assoc import (
    FarCandidateWarning,
    ScanStack,
    candidate_weights,
    position_noise_cov,
    stack_fuse,
)
from gravnav.config import PmhtParams
from oracles import gaussian_weights
from scenarios import scan_from_points

GRAD_FLOOR = PmhtParams.grad_floor


def make_set(points, sigma=1.0):
    """Candidates on a flat map: the weights read only their locations."""
    return scan_from_points(points, sigma, np.zeros((len(points), 2)))


def slope(variance):
    """The map gradient on which unit field noise gives position variance ``variance``."""
    return np.array([1.0 / np.sqrt(variance), 0.0])


def fuse_one(points, weights, variances, spread_cov=False):
    """Fused position and covariance of one scan, as a one-row ScanStack.

    Candidate i has unit field noise on the slope that gives it the
    position-noise covariance ``variances[i] * I``.
    """
    cs = scan_from_points(points, 1.0, [slope(v) for v in variances])
    positions, fused = stack_fuse(ScanStack.build([cs]),
                                  [np.asarray(weights, dtype=float)[None]], spread_cov)
    return positions[0], fused[0]


class TestPositionNoiseCov:
    def test_unit_propagation(self):
        r = position_noise_cov(1.0, np.array([1.0, 0.0]), grad_floor=1e-9)
        assert np.allclose(r, np.eye(2))

    def test_half_slope(self):
        r = position_noise_cov(2.0, np.array([0.0, 4.0]), grad_floor=1e-9)
        assert np.allclose(r, 0.25 * np.eye(2))

    def test_floor_engages_on_flat_map(self):
        r = position_noise_cov(3.0, np.zeros(2), grad_floor=0.5)
        assert np.allclose(r, 36.0 * np.eye(2))


class TestCandidateWeights:
    def test_single_candidate(self):
        w = candidate_weights(make_set([(4.0, 5.0)]), np.zeros(2), np.eye(2))
        assert w.tolist() == [1.0]

    def test_mirror_symmetry(self):
        w = candidate_weights(make_set([(1.0, 2.0), (-1.0, -2.0)]), np.zeros(2), np.eye(2))
        assert w == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_three_distance_fixture_matches_density_oracle(self):
        # candidates at distances 1, 2, 3 from the prediction, identity cov
        points = [(1.0, 0.0), (0.0, 2.0), (-3.0, 0.0)]
        w = candidate_weights(make_set(points), np.zeros(2), np.eye(2))
        oracle = gaussian_weights(points, np.zeros(2), np.eye(2))
        assert w == pytest.approx(oracle, abs=5e-5)
        # frozen values computed with the density oracle
        assert w == pytest.approx([0.80551, 0.17971, 0.01478], abs=5e-5)

    @pytest.mark.filterwarnings("ignore::gravnav.assoc.FarCandidateWarning")
    def test_sum_to_one_over_random_fixtures(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            points = rng.normal(0.0, 10.0, (n, 2))
            pred = rng.normal(0.0, 10.0, 2)
            a = rng.uniform(0.5, 3.0)
            b = rng.uniform(0.5, 3.0)
            rho = rng.uniform(-0.7, 0.7) * np.sqrt(a * b)
            cov = np.array([[a, rho], [rho, b]])
            w = candidate_weights(make_set(points), pred, cov)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert (w >= 0).all() and (w <= 1).all()

    def test_translation_equivariance(self):
        points = np.array([(1.0, 0.0), (0.0, 2.0), (-3.0, 0.0)])
        shift = np.array([123.4, -56.7])
        w0 = candidate_weights(make_set(points), np.zeros(2), np.eye(2))
        w1 = candidate_weights(make_set(points + shift), shift, np.eye(2))
        assert w1 == pytest.approx(w0, abs=1e-14)

    def test_likelihood_scale_invariance(self):
        # scaling the covariance scales every density by a constant plus
        # rescales the exponent; weights built from distance RATIOS are
        # preserved only by a pure constant factor, which the normalization
        # removes. Check against the direct density oracle at both scales.
        points = [(0.5, 0.1), (-1.0, 2.0), (3.0, 1.0)]
        for scale in (1.0, 4.0):
            cov = scale * np.eye(2)
            w = candidate_weights(make_set(points), np.zeros(2), cov)
            assert w == pytest.approx(gaussian_weights(points, np.zeros(2), cov), abs=1e-12)

    def test_uniform_fallback_warns_when_all_densities_underflow(self):
        points = [(1e9, 0.0), (1.1e9, 0.0)]
        with pytest.warns(FarCandidateWarning):
            w = candidate_weights(make_set(points), np.zeros(2), 1e-6 * np.eye(2))
        assert w == pytest.approx([0.5, 0.5])

    def test_log_domain_survives_large_distances(self):
        # far from underflow-fallback territory, ratios stay exact
        points = [(30.0, 0.0), (31.0, 0.0)]
        w = candidate_weights(make_set(points), np.zeros(2), np.eye(2))
        assert w == pytest.approx(gaussian_weights(points, np.zeros(2), np.eye(2)), rel=1e-10)

    def test_empty_set_has_empty_weights(self):
        w = candidate_weights(make_set([]), np.zeros(2), np.eye(2))
        assert w.shape == (0,) and w.dtype == float

    @pytest.mark.filterwarnings("ignore::gravnav.assoc.FarCandidateWarning")
    def test_near_singular_cov_regularized(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        w = candidate_weights(make_set([(1.0, 0.0), (0.0, 1.0)]), np.zeros(2), cov)
        assert np.isfinite(w).all() and abs(w.sum() - 1.0) <= 1e-12


def reference_weights(locs, pred, cov):
    """One scan's weights with the scan-by-scan arithmetic of the kernels."""
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    if eigs.min() <= 0 or eigs.max() / max(eigs.min(), 1e-300) > 1e12:
        cov = cov + (1e-9 * np.trace(cov) / 2.0) * np.eye(2)
    white = np.linalg.solve(np.linalg.cholesky(cov), (locs - pred).T)
    logw = -0.5 * np.sum(white ** 2, axis=0)
    peak = logw.max()
    if not np.isfinite(peak) or peak < -744.44:
        return np.full(len(locs), 1.0 / len(locs))
    w = np.exp(logw - peak)
    return w / w.sum()


def reference_fuse(locs, w, covs, spread_cov):
    """One scan's fused position and covariance, candidate by candidate."""
    z_bar = w @ locs
    r_bar = sum(wi * ci for wi, ci in zip(w, covs)) / w.sum()
    if spread_cov:
        d = locs - z_bar
        r_bar = r_bar + (w[:, None] * d).T @ d
    return z_bar, 0.5 * (r_bar + r_bar.T)


def random_scans(rng, counts):
    """Scans of the given candidate counts in ``counts``' order; a third of
    the gradients lie at or below the gradient floor."""
    scans = []
    for n in counts:
        grads = rng.normal(0.0, 1e-6, (n, 2))
        grads[::3] = (GRAD_FLOOR, 0.0) if n % 2 else (0.0, 0.0)
        scans.append(scan_from_points(rng.normal(0.0, 10.0 ** rng.uniform(0, 3), (n, 2)),
                                      rng.uniform(1e-6, 1e-4), grads))
    return scans


class TestBitExactness:
    @pytest.mark.filterwarnings("ignore::gravnav.assoc.FarCandidateWarning")
    def test_weights_and_fusion_match_scan_by_scan_arithmetic(self):
        # counts on both sides of numpy's 8-element pairwise-sum threshold,
        # near-singular covariances that take the regularization path, far
        # candidates that take the uniform fallback, and gradients at or
        # below the floor
        rng = np.random.default_rng(8)
        for trial in range(200):
            n = int(rng.integers(1, 21))
            pred = rng.normal(0.0, 50.0, 2)
            m = rng.normal(0.0, 1.0, (2, 2))
            cov = m @ m.T * 10.0 ** rng.uniform(-1, 4)
            if trial % 10 == 0:
                cov = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
            spread = bool(trial % 2)
            cs = random_scans(rng, [n])[0]
            w = candidate_weights(cs, pred, cov)
            assert np.array_equal(w, reference_weights(cs.locations, pred, cov))
            positions, fused = stack_fuse(ScanStack.build([cs]), [w[None]], spread)
            noise = [position_noise_cov(cs.sigma, g, GRAD_FLOOR) for g in cs.grads]
            z_bar, r_bar = reference_fuse(cs.locations, w, noise, spread)
            assert np.array_equal(positions[0], z_bar)
            assert np.array_equal(fused[0], r_bar)

    # Every count from 1 to 20 twice, so groups hold several rows, in a
    # shuffled scan order with empty scans between.
    COUNTS = [0, 7, 20, 1, 9, 0, 8] + [n for n in range(1, 21) for _ in range(2)]

    def stacked(self, seed):
        rng = np.random.default_rng(seed)
        counts = list(rng.permutation(self.COUNTS))
        scans = random_scans(rng, counts)
        return rng, scans, ScanStack.build(scans, GRAD_FLOOR)

    def test_stack_rows_and_first_cov_match_candidate_order_sums(self):
        _, scans, stack = self.stacked(4)
        rows = [r for r in stack.row_of if r >= 0]
        assert sorted(rows) == list(range(len(stack)))
        for t, cs in enumerate(scans):
            r = stack.row_of[t]
            if len(cs) == 0:
                assert r == -1
                continue
            assert stack.scans[r] == t
            covs = [position_noise_cov(cs.sigma, g, GRAD_FLOOR) for g in cs.grads]
            assert np.array_equal(stack.first_cov[r], sum(covs) / len(covs))
        for rows, locs, noise_covs in stack.groups:
            for r, loc, cov in zip(range(rows.start, rows.stop), locs, noise_covs):
                cs = scans[stack.scans[r]]
                assert np.array_equal(loc, cs.locations)
                assert np.array_equal(cov, [position_noise_cov(cs.sigma, g, GRAD_FLOOR)
                                            for g in cs.grads])

    @pytest.mark.parametrize("spread_cov", [False, True])
    def test_fusion_matches_candidate_order_sums(self, spread_cov):
        rng, scans, stack = self.stacked(9)
        weights = []
        for rows, locs, _ in stack.groups:
            raw = rng.uniform(0.01, 1.0, locs.shape[:2])
            weights.append(raw / raw.sum(axis=1, keepdims=True))
        positions, covs = stack_fuse(stack, weights, spread_cov)
        for (rows, locs, _), w in zip(stack.groups, weights):
            for r, wr in zip(range(rows.start, rows.stop), w):
                cs = scans[stack.scans[r]]
                noise = [position_noise_cov(cs.sigma, g, GRAD_FLOOR) for g in cs.grads]
                z_bar, r_bar = reference_fuse(cs.locations, wr, noise, spread_cov)
                assert np.array_equal(positions[r], z_bar)
                assert np.array_equal(covs[r], r_bar)

    def test_floor_default_is_the_tracker_setting(self):
        scans = random_scans(np.random.default_rng(2), [3, 12])
        default, explicit = ScanStack.build(scans), ScanStack.build(scans, GRAD_FLOOR)
        assert np.array_equal(default.first_cov, explicit.first_cov)
        coarse = ScanStack.build(scans, 1e-3)
        assert not np.array_equal(default.first_cov, coarse.first_cov)


class TestPdaFuse:
    def test_single_candidate_identity(self):
        pos, cov = fuse_one([(3.0, 4.0)], [1.0], [2.0])
        assert pos == pytest.approx([3.0, 4.0])
        assert np.allclose(cov, 2.0 * np.eye(2))

    def test_equal_weight_midpoint(self):
        pos, _ = fuse_one([(0.0, 0.0), (2.0, 0.0)], [0.5, 0.5], [1.0, 1.0])
        assert pos == pytest.approx([1.0, 0.0])

    def test_weighted_mean_arithmetic(self):
        # given weights, the fused position is plain weighted-mean arithmetic
        points = [(1.0, 0.0), (0.0, 2.0), (-3.0, 0.0)]
        weights = [0.7054, 0.2361, 0.0585]
        pos, _ = fuse_one(points, weights, [1.0] * 3)
        assert pos == pytest.approx([0.5299, 0.4722], abs=1e-4)

    def test_fused_position_in_convex_hull_and_cov_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            points = rng.normal(0.0, 5.0, (n, 2))
            raw = rng.uniform(0.1, 1.0, n)
            w = raw / raw.sum()
            variances = rng.uniform(0.01, 5.0, n)
            pos, cov = fuse_one(points, w, variances, spread_cov=bool(rng.integers(2)))
            lo = points.min(axis=0) - 1e-12
            hi = points.max(axis=0) + 1e-12
            assert (pos >= lo).all() and (pos <= hi).all()
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() >= -1e-12
            assert np.allclose(cov, cov.T)

    def test_coincident_candidates(self):
        points = [(2.0, 2.0)] * 3
        w = [0.2, 0.5, 0.3]
        pos, cov = fuse_one(points, w, [1.0, 2.0, 4.0], spread_cov=True)
        assert pos == pytest.approx([2.0, 2.0])
        expected = (0.2 * 1.0 + 0.5 * 2.0 + 0.3 * 4.0) * np.eye(2)
        assert np.allclose(cov, expected)

    def test_spread_term_adds_dispersion(self):
        points = np.array([(0.0, 0.0), (10.0, 0.0)])
        w = [0.5, 0.5]
        _, plain = fuse_one(points, w, [1.0] * 2, spread_cov=False)
        _, spread = fuse_one(points, w, [1.0] * 2, spread_cov=True)
        assert np.allclose(plain, np.eye(2))
        assert spread[0, 0] == pytest.approx(1.0 + 25.0)

    def test_translation_equivariance(self):
        points = np.array([(1.0, 1.0), (3.0, -2.0)])
        w = [0.25, 0.75]
        shift = np.array([11.0, -7.0])
        pos_a, cov_a = fuse_one(points, w, [1.0, 2.0])
        pos_b, cov_b = fuse_one(points + shift, w, [1.0, 2.0])
        assert pos_b == pytest.approx(pos_a + shift)
        assert np.allclose(cov_a, cov_b)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            fuse_one([(0.0, 0.0), (1.0, 0.0)], [0.9, 0.5], [1.0] * 2)
