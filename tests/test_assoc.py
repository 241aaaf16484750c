import numpy as np
import pytest

from gravnav.assoc import (
    FarCandidateWarning,
    candidate_weights,
    pda_fuse,
    position_noise_cov,
)
from gravnav.errors import NoFixError
from gravnav.geomap import Candidate, CandidateSet
from oracles import gaussian_weights


def make_set(points, sigma=1.0, prior=(0.0, 0.0)):
    cands = tuple(Candidate(location=np.asarray(p, dtype=float)) for p in points)
    return CandidateSet(cands, measurement=0.0, sigma=sigma,
                        prior_mean=np.asarray(prior, dtype=float), prior_cov=np.eye(2))


class TestPositionNoiseCov:
    def test_unit_propagation(self):
        r = position_noise_cov(1.0, np.array([1.0, 0.0]), grad_floor=1e-9)
        assert np.allclose(r, np.eye(2))

    def test_half_slope(self):
        r = position_noise_cov(2.0, np.array([0.0, 4.0]))
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

    def test_empty_set_raises(self):
        with pytest.raises(NoFixError):
            candidate_weights(make_set([]), np.zeros(2), np.eye(2))

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


class TestBitExactness:
    @pytest.mark.filterwarnings("ignore::gravnav.assoc.FarCandidateWarning")
    def test_weights_and_fusion_match_scan_by_scan_arithmetic(self):
        # counts on both sides of numpy's 8-element pairwise-sum threshold,
        # near-singular covariances that take the regularization path, and
        # far candidates that take the uniform fallback
        rng = np.random.default_rng(8)
        for trial in range(200):
            n = int(rng.integers(1, 21))
            points = rng.normal(0.0, 10.0 ** rng.uniform(0, 3), (n, 2))
            pred = rng.normal(0.0, 50.0, 2)
            m = rng.normal(0.0, 1.0, (2, 2))
            cov = m @ m.T * 10.0 ** rng.uniform(-1, 4)
            if trial % 10 == 0:
                cov = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
            covs = [c @ c.T + 0.01 * np.eye(2) for c in rng.normal(0.0, 1.0, (n, 2, 2))]
            spread = bool(trial % 2)
            cs = make_set(points)
            w = candidate_weights(cs, pred, cov)
            assert np.array_equal(w, reference_weights(cs.locations, pred, cov))
            res = pda_fuse(cs, w, covs, spread_cov=spread)
            z_bar, r_bar = reference_fuse(cs.locations, w, covs, spread)
            assert np.array_equal(res.fused_position, z_bar)
            assert np.array_equal(res.fused_cov, r_bar)


class TestPdaFuse:
    def test_single_candidate_identity(self):
        cs = make_set([(3.0, 4.0)])
        res = pda_fuse(cs, [1.0], [2.0 * np.eye(2)])
        assert res.fused_position == pytest.approx([3.0, 4.0])
        assert np.allclose(res.fused_cov, 2.0 * np.eye(2))
        assert res.n_candidates == 1

    def test_equal_weight_midpoint(self):
        cs = make_set([(0.0, 0.0), (2.0, 0.0)])
        res = pda_fuse(cs, [0.5, 0.5], [np.eye(2), np.eye(2)])
        assert res.fused_position == pytest.approx([1.0, 0.0])

    def test_weighted_mean_arithmetic(self):
        # given weights, the fused position is plain weighted-mean arithmetic
        cs = make_set([(1.0, 0.0), (0.0, 2.0), (-3.0, 0.0)])
        weights = [0.7054, 0.2361, 0.0585]
        res = pda_fuse(cs, weights, [np.eye(2)] * 3)
        assert res.fused_position == pytest.approx([0.5299, 0.4722], abs=1e-4)

    def test_fused_position_in_convex_hull_and_cov_psd(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            points = rng.normal(0.0, 5.0, (n, 2))
            raw = rng.uniform(0.1, 1.0, n)
            w = raw / raw.sum()
            covs = []
            for _ in range(n):
                m = rng.normal(0.0, 1.0, (2, 2))
                covs.append(m @ m.T + 0.01 * np.eye(2))
            res = pda_fuse(make_set(points), w, covs, spread_cov=bool(rng.integers(2)))
            lo = points.min(axis=0) - 1e-12
            hi = points.max(axis=0) + 1e-12
            assert (res.fused_position >= lo).all() and (res.fused_position <= hi).all()
            eigs = np.linalg.eigvalsh(res.fused_cov)
            assert eigs.min() >= -1e-12
            assert np.allclose(res.fused_cov, res.fused_cov.T)

    def test_coincident_candidates(self):
        points = [(2.0, 2.0)] * 3
        w = [0.2, 0.5, 0.3]
        covs = [np.eye(2), 2.0 * np.eye(2), 4.0 * np.eye(2)]
        res = pda_fuse(make_set(points), w, covs, spread_cov=True)
        assert res.fused_position == pytest.approx([2.0, 2.0])
        expected = (0.2 * 1.0 + 0.5 * 2.0 + 0.3 * 4.0) * np.eye(2)
        assert np.allclose(res.fused_cov, expected)

    def test_spread_term_adds_dispersion(self):
        points = np.array([(0.0, 0.0), (10.0, 0.0)])
        w = [0.5, 0.5]
        covs = [np.eye(2)] * 2
        plain = pda_fuse(make_set(points), w, covs, spread_cov=False)
        spread = pda_fuse(make_set(points), w, covs, spread_cov=True)
        assert np.allclose(plain.fused_cov, np.eye(2))
        assert spread.fused_cov[0, 0] == pytest.approx(1.0 + 25.0)

    def test_translation_equivariance(self):
        points = np.array([(1.0, 1.0), (3.0, -2.0)])
        w = [0.25, 0.75]
        covs = [np.eye(2), 2.0 * np.eye(2)]
        shift = np.array([11.0, -7.0])
        a = pda_fuse(make_set(points), w, covs)
        b = pda_fuse(make_set(points + shift), w, covs)
        assert b.fused_position == pytest.approx(a.fused_position + shift)
        assert np.allclose(a.fused_cov, b.fused_cov)

    def test_empty_raises(self):
        with pytest.raises(NoFixError):
            pda_fuse(make_set([]), [], [])

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            pda_fuse(make_set([(0.0, 0.0), (1.0, 0.0)]), [0.9, 0.5], [np.eye(2)] * 2)
