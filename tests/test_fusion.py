import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gravnav.config import CHI2_99P9_2DOF, FusionParams
from gravnav.errors import NumericalError
from gravnav.fusion import (
    NavBelief,
    _process_noise,
    _unscented_weights,
    apply_batch,
    ukf_predict,
    ukf_update,
)
from gravnav.pmht import BatchEstimate, cv_model
from oracles import nav_kf_predict, nav_kf_update, ukf_predict_one


def belief(x=None, cov=None, time=0.0):
    if x is None:
        x = np.array([0.0, 0.0, 22.0, 0.0, 1e-6, -1e-6])
    if cov is None:
        cov = np.diag([900.0, 900.0, 0.01, 0.01, 4e-12, 4e-12])
    return NavBelief(state=np.asarray(x, dtype=float), cov=np.asarray(cov, dtype=float),
                     time=time)


def stack(*beliefs):
    """The beliefs as one stack of seeds, in order; they share the first one's time."""
    return NavBelief(state=np.array([b.state for b in beliefs]),
                     cov=np.array([b.cov for b in beliefs]), time=beliefs[0].time)


class TestUkfPredict:
    def test_deterministic_linear_advance(self):
        params = FusionParams(q_accel=0.0, bias_psd=0.0)
        b = stack(belief(x=[1.0, 2.0, 3.0, -4.0, 0.0, 0.0]))
        out = ukf_predict(b, np.zeros((1, 2)), 1.0, params)
        assert out.position[0] == pytest.approx([4.0, -2.0], abs=1e-9)
        assert out.state[0, 2:4] == pytest.approx([3.0, -4.0], abs=1e-12)
        assert out.time == 1.0
        # bias block untouched by prediction without bias noise
        assert out.cov[0, 4:, 4:] == pytest.approx(b.cov[0, 4:, 4:], abs=1e-20)

    def test_matches_kf_oracle(self):
        rng = np.random.default_rng(1)
        params = FusionParams(q_accel=1e-8, bias_psd=1e-12)
        b = stack(belief())
        kx, kp = b.state[0].copy(), b.cov[0].copy()
        for _ in range(30):
            a = rng.normal(0.0, 1e-3, 2)
            b = ukf_predict(b, a[None], 1.0, params)
            kx, kp = nav_kf_predict(kx, kp, a, 1.0, 1e-8, 1e-12)
            assert np.linalg.norm(b.state[0] - kx) / max(np.linalg.norm(kx), 1.0) <= 1e-10
            assert np.linalg.norm(b.cov[0] - kp) / max(np.linalg.norm(kp), 1.0) <= 1e-10

    def test_cov_trace_grows_under_prediction(self):
        params = FusionParams(q_accel=1e-8, bias_psd=1e-12)
        b = stack(belief())
        traces = [np.trace(b.cov[0])]
        for _ in range(20):
            b = ukf_predict(b, np.array([[0.1, -0.2]]), 1.0, params)
            traces.append(np.trace(b.cov[0]))
        assert (np.diff(traces) > 0).all()

    def test_cov_stays_symmetric(self):
        params = FusionParams(q_accel=1e-8, bias_psd=1e-12)
        b = stack(belief())
        for _ in range(10):
            b = ukf_predict(b, np.array([[1.0, 2.0]]), 1.0, params)
            assert (b.cov[0] == b.cov[0].T).all()

    def test_bit_identical_to_point_by_point_propagation(self):
        rng = np.random.default_rng(5)
        for alpha, dt in ((1.0, 1.0), (0.5, 0.37)):
            params = FusionParams(q_accel=2.5e-9, bias_psd=1e-12, alpha=alpha)
            r = belief()
            b = stack(r)
            for _ in range(50):
                a = rng.normal(0.0, 1e-3, 2)
                b = ukf_predict(b, a[None], dt, params)
                r = sigma_point_loop_predict(r, a, dt, params)
                assert np.array_equal(b.state[0], r.state)
                assert np.array_equal(b.cov[0], r.cov)

    def test_lone_belief_rejected(self):
        with pytest.raises(ValueError, match="stack"):
            ukf_predict(belief(), np.zeros(2), 1.0, FusionParams(q_accel=1e-8))

    def test_cached_weights_and_process_noise_are_read_only(self):
        _, wm, wc = _unscented_weights(6, 1.0, 2.0, 0.0)
        q = _process_noise(1.0, 1e-8, 1e-12)
        for arr in (wm, wc, q):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert _process_noise(1.0, 1e-8, 1e-12) is q

    @pytest.mark.parametrize("dt, q_accel", [(1.0, 1e-8), (10.0, 0.01), (0.3, 2.5e-9)])
    def test_process_noise_kinematic_block_is_cv_model_noise(self, dt, q_accel):
        q = _process_noise(dt, q_accel, 1e-12)
        assert np.array_equal(q[:4, :4], cv_model(dt, q_accel)[1])
        assert np.array_equal(q[4:, 4:], 1e-12 * dt * np.eye(2))
        assert not q[:4, 4:].any() and not q[4:, :4].any()

    def test_process_noise_cache_keys_on_every_parameter(self):
        b = stack(belief())
        base = ukf_predict(b, np.zeros((1, 2)), 1.0,
                           FusionParams(q_accel=1e-8, bias_psd=1e-12))
        for changed in (FusionParams(q_accel=2e-8, bias_psd=1e-12),
                        FusionParams(q_accel=1e-8, bias_psd=2e-12)):
            out = ukf_predict(b, np.zeros((1, 2)), 1.0, changed)
            assert not np.array_equal(out.cov, base.cov)


@st.composite
def spd_stacks(draw, r):
    """``r`` beliefs with random SPD covariances, each state's sigma drawn
    over nine decades, and ``r`` indicated accelerations."""
    a = draw(hnp.arrays(np.float64, (r, 6, 6), elements=st.floats(-3.0, 3.0)))
    log_sigma = draw(hnp.arrays(np.float64, (r, 6), elements=st.floats(-6.0, 3.0)))
    states = draw(hnp.arrays(np.float64, (r, 6), elements=st.floats(-1e5, 1e5)))
    accels = draw(hnp.arrays(np.float64, (r, 2), elements=st.floats(-1.0, 1.0)))
    sigma = 10.0 ** log_sigma
    m = a @ np.swapaxes(a, 1, 2) + 6.0 * np.eye(6)
    cov = sigma[:, :, None] * m * sigma[:, None, :]
    return NavBelief(state=states, cov=cov, time=0.0), accels


@st.composite
def conditioned_covs(draw, r, n):
    """``r`` SPD ``n x n`` matrices whose eigenvalues span at most six decades."""
    a = draw(hnp.arrays(np.float64, (r, n, n), elements=st.floats(-1.0, 1.0)))
    log_eig = draw(hnp.arrays(np.float64, (r, n), elements=st.floats(0.0, 6.0)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    q, _ = np.linalg.qr(a + 3.0 * np.eye(n))
    cov = (q * (scale * 10.0 ** log_eig)[:, None, :]) @ np.swapaxes(q, 1, 2)
    return 0.5 * (cov + np.swapaxes(cov, 1, 2))


def assert_psd(cov, rel=1e-9):
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() >= -rel * eigs.max()


def solo(b, i):
    return NavBelief(state=b.state[i].copy(), cov=b.cov[i].copy(), time=b.time)


class TestStackedPredict:
    """The stacked predict against the one-belief reference, bit for bit."""

    PARAMS = (FusionParams(q_accel=2.5e-9, bias_psd=1e-12),
              FusionParams(q_accel=1e-4, bias_psd=1e-10, alpha=0.5))

    @pytest.mark.parametrize("r", [1, 7])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_each_seed_gets_its_solo_bits(self, r, data):
        b, accels = data.draw(spd_stacks(r))
        params = data.draw(st.sampled_from(self.PARAMS))
        dt = data.draw(st.sampled_from([1.0, 0.37]))
        for _ in range(3):
            # Ill-conditioned draws can need the jitter: the stack must warn
            # exactly where the solo calls do.
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                out = ukf_predict(b, accels, dt, params)
            with warnings.catch_warnings(record=True) as want:
                warnings.simplefilter("always")
                refs = [ukf_predict_one(solo(b, i), accels[i], dt, params) for i in range(r)]
            assert [str(w.message) for w in got] == [str(w.message) for w in want]
            for i, ref in enumerate(refs):
                assert np.array_equal(out.state[i], ref.state)
                assert np.array_equal(out.cov[i], ref.cov)
                assert out.time == ref.time
            b = out

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_covariance_stays_symmetric_and_psd(self, data):
        r = data.draw(st.integers(1, 5))
        cov = data.draw(conditioned_covs(r, 6))
        states = data.draw(hnp.arrays(np.float64, (r, 6), elements=st.floats(-1e4, 1e4)))
        accels = data.draw(hnp.arrays(np.float64, (r, 2), elements=st.floats(-1.0, 1.0)))
        params = data.draw(st.sampled_from(self.PARAMS))
        b = NavBelief(state=states, cov=cov, time=0.0)
        for _ in range(3):
            b = ukf_predict(b, accels, 1.0, params)
            assert (b.cov == np.swapaxes(b.cov, 1, 2)).all()
            for c in b.cov:
                assert_psd(c)

    def test_one_non_pd_seed_regularized_alone(self):
        params = FusionParams(q_accel=2.5e-9, bias_psd=1e-12)
        rng = np.random.default_rng(7)
        b = stack(*(belief(x=rng.normal(0.0, 100.0, 6)) for _ in range(5)))
        b.cov[2, 4:, :] = b.cov[2, :, 4:] = 0.0  # singular: no bias uncertainty
        accels = rng.normal(0.0, 1e-3, (5, 2))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            out = ukf_predict(b, accels, 1.0, params)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            ref = ukf_predict_one(solo(b, 2), accels[2], 1.0, params)
        assert [(w.category, str(w.message)) for w in got] == \
            [(w.category, str(w.message)) for w in want]
        assert len(got) == 1
        assert np.array_equal(out.state[2], ref.state) and np.array_equal(out.cov[2], ref.cov)
        for i in (0, 1, 3, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ref = ukf_predict_one(solo(b, i), accels[i], 1.0, params)
            assert np.array_equal(out.state[i], ref.state)
            assert np.array_equal(out.cov[i], ref.cov)

    def test_seed_failing_after_regularization_named_in_rows(self):
        params = FusionParams(q_accel=2.5e-9, bias_psd=1e-12)
        b = stack(*(belief() for _ in range(4)))
        b.cov[1] = -np.eye(6)
        b.cov[3] = -2.0 * np.eye(6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalError) as exc:
                ukf_predict(b, np.zeros((4, 2)), 1.0, params)
        assert exc.value.rows == (1, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalError):
                ukf_predict_one(solo(b, 1), np.zeros(2), 1.0, params)


def sigma_point_loop_predict(b, accel, dt, params):
    """Unscented predict that advances the sigma points one at a time."""
    n = b.state.size
    alpha, beta, kappa = params.alpha, params.beta, params.kappa
    lam = alpha * alpha * (n + kappa) - n
    c = n + lam
    root = np.linalg.cholesky(c * 0.5 * (b.cov + b.cov.T))
    points = np.empty((2 * n + 1, n))
    points[0] = b.state
    points[1:n + 1] = b.state + root.T
    points[n + 1:] = b.state - root.T
    wm = np.full(2 * n + 1, 1.0 / (2.0 * c))
    wc = wm.copy()
    wm[0] = lam / c
    wc[0] = lam / c + (1.0 - alpha * alpha + beta)
    prop = np.empty_like(points)
    for i, pt in enumerate(points):
        acc = accel - pt[4:6]
        prop[i, 0:2] = pt[0:2] + pt[2:4] * dt + 0.5 * acc * dt * dt
        prop[i, 2:4] = pt[2:4] + acc * dt
        prop[i, 4:6] = pt[4:6]
    mean = wm @ prop
    dev = prop - mean
    q = np.zeros((6, 6))
    q3, q2, q1 = dt ** 3 / 3.0, dt ** 2 / 2.0, dt
    for p, v in ((0, 2), (1, 3)):
        q[p, p] = params.q_accel * q3
        q[p, v] = q[v, p] = params.q_accel * q2
        q[v, v] = params.q_accel * q1
    q[4, 4] = q[5, 5] = params.bias_psd * dt
    cov = (wc[:, None] * dev).T @ dev + q
    return NavBelief(state=mean, cov=0.5 * (cov + cov.T), time=b.time + dt)


def offered_fix(variability, cov=np.diag([4.0, 9.0]), **params):
    """The fix ``apply_batch`` records for a one-scan batch in standard mode.

    The scan's smoothed position covariance is ``cov`` and its normalized
    variability ``variability``; ``params`` override the fusion settings.
    """
    covs = np.zeros((1, 4, 4))
    covs[0, :2, :2] = cov
    covs[0, 2:, 2:] = 0.01 * np.eye(2)
    est = BatchEstimate(means=np.array([[0.0, 0.0, 22.0, 0.0]]), covs=covs,
                        times=np.array([0.0]), iterations_used=1, converged=True)
    _, epoch = apply_batch(belief(), est, [variability],
                           FusionParams(nis_gate=None, **params))
    (fix,) = epoch.fixes
    assert epoch.n_accepted == int(fix.accepted)
    return fix


class TestWeightFixCovariance:
    """``apply_batch`` divides each fix covariance by ``max(v, v_floor)``."""

    def test_full_confidence_identity(self):
        cov = np.diag([4.0, 9.0])
        assert (offered_fix(1.0, cov).cov == cov).all()

    def test_half_variability_doubles(self):
        cov = np.diag([4.0, 9.0])
        assert np.allclose(offered_fix(0.5, cov).cov, 2.0 * cov)
        # above the floor the variability itself scales the covariance
        assert np.allclose(offered_fix(0.25, cov, v_floor=0.2).cov, 4.0 * cov)

    def test_floor_caps_inflation(self):
        cov = np.eye(2)
        assert np.allclose(offered_fix(0.0, cov).cov, 100.0 * cov)
        assert np.allclose(offered_fix(0.1, cov, v_floor=0.2).cov, 5.0 * cov)


class TestAidingGate:
    """``apply_batch`` takes a fix only where ``v >= variability_threshold``."""

    def test_accepts_above_threshold(self):
        assert offered_fix(0.5, variability_threshold=0.05).accepted

    def test_accepts_at_threshold(self):
        assert offered_fix(0.05, variability_threshold=0.05).accepted

    def test_rejects_below_threshold(self):
        assert not offered_fix(0.01, variability_threshold=0.05).accepted

    def test_zero_threshold_always_accepts(self):
        assert offered_fix(0.0, variability_threshold=0.0).accepted


class TestUkfUpdate:
    def test_perfect_measurement_pins_position(self):
        b = belief()
        r = 1e-6 * np.eye(2)
        out, nis = ukf_update(b, b.position, r, FusionParams())
        assert nis == pytest.approx(0.0, abs=1e-9)
        assert out.position == pytest.approx(b.position, abs=1e-9)
        eigs = np.linalg.eigvalsh(r - out.cov[:2, :2])
        assert eigs.min() >= -1e-12

    def test_uninformative_measurement_keeps_prior(self):
        b = belief()
        out, _ = ukf_update(b, np.array([123.0, -77.0]), 1e12 * np.eye(2), FusionParams())
        assert np.linalg.norm(out.state - b.state) / np.linalg.norm(b.state) <= 1e-6
        assert np.linalg.norm(out.cov - b.cov) / np.linalg.norm(b.cov) <= 1e-6

    def test_matches_kf_oracle(self):
        rng = np.random.default_rng(2)
        params = FusionParams()
        for _ in range(30):
            b = belief(cov=np.diag(rng.uniform(0.5, 2.0, 6)))
            z = b.position + rng.normal(0.0, 5.0, 2)
            r = np.diag(rng.uniform(1.0, 50.0, 2))
            out, nis = ukf_update(b, z, r, params)
            kx, kp = nav_kf_update(b.state, b.cov, z, r)
            assert np.linalg.norm(out.state - kx) / max(np.linalg.norm(kx), 1.0) <= 1e-10
            assert np.linalg.norm(out.cov - kp) / max(np.linalg.norm(kp), 1.0) <= 1e-10
            innov = z - b.position
            assert nis == pytest.approx(innov @ np.linalg.solve(b.cov[:2, :2] + r, innov),
                                        rel=1e-10)

    def test_accepted_update_never_inflates_trace(self):
        rng = np.random.default_rng(3)
        params = FusionParams()
        for _ in range(50):
            b = belief(cov=np.diag(rng.uniform(0.1, 10.0, 6)))
            z = b.position + rng.normal(0.0, 1.0, 2)
            out, _ = ukf_update(b, z, np.diag(rng.uniform(0.5, 5.0, 2)), params)
            assert np.trace(out.cov) <= np.trace(b.cov) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_covariance_stays_psd_and_trace_never_grows(self, data):
        (cov,) = data.draw(conditioned_covs(1, 6))
        (r,) = data.draw(conditioned_covs(1, 2))
        state = data.draw(hnp.arrays(np.float64, 6, elements=st.floats(-1e4, 1e4)))
        offset = data.draw(hnp.arrays(np.float64, 2, elements=st.floats(-1e3, 1e3)))
        b = NavBelief(state=state, cov=cov, time=0.0)
        out, nis = ukf_update(b, state[:2] + offset, r, FusionParams())
        assert nis >= 0.0
        assert (out.cov == out.cov.T).all()
        assert_psd(out.cov)
        assert np.trace(out.cov) <= np.trace(cov) * (1.0 + 1e-12)

    def test_reads_no_gate(self):
        # A fix far past the NIS gate is still applied: the gate is apply_batch's.
        b = belief()
        far = b.position + np.array([4000.0, 0.0])
        out, nis = ukf_update(b, far, np.eye(2), FusionParams(nis_gate=CHI2_99P9_2DOF))
        ref, ref_nis = ukf_update(b, far, np.eye(2), FusionParams(nis_gate=None))
        assert nis == ref_nis > CHI2_99P9_2DOF
        assert np.array_equal(out.state, ref.state) and np.array_equal(out.cov, ref.cov)
        assert out.position[0] > b.position[0] + 3000.0


class TestApplyBatch:
    def make_estimate(self, positions, times, pos_cov=25.0):
        means = np.array([[p[0], p[1], 22.0, 0.0] for p in positions])
        covs = np.array([np.diag([pos_cov, pos_cov, 0.01, 0.01])] * len(positions))
        return BatchEstimate(means=means, covs=covs, times=np.asarray(times, dtype=float),
                             iterations_used=1, converged=True)

    def test_standard_applies_single_update(self):
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        b = belief(time=20.0)
        params = FusionParams(nis_gate=None)
        out, epoch = apply_batch(b, est, [1.0, 1.0], params)
        assert len(epoch.fixes) == 1
        assert epoch.n_accepted == 1
        assert out.time == epoch.time == 20.0
        assert (epoch.iterations_used, epoch.converged) == (1, True)

    def test_retrodiction_applies_all_fixes(self):
        est = self.make_estimate([(10.0, 0.0), (120.0, 1.0), (230.0, 2.0)],
                                 [10.0, 20.0, 30.0])
        b = belief(time=10.0)
        params = FusionParams(mode="retrodiction", nis_gate=None)
        calls = []

        def advance(bel, t_target):
            calls.append(t_target)
            return NavBelief(state=bel.state, cov=bel.cov, time=t_target)

        out, epoch = apply_batch(b, est, [1.0, 1.0, 1.0], params, advance)
        assert epoch.n_accepted == 3
        assert calls == [20.0, 30.0]
        assert out.time == 30.0

    def test_retrodiction_replays_to_batch_end(self):
        # the last fix is gated out, so the belief is re-predicted past it
        est = self.make_estimate([(10.0, 0.0), (120.0, 1.0), (230.0, 2.0)],
                                 [10.0, 20.0, 30.0])
        params = FusionParams(mode="retrodiction", nis_gate=None)
        calls = []

        def advance(bel, t_target):
            calls.append(t_target)
            return NavBelief(state=bel.state, cov=bel.cov, time=t_target)

        out, epoch = apply_batch(belief(time=10.0), est, [1.0, 1.0, 0.0], params, advance)
        assert epoch.n_accepted == 2
        assert not epoch.fixes[2].accepted
        assert calls == [20.0, 30.0]
        assert out.time == epoch.time == 30.0

    def test_belief_behind_the_batch_needs_advance(self):
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        with pytest.raises(ValueError, match="advance"):
            apply_batch(belief(time=10.0), est, [1.0, 1.0], FusionParams(nis_gate=None))

    def test_modes_agree_on_single_effective_fix(self):
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        params = FusionParams(nis_gate=None, variability_threshold=0.05)
        variabilities = [0.0, 1.0]  # first fix gated out
        std, _ = apply_batch(belief(time=20.0), est, variabilities, params)
        retro, _ = apply_batch(belief(time=20.0), est, variabilities,
                               replace(params, mode="retrodiction"))
        assert (std.state == retro.state).all()
        assert (std.cov == retro.cov).all()

    def test_all_fixes_rejected_leaves_belief_unchanged(self):
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        b = belief(time=20.0)
        params = FusionParams(variability_threshold=0.5)
        out, epoch = apply_batch(b, est, [0.0, 0.01], params)
        assert epoch.n_accepted == 0
        assert out is b
        assert not epoch.fixes[0].accepted

    def test_nis_gate_rejects_far_fix_bit_identical(self):
        est = self.make_estimate([(10.0, 0.0), (4020.0, 0.0)], [10.0, 20.0], pos_cov=1.0)
        b = belief(time=20.0)
        out, epoch = apply_batch(b, est, [1.0, 1.0], FusionParams(nis_gate=CHI2_99P9_2DOF))
        assert out is b
        assert (epoch.n_accepted, epoch.n_nis_rejected) == (0, 1)
        assert epoch.fixes[0].accepted
        # without the gate the same fix is applied
        out, epoch = apply_batch(b, est, [1.0, 1.0], FusionParams(nis_gate=None))
        assert out is not b and out.position[0] > 3000.0
        assert (epoch.n_accepted, epoch.n_nis_rejected) == (1, 0)

    def test_variability_inflates_fix_cov(self):
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        params = FusionParams(nis_gate=None)
        _, epoch = apply_batch(belief(time=20.0), est, [1.0, 0.5], params)
        assert np.allclose(epoch.fixes[0].cov, 2.0 * 25.0 * np.eye(2))
