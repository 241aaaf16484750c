import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
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
    batch_fixes,
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


def predict_step(b, accels, dt, params):
    """The stack ``b`` predicted one step with ``accels`` ``(R, 2)``: a run of one step."""
    return ukf_predict(b, np.asarray(accels)[None], dt, params)[0]


def stack(*beliefs):
    """The beliefs as one stack of seeds, in order; they share the first one's time."""
    return NavBelief(state=np.array([b.state for b in beliefs]),
                     cov=np.array([b.cov for b in beliefs]), time=beliefs[0].time)


class TestUkfPredict:
    def test_deterministic_linear_advance(self):
        params = FusionParams(q_accel=0.0, bias_psd=0.0)
        b = stack(belief(x=[1.0, 2.0, 3.0, -4.0, 0.0, 0.0]))
        out = predict_step(b, np.zeros((1, 2)), 1.0, params)
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
            b = predict_step(b, a[None], 1.0, params)
            kx, kp = nav_kf_predict(kx, kp, a, 1.0, 1e-8, 1e-12)
            assert np.linalg.norm(b.state[0] - kx) / max(np.linalg.norm(kx), 1.0) <= 1e-10
            assert np.linalg.norm(b.cov[0] - kp) / max(np.linalg.norm(kp), 1.0) <= 1e-10

    def test_cov_trace_grows_under_prediction(self):
        params = FusionParams(q_accel=1e-8, bias_psd=1e-12)
        b = stack(belief())
        traces = [np.trace(b.cov[0])]
        for _ in range(20):
            b = predict_step(b, np.array([[0.1, -0.2]]), 1.0, params)
            traces.append(np.trace(b.cov[0]))
        assert (np.diff(traces) > 0).all()

    def test_cov_stays_symmetric(self):
        params = FusionParams(q_accel=1e-8, bias_psd=1e-12)
        b = stack(belief())
        for _ in range(10):
            b = predict_step(b, np.array([[1.0, 2.0]]), 1.0, params)
            assert (b.cov[0] == b.cov[0].T).all()

    def test_bit_identical_to_point_by_point_propagation(self):
        rng = np.random.default_rng(5)
        for alpha, dt in ((1.0, 1.0), (0.5, 0.37)):
            params = FusionParams(q_accel=2.5e-9, bias_psd=1e-12, alpha=alpha)
            r = belief()
            b = stack(r)
            for _ in range(50):
                a = rng.normal(0.0, 1e-3, 2)
                b = predict_step(b, a[None], dt, params)
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
        base = predict_step(b, np.zeros((1, 2)), 1.0,
                           FusionParams(q_accel=1e-8, bias_psd=1e-12))
        for changed in (FusionParams(q_accel=2e-8, bias_psd=1e-12),
                        FusionParams(q_accel=1e-8, bias_psd=2e-12)):
            out = predict_step(b, np.zeros((1, 2)), 1.0, changed)
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
                out = predict_step(b, accels, dt, params)
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
            b = predict_step(b, accels, 1.0, params)
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
            out = predict_step(b, accels, 1.0, params)
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
                predict_step(b, np.zeros((4, 2)), 1.0, params)
        assert exc.value.rows == (1, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalError):
                ukf_predict_one(solo(b, 1), np.zeros(2), 1.0, params)


    def test_non_finite_seeds_named_in_rows(self):
        # A NaN covariance factors into NaN without raising, and a NaN state
        # factors fine: both must fail their row, not turn it NaN quietly.
        params = FusionParams(q_accel=2.5e-9, bias_psd=1e-12)
        b = stack(*(belief() for _ in range(4)))
        b.state[1, 0] = np.nan
        b.cov[3, 2, 2] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalError) as exc:
                predict_step(b, np.zeros((4, 2)), 1.0, params)
        assert exc.value.rows == (1, 3)

    def test_overflowing_spread_fails_every_row(self):
        b = stack(*(belief() for _ in range(3)))
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(NumericalError) as exc:
                predict_step(b, np.zeros((3, 2)), 1.0, FusionParams(alpha=1e200, q_accel=2.5e-9))
        assert exc.value.rows == (0, 1, 2)

def corridor_stack(rng, r):
    """``r`` beliefs at corridor scale: positions tens of km out, 22 m/s,
    micro-g biases, and random SPD covariances around the init sigmas."""
    sigma = np.array([30.0, 30.0, 0.1, 0.1, 2e-6, 2e-6]) * 10.0 ** rng.uniform(-1.0, 1.0, (r, 6))
    a = rng.normal(size=(r, 6, 6))
    cov = sigma[:, :, None] * (a @ a.transpose(0, 2, 1) + 6.0 * np.eye(6)) * sigma[:, None, :]
    state = np.column_stack([rng.uniform(0.0, 1.5e5, (r, 2)), 22.0 + rng.normal(0.0, 1.0, (r, 2)),
                             rng.normal(0.0, 2e-6, (r, 2))])
    return NavBelief(state=state, cov=cov, time=0.0)


def oracle_run(b, accels, dt, params):
    """Each row of ``b`` predicted alone, step by step, by the one-belief
    oracle: every step's beliefs, one list of rows per step."""
    rows, steps = [solo(b, i) for i in range(len(b.state))], []
    for run in accels:
        rows = [ukf_predict_one(row, a, dt, params) for row, a in zip(rows, run)]
        steps.append(rows)
    return steps


class TestPredictRun:
    """A run of S predict steps against S one-belief oracle steps per row, bit for bit."""

    PARAMS = FusionParams(q_accel=6.4e-9, bias_psd=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("steps", [1, 7, 10, 300])
    def test_every_step_of_every_row_gets_the_oracle_bits(self, steps, r):
        rng = np.random.default_rng(10 * steps + r)
        b = corridor_stack(rng, r)
        accels = rng.normal(0.0, 1e-3, (steps, r, 2))
        for dt in (1.0, 0.37):
            out, positions = ukf_predict(b, accels, dt, self.PARAMS)
            want = oracle_run(b, accels, dt, self.PARAMS)
            assert positions.shape == (steps, r, 2)
            for s, rows in enumerate(want):
                for i, ref in enumerate(rows):
                    assert np.array_equal(positions[s, i], ref.state[:2])
            for i, ref in enumerate(want[-1]):
                assert np.array_equal(out.state[i], ref.state)
                assert np.array_equal(out.cov[i], ref.cov)
                assert out.time == ref.time

    def test_positions_go_into_the_callers_array(self):
        rng = np.random.default_rng(4)
        b, accels = corridor_stack(rng, 3), rng.normal(0.0, 1e-3, (12, 3, 2))
        seed_major = np.full((3, 12, 2), np.nan)
        _, positions = ukf_predict(b, accels, 1.0, self.PARAMS, out=seed_major.swapaxes(0, 1))
        assert np.shares_memory(positions, seed_major)
        assert np.array_equal(seed_major, ukf_predict(b, accels, 1.0, self.PARAMS)[1].swapaxes(0, 1))

    def test_empty_run_keeps_the_belief(self):
        b = corridor_stack(np.random.default_rng(5), 2)
        out, positions = ukf_predict(b, np.empty((0, 2, 2)), 1.0, self.PARAMS)
        assert positions.shape == (0, 2, 2) and out.time == b.time
        assert np.array_equal(out.state, b.state) and np.array_equal(out.cov, b.cov)

    def test_run_that_loses_definiteness_warns_and_regularizes_as_one_steps_do(self):
        # A velocity prior of 2e8 m/s, like init.vel_sigma = 1e7 over a longer
        # flight, pushes the position/velocity block's condition number past
        # 1e16: one step of this run needs the jitter.
        cov = np.diag([900.0, 900.0, 4e16, 4e16, 4e-12, 4e-12])
        b = stack(belief(x=[1000.0, 1500.0, 22.0, 0.0, 0.0, 0.0], cov=cov), belief())
        accels = np.random.default_rng(1).normal(0.0, 1e-3, (40, 2, 2))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            out, positions = ukf_predict(b, accels, 1.0, self.PARAMS)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            steps = oracle_run(b, accels, 1.0, self.PARAMS)
        assert [(w.filename, str(w.message)) for w in got] == \
            [(w.filename, str(w.message)) for w in want] == \
            [(__file__, "belief covariance lost positive definiteness; regularized")]
        for s, rows in enumerate(steps):
            for i, ref in enumerate(rows):
                assert np.array_equal(positions[s, i], ref.state[:2])
        for i, ref in enumerate(steps[-1]):
            assert np.array_equal(out.state[i], ref.state) and np.array_equal(out.cov[i], ref.cov)

    def test_non_finite_row_names_its_row_and_step(self):
        rng = np.random.default_rng(9)
        b = corridor_stack(rng, 3)
        accels = rng.normal(0.0, 1e-3, (10, 3, 2))
        accels[6, 1, 0] = np.nan
        positions = np.zeros((10, 3, 2))
        with pytest.raises(NumericalError, match="iteration 6") as exc:
            ukf_predict(b, accels, 1.0, self.PARAMS, out=positions)
        assert exc.value.rows == (1,) and exc.value.iteration == 6
        steps = oracle_run(b, accels[:6], 1.0, self.PARAMS)
        before = exc.value.belief
        assert before.time == steps[-1][0].time == 6.0
        for i, ref in enumerate(steps[-1]):
            assert np.array_equal(before.state[i], ref.state)
            assert np.array_equal(before.cov[i], ref.cov)
        for s, rows in enumerate(steps):
            assert np.array_equal(positions[s], [ref.state[:2] for ref in rows])


class TestLapackCholesky:
    """``ukf_predict`` factors through the LAPACK gufunc that ``np.linalg.cholesky``
    wraps; a numpy that changes either fails here instead of moving digests."""

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_same_bits_as_np_linalg_cholesky(self, r):
        rng = np.random.default_rng(r)
        for scale in (1e-12, 1.0, 1e8):
            a = rng.normal(size=(r, 6, 6))
            spd = scale * (a @ a.transpose(0, 2, 1) + 0.1 * np.eye(6))
            root = np.empty_like(spd)
            assert _umath_linalg.cholesky_lo(spd, signature="d->d", out=root) is root
            assert np.array_equal(root, np.linalg.cholesky(spd))

    def test_not_positive_definite_gives_nan_without_warning(self):
        spd = np.tile(np.eye(6), (3, 1, 1))
        spd[1, 2, 2] = -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                root = _umath_linalg.cholesky_lo(spd, signature="d->d")
        assert np.isnan(root[1]).all()
        assert np.array_equal(root[[0, 2]], np.linalg.cholesky(spd[[0, 2]]))


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
    """The fix ``batch_fixes`` offers for a one-scan batch in standard mode.

    The scan's smoothed position covariance is ``cov`` and its normalized
    variability ``variability``; ``params`` override the fusion settings.
    """
    covs = np.zeros((1, 4, 4))
    covs[0, :2, :2] = cov
    covs[0, 2:, 2:] = 0.01 * np.eye(2)
    est = BatchEstimate(means=np.array([[0.0, 0.0, 22.0, 0.0]]), covs=covs,
                        times=np.array([0.0]), iterations_used=1, converged=True)
    params = FusionParams(nis_gate=None, **params)
    (fix,) = batch_fixes(est, [variability], params)
    # Without a NIS gate, every fix that passes the aiding gate is applied.
    applied = apply_batch(stack(belief()), [0], [fix], params)[1] if fix.accepted else []
    assert sum(applied) == int(fix.accepted)
    return fix


class TestWeightFixCovariance:
    """``batch_fixes`` divides each fix covariance by ``max(v, v_floor)``."""

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
    """``batch_fixes`` accepts a fix only where ``v >= variability_threshold``."""

    def test_accepts_above_threshold(self):
        assert offered_fix(0.5, variability_threshold=0.05).accepted

    def test_accepts_at_threshold(self):
        assert offered_fix(0.05, variability_threshold=0.05).accepted

    def test_rejects_below_threshold(self):
        assert not offered_fix(0.01, variability_threshold=0.05).accepted

    def test_zero_threshold_always_accepts(self):
        assert offered_fix(0.0, variability_threshold=0.0).accepted


def update_one(b, z, r, params):
    """``ukf_update`` of one belief, as the R = 1 stack."""
    out, nis = ukf_update(stack(b), z[None], r[None], params)
    return solo(out, 0), nis[0]


class TestUkfUpdate:
    def test_perfect_measurement_pins_position(self):
        b = belief()
        r = 1e-6 * np.eye(2)
        out, nis = update_one(b, b.position, r, FusionParams())
        assert nis == pytest.approx(0.0, abs=1e-9)
        assert out.position == pytest.approx(b.position, abs=1e-9)
        eigs = np.linalg.eigvalsh(r - out.cov[:2, :2])
        assert eigs.min() >= -1e-12

    def test_uninformative_measurement_keeps_prior(self):
        b = belief()
        out, _ = update_one(b, np.array([123.0, -77.0]), 1e12 * np.eye(2), FusionParams())
        assert np.linalg.norm(out.state - b.state) / np.linalg.norm(b.state) <= 1e-6
        assert np.linalg.norm(out.cov - b.cov) / np.linalg.norm(b.cov) <= 1e-6

    def test_matches_kf_oracle(self):
        rng = np.random.default_rng(2)
        params = FusionParams()
        for _ in range(30):
            b = belief(cov=np.diag(rng.uniform(0.5, 2.0, 6)))
            z = b.position + rng.normal(0.0, 5.0, 2)
            r = np.diag(rng.uniform(1.0, 50.0, 2))
            out, nis = update_one(b, z, r, params)
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
            out, _ = update_one(b, z, np.diag(rng.uniform(0.5, 5.0, 2)), params)
            assert np.trace(out.cov) <= np.trace(b.cov) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_covariance_stays_psd_and_trace_never_grows(self, data):
        (cov,) = data.draw(conditioned_covs(1, 6))
        (r,) = data.draw(conditioned_covs(1, 2))
        state = data.draw(hnp.arrays(np.float64, 6, elements=st.floats(-1e4, 1e4)))
        offset = data.draw(hnp.arrays(np.float64, 2, elements=st.floats(-1e3, 1e3)))
        b = NavBelief(state=state, cov=cov, time=0.0)
        out, nis = update_one(b, state[:2] + offset, r, FusionParams())
        assert nis >= 0.0
        assert (out.cov == out.cov.T).all()
        assert_psd(out.cov)
        assert np.trace(out.cov) <= np.trace(cov) * (1.0 + 1e-12)

    def test_reads_no_gate(self):
        # A fix far past the NIS gate is still applied: the gate is apply_batch's.
        b = belief()
        far = b.position + np.array([4000.0, 0.0])
        out, nis = update_one(b, far, np.eye(2), FusionParams(nis_gate=CHI2_99P9_2DOF))
        ref, ref_nis = update_one(b, far, np.eye(2), FusionParams(nis_gate=None))
        assert nis == ref_nis > CHI2_99P9_2DOF
        assert np.array_equal(out.state, ref.state) and np.array_equal(out.cov, ref.cov)
        assert out.position[0] > b.position[0] + 3000.0

    @pytest.mark.parametrize("params", [FusionParams(), FusionParams(alpha=0.5, kappa=1.0)],
                             ids=["default", "spread"])
    def test_each_row_gets_its_one_row_bits(self, params):
        # 50 draws of 20 rows: random SPD beliefs and fix covariances, fixes
        # around the beliefs. Every row, NIS included, has its R = 1 bits.
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(size=(20, 6, 6))
            cov = a @ np.swapaxes(a, 1, 2) * rng.uniform(0.1, 1e3, (20, 1, 1)) + 1e-3 * np.eye(6)
            c = rng.normal(size=(20, 2, 2))
            r = c @ np.swapaxes(c, 1, 2) * rng.uniform(0.1, 1e2, (20, 1, 1)) + 1e-2 * np.eye(2)
            b = NavBelief(state=rng.normal(0.0, 100.0, (20, 6)), cov=cov, time=3.0)
            z = b.position + rng.normal(0.0, 30.0, (20, 2))
            out, nis = ukf_update(b, z, r, params)
            assert nis.shape == (20,) and out.time == 3.0
            for i in range(20):
                one, one_nis = ukf_update(NavBelief(state=b.state[i:i + 1],
                                                    cov=b.cov[i:i + 1], time=3.0),
                                          z[i:i + 1], r[i:i + 1], params)
                assert np.array_equal(out.state[i], one.state[0])
                assert np.array_equal(out.cov[i], one.cov[0])
                assert nis[i] == one_nis[0]


class TestApplyBatch:
    def make_estimate(self, positions, times, pos_cov=25.0):
        means = np.array([[p[0], p[1], 22.0, 0.0] for p in positions])
        covs = np.array([np.diag([pos_cov, pos_cov, 0.01, 0.01])] * len(positions))
        return BatchEstimate(means=means, covs=covs, times=np.asarray(times, dtype=float),
                             iterations_used=1, converged=True)

    def test_standard_applies_single_update(self):
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        b = stack(belief(time=20.0))
        params = FusionParams(nis_gate=None)
        (fix,) = batch_fixes(est, [1.0, 1.0], params)
        assert fix.accepted and fix.time == 20.0
        assert np.array_equal(fix.position, est.means[-1, :2])
        out, applied, failed = apply_batch(b, [0], [fix], params)
        assert applied.tolist() == [True] and failed == ()
        assert out.time == 20.0
        assert out.position[0, 0] > b.position[0, 0] + 100.0

    def test_retrodiction_applies_all_fixes(self):
        # Every fix is offered in time order, each with its covariance
        # inflated by the number of accepted fixes, and each applies at its
        # time; the caller predicts the stack between them.
        est = self.make_estimate([(10.0, 0.0), (120.0, 1.0), (230.0, 2.0)],
                                 [10.0, 20.0, 30.0])
        params = FusionParams(mode="retrodiction", nis_gate=None)
        fixes = batch_fixes(est, [1.0, 1.0, 1.0], params)
        assert [f.time for f in fixes] == [10.0, 20.0, 30.0]
        assert all(f.accepted for f in fixes)
        assert np.allclose(fixes[0].cov, 3.0 * 25.0 * np.eye(2))
        b = stack(belief(time=10.0))
        for fix in fixes:
            b = NavBelief(state=b.state, cov=b.cov, time=fix.time)
            b, applied, _ = apply_batch(b, [0], [fix], params)
            assert applied.tolist() == [True]
        assert b.time == 30.0

    def test_modes_agree_on_single_effective_fix(self):
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        params = FusionParams(nis_gate=None, variability_threshold=0.05)
        variabilities = [0.0, 1.0]  # first fix gated out
        (std_fix,) = batch_fixes(est, variabilities, params)
        first, retro_fix = batch_fixes(est, variabilities, replace(params, mode="retrodiction"))
        assert not first.accepted
        std = apply_batch(stack(belief(time=20.0)), [0], [std_fix], params)[0]
        retro = apply_batch(stack(belief(time=20.0)), [0], [retro_fix], params)[0]
        assert (std.state == retro.state).all()
        assert (std.cov == retro.cov).all()

    def test_all_fixes_rejected_leaves_belief_unchanged(self):
        # No fix passes the aiding gate, so there is nothing to apply; a fix
        # the NIS gate rejects leaves its row bit-identical (below).
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        params = FusionParams(variability_threshold=0.5)
        fixes = batch_fixes(est, [0.0, 0.01], replace(params, mode="retrodiction"))
        assert not any(f.accepted for f in fixes)
        (fix,) = batch_fixes(est, [0.0, 0.01], params)
        assert not fix.accepted

    def test_nis_gate_rejects_far_fix_bit_identical(self):
        # Row 1's fix is 4 km off and fails the gate; rows 0 and 2 apply theirs.
        est = self.make_estimate([(10.0, 0.0), (4020.0, 0.0)], [10.0, 20.0], pos_cov=1.0)
        near = self.make_estimate([(10.0, 0.0), (20.0, 0.0)], [10.0, 20.0], pos_cov=1.0)
        b = stack(*(belief(time=20.0) for _ in range(3)))
        gated = FusionParams(nis_gate=CHI2_99P9_2DOF)
        (far_fix,) = batch_fixes(est, [1.0, 1.0], gated)
        (near_fix,) = batch_fixes(near, [1.0, 1.0], gated)
        assert far_fix.accepted
        out, applied, failed = apply_batch(b, [0, 1, 2], [near_fix, far_fix, near_fix], gated)
        assert applied.tolist() == [True, False, True] and failed == ()
        assert np.array_equal(out.state[1], b.state[1]) and np.array_equal(out.cov[1], b.cov[1])
        assert not np.array_equal(out.state[0], b.state[0])
        # without the gate the same fix is applied
        out, applied, _ = apply_batch(b, [1], [far_fix], FusionParams(nis_gate=None))
        assert applied.tolist() == [True] and out.position[1, 0] > 3000.0
        assert np.array_equal(out.state[[0, 2]], b.state[[0, 2]])

    def test_rows_without_a_fix_pass_through(self):
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        params = FusionParams(nis_gate=None)
        (fix,) = batch_fixes(est, [1.0, 1.0], params)
        b = stack(*(belief(x=[float(i), 0.0, 22.0, 0.0, 0.0, 0.0], time=20.0)
                    for i in range(4)))
        out, _, _ = apply_batch(b, [2], [fix], params)
        alone, _, _ = apply_batch(stack(solo(b, 2)), [0], [fix], params)
        for i in (0, 1, 3):
            assert np.array_equal(out.state[i], b.state[i])
            assert np.array_equal(out.cov[i], b.cov[i])
        assert np.array_equal(out.state[2], alone.state[0])
        assert np.array_equal(out.cov[2], alone.cov[0])

    @pytest.mark.parametrize("mode", ["standard", "retrodiction"])
    def test_non_finite_nis_fails_its_row(self, mode):
        # alpha = 1e200 overflows the sigma-point spread: the update's NIS is
        # NaN, which no gate comparison rejects. The row is named and keeps
        # its belief.
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        params = FusionParams(mode=mode, nis_gate=CHI2_99P9_2DOF, alpha=1e200)
        fix = batch_fixes(est, [1.0, 1.0], params)[-1]
        b = stack(belief(time=20.0), belief(time=20.0))
        with pytest.warns(RuntimeWarning, match="invalid value"):
            out, applied, failed = apply_batch(b, [1], [fix], params)
        assert failed == (1,) and applied.tolist() == [False]
        assert np.array_equal(out.state, b.state) and np.array_equal(out.cov, b.cov)

    def test_nan_fix_position_fails_its_row(self):
        est = self.make_estimate([(10.0, 0.0), (np.nan, 5.0)], [10.0, 20.0])
        ok = self.make_estimate([(10.0, 0.0), (20.0, 5.0)], [10.0, 20.0])
        params = FusionParams(nis_gate=None)
        (bad,) = batch_fixes(est, [1.0, 1.0], params)
        (good,) = batch_fixes(ok, [1.0, 1.0], params)
        b = stack(belief(time=20.0), belief(time=20.0))
        out, applied, failed = apply_batch(b, [0, 1], [good, bad], params)
        assert failed == (1,) and applied.tolist() == [True, False]
        assert np.array_equal(out.state[1], b.state[1])
        assert not np.array_equal(out.state[0], b.state[0])

    def test_variability_inflates_fix_cov(self):
        est = self.make_estimate([(10.0, 0.0), (230.0, 5.0)], [10.0, 20.0])
        params = FusionParams(nis_gate=None)
        (fix,) = batch_fixes(est, [1.0, 0.5], params)
        assert np.allclose(fix.cov, 2.0 * 25.0 * np.eye(2))
