from dataclasses import replace

import numpy as np
import pytest

from gravnav.assoc import ScanStack, candidate_weights, position_noise_cov, stack_fuse
from gravnav.errors import NoFixError, NumericalError
from gravnav.config import FusionParams
from gravnav.fusion import NavBelief, apply_batch
from gravnav.geomap import CandidateSet
from gravnav.pmht import (
    BatchProblem,
    KinematicState,
    cv_model,
    em_step,
    run_batch,
)
from oracles import batch_map_solution, em_cost_trace, kalman_rts


def rolled_means(x0, model, t_len):
    """(T, 4) prior mean rolled forward: the first EM iterate of a batch."""
    means = [x0]
    for _ in range(t_len - 1):
        means.append(model.F @ means[-1])
    return np.array(means)


def first_iterate(problem):
    return rolled_means(problem.prior.x, problem.model, problem.batch_len)


def max_displacement(means, other):
    """Largest per-scan position move between two ``(T, 4)`` iterates."""
    return max(float(np.linalg.norm(d)) for d in means[:, :2] - other[:, :2])


def scan_rows(problem):
    """Stack row of each scan's fused outputs in em_step, None for an empty scan."""
    rows = [None] * problem.batch_len
    for r, t in enumerate(ScanStack.build(problem.scans).scans):
        rows[t] = r
    return rows


def scan_from_points(points, sigma, grads):
    n = len(points)
    return CandidateSet(locations=points, grads=grads, residuals=np.zeros(n),
                        cells=np.zeros((n, 2)), measurement=0.0, sigma=sigma)


def single_candidate_problem(rng, t_len, dt=10.0, q_a=0.01, sigma=1e-5, grad_mag=1e-6,
                             max_iters=15, epsilon=0.1):
    x0 = np.concatenate([rng.normal(0.0, 1000.0, 2), rng.normal(0.0, 10.0, 2)])
    a = rng.normal(0.0, 1.0, (4, 4))
    p0 = a @ a.T + np.diag([900.0, 900.0, 1.0, 1.0])
    model = cv_model(dt, q_a)
    means = rolled_means(x0, model, t_len)
    scans = []
    zs = []
    grads = []
    for t in range(t_len):
        z = means[t, :2] + rng.normal(0.0, 30.0, 2)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        grad = grad_mag * np.array([np.cos(ang), np.sin(ang)])
        scans.append(scan_from_points([z], sigma, [grad]))
        zs.append(z)
        grads.append(grad)
    problem = BatchProblem(prior=KinematicState(x=x0, cov=p0), scans=tuple(scans),
                           model=model, max_iters=max_iters, epsilon=epsilon)
    r_list = [(sigma / np.linalg.norm(g)) ** 2 * np.eye(2) for g in grads]
    return problem, zs, r_list


def clustered_problem(rng, t_len, n_per_scan=3, cluster_std=8.0, dt=10.0,
                      prior_offset=60.0, sigma=1e-5, grad_mag=5e-7, **kw):
    """Candidates form one cluster around a true path; priors start offset."""
    model = cv_model(dt, kw.pop("q_a", 0.01))
    vel = rng.normal(0.0, 3.0, 2)
    true0 = rng.normal(0.0, 100.0, 2)
    off = prior_offset * _unit(rng)
    x0 = np.concatenate([true0 + off, vel])
    p0 = np.diag([prior_offset ** 2, prior_offset ** 2, 1.0, 1.0])
    scans = []
    for t in range(t_len):
        true_pos = true0 + vel * dt * t
        pts = true_pos + rng.normal(0.0, cluster_std, (n_per_scan, 2))
        grads = [grad_mag * _unit(rng) for _ in range(n_per_scan)]
        scans.append(scan_from_points(pts, sigma, grads))
    return BatchProblem(prior=KinematicState(x=x0, cov=p0), scans=tuple(scans), model=model,
                        **kw)


def _unit(rng):
    ang = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.cos(ang), np.sin(ang)])


class TestEmStep:
    def test_zero_innovation_fixed_point(self):
        model = cv_model(10.0, q_a=1e-18)
        x0 = np.array([0.0, 0.0, 1.0, 0.5])
        p0 = np.diag([4.0, 4.0, 0.01, 0.01])
        means = rolled_means(x0, model, 2)
        scans = tuple(
            scan_from_points([means[t, :2]], 1e-5, [np.array([1e-6, 0.0])])
            for t in range(2))
        problem = BatchProblem(prior=KinematicState(x=x0, cov=p0), scans=scans, model=model)
        xs, _, positions, _, _ = em_step(problem, means)
        for t in range(2):
            assert xs[t] == pytest.approx(means[t], abs=1e-9)
        assert positions[scan_rows(problem)[1]] == pytest.approx(means[1, :2])

    def test_smoothed_covariances_psd_and_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            problem = clustered_problem(rng, t_len=8)
            _, covs, _, _, _ = em_step(problem, first_iterate(problem))
            for cov in covs:
                assert np.allclose(cov, cov.T, atol=1e-12)
                assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_empty_scan_prediction_only(self):
        rng = np.random.default_rng(4)
        problem, _, _ = single_candidate_problem(rng, 5)
        scans = list(problem.scans)
        scans[2] = CandidateSet.empty(0.0, 1e-5)
        problem2 = BatchProblem(prior=problem.prior, scans=tuple(scans),
                                model=problem.model)
        xs, _, positions, _, _ = em_step(problem2, first_iterate(problem2))
        assert scan_rows(problem2)[2] is None
        assert len(positions) == 4
        assert np.isfinite(xs).all()


class TestStackedAssociation:
    @pytest.mark.parametrize("spread_cov", [False, True])
    def test_stacked_step_matches_scan_by_scan(self, spread_cov):
        # empty scans, one-candidate scans, and counts on both sides of the
        # 8-element threshold where numpy switches to pairwise summation
        rng = np.random.default_rng(91)
        model = cv_model(10.0)
        x0 = np.array([0.0, 0.0, 20.0, 5.0])
        means = rolled_means(x0, model, 12)
        counts = [0, 1, 8, 20, 1, 0, 9, 15, 8, 16, 1, 20]
        scans = tuple(
            scan_from_points(means[t, :2] + rng.normal(0.0, 40.0, (n, 2)),
                             1e-5, [rng.normal(0.0, 1e-6, 2) for _ in range(n)])
            for t, n in enumerate(counts))
        problem = BatchProblem(
            prior=KinematicState(x=x0, cov=np.diag([900.0, 900.0, 1.0, 1.0])),
            scans=scans, model=model, spread_cov=spread_cov)
        f, h = model.F, model.H
        rows = scan_rows(problem)
        current, prev = means, None
        for _ in range(3):
            xs, _, positions, covs, weights = em_step(problem, current, prev)
            for t, cs in enumerate(scans):
                r = rows[t]
                if len(cs) == 0:
                    assert r is None
                    continue
                per_cand = [position_noise_cov(cs.sigma, g) for g in cs.grads]
                meas_cov = (sum(per_cand) / len(per_cand) if prev is None
                            else prev[r])
                pred_x = x0 if t == 0 else f @ current[t - 1]
                w = candidate_weights(cs, h @ pred_x, meas_cov)
                ref_pos, ref_cov = stack_fuse(ScanStack.build([cs]), [w[None]],
                                              [np.array(per_cand)[None]], spread_cov)
                assert np.array_equal(weights[r], w)
                assert np.array_equal(positions[r], ref_pos[0])
                assert np.array_equal(covs[r], ref_cov[0])
            current, prev = xs, covs


class TestRunBatchOracles:
    @pytest.mark.parametrize("t_len", [2, 15, 30])
    def test_single_candidate_matches_kf_rts(self, t_len):
        rng = np.random.default_rng(100 + t_len)
        for _ in range(5):
            problem, zs, r_list = single_candidate_problem(rng, t_len)
            est = run_batch(problem)
            zs_oracle = [None] + zs[1:]
            sm_x, sm_p = kalman_rts(problem.prior.x, problem.prior.cov,
                                    problem.model.F, problem.model.Q, problem.model.H,
                                    zs_oracle, r_list)
            for t in range(t_len):
                denom = max(1.0, np.linalg.norm(sm_x[t]))
                assert np.linalg.norm(est.means[t] - sm_x[t]) / denom <= 1e-10
                pden = max(1.0, np.linalg.norm(sm_p[t]))
                assert np.linalg.norm(est.covs[t] - sm_p[t]) / pden <= 1e-10

    @pytest.mark.parametrize("t_len", [2, 15, 30])
    def test_single_candidate_matches_stacked_map(self, t_len):
        rng = np.random.default_rng(200 + t_len)
        problem, zs, r_list = single_candidate_problem(rng, t_len)
        est = run_batch(problem)
        means, covs = batch_map_solution(problem.prior.x, problem.prior.cov,
                                         problem.model.F, problem.model.Q,
                                         problem.model.H, [None] + zs[1:], r_list)
        for t in range(t_len):
            denom = max(1.0, np.linalg.norm(means[t]))
            assert np.linalg.norm(est.means[t] - means[t]) / denom <= 1e-8
            pden = max(1.0, np.linalg.norm(covs[t]))
            assert np.linalg.norm(est.covs[t] - covs[t]) / pden <= 1e-8

    def test_iteration_count_independence_single_candidate(self):
        rng = np.random.default_rng(7)
        problem, _, _ = single_candidate_problem(rng, 10)
        one = run_batch(replace(problem, max_iters=1))
        many = run_batch(replace(problem, max_iters=15))
        for xa, xb in zip(one.means, many.means):
            assert xa == pytest.approx(xb, abs=1e-12)
        for pa, pb in zip(one.covs, many.covs):
            assert np.allclose(pa, pb, atol=1e-12)


class TestRunBatch:
    def test_fixed_point_converges_first_iteration(self):
        model = cv_model(10.0, q_a=1e-18)
        x0 = np.array([5.0, -2.0, 2.0, 1.0])
        p0 = np.diag([1.0, 1.0, 0.01, 0.01])
        means = rolled_means(x0, model, 2)
        scans = tuple(
            scan_from_points([means[t, :2]], 1e-5, [np.array([1e-6, 0.0])])
            for t in range(2))
        est = run_batch(BatchProblem(prior=KinematicState(x=x0, cov=p0), scans=scans,
                                     model=model))
        assert est.converged
        assert est.iterations_used == 1
        # one iteration: the final residual is the move from the first iterate
        assert max_displacement(est.means, means) == pytest.approx(0.0, abs=1e-12)

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            problem = clustered_problem(rng, t_len=6, epsilon=0.0)
            est = run_batch(problem)
            assert est.iterations_used <= problem.max_iters == 15

    def test_seeded_instance_converges(self):
        rng = np.random.default_rng(42)
        problem = clustered_problem(rng, t_len=10, epsilon=0.01)
        est = run_batch(problem)
        assert est.converged
        # the final residual is the move from the iterate one iteration back
        prev = run_batch(replace(problem, max_iters=est.iterations_used - 1))
        assert max_displacement(est.means, prev.means) <= 0.01

    def test_gauge_invariance(self):
        rng = np.random.default_rng(8)
        problem = clustered_problem(rng, t_len=6)
        shift = np.array([5000.0, -3000.0])
        shifted_prior = KinematicState(
            x=problem.prior.x + np.concatenate([shift, np.zeros(2)]), cov=problem.prior.cov)
        shifted_scans = tuple(replace(cs, locations=cs.locations + shift)
                              for cs in problem.scans)
        base = run_batch(problem)
        moved = run_batch(BatchProblem(prior=shifted_prior, scans=shifted_scans,
                                       model=problem.model))
        for a, b in zip(base.means, moved.means):
            assert b[:2] == pytest.approx(a[:2] + shift, abs=1e-7)
            assert b[2:] == pytest.approx(a[2:], abs=1e-9)

    def test_determinism_bitwise(self):
        rng1 = np.random.default_rng(77)
        rng2 = np.random.default_rng(77)
        p1 = clustered_problem(rng1, t_len=8)
        p2 = clustered_problem(rng2, t_len=8)
        a = run_batch(p1)
        b = run_batch(p2)
        assert a.iterations_used == b.iterations_used
        assert (a.means == b.means).all()
        assert (a.covs == b.covs).all()
        # the association weights of every iteration
        cur1, cur2 = first_iterate(p1), first_iterate(p2)
        cov1 = cov2 = None
        for _ in range(a.iterations_used):
            cur1, _, _, cov1, w1 = em_step(p1, cur1, cov1)
            cur2, _, _, cov2, w2 = em_step(p2, cur2, cov2)
            for wa, wb in zip(w1, w2, strict=True):
                assert (wa == wb).all()

    def test_all_scans_empty_raises(self):
        model = cv_model(10.0)
        empty = CandidateSet.empty(0.0, 1e-5)
        with pytest.raises(NoFixError):
            run_batch(BatchProblem(prior=KinematicState(x=np.zeros(4), cov=np.eye(4)),
                                   scans=(empty,) * 3, model=model))

    @pytest.mark.filterwarnings("ignore::gravnav.assoc.FarCandidateWarning")
    def test_nan_candidate_raises_numerical_error(self):
        model = cv_model(10.0)
        bad = scan_from_points([(np.nan, 0.0)], 1e-5, [np.array([1e-6, 0.0])])
        good = scan_from_points([(1.0, 1.0)], 1e-5, [np.array([1e-6, 0.0])])
        with pytest.raises(NumericalError) as exc:
            run_batch(BatchProblem(prior=KinematicState(x=np.zeros(4), cov=np.eye(4)),
                                   scans=(good, bad, good), model=model))
        assert exc.value.iteration == 1

    def test_em_cost_non_increasing_on_clustered_fixtures(self):
        # plateau micro-oscillation of the fixed-point iteration is allowed
        # (0.1% per step); the transient descent must never reverse beyond it
        rng = np.random.default_rng(31)
        bad = 0
        for _ in range(20):
            problem = clustered_problem(rng, t_len=8, epsilon=0.0)
            trace = em_cost_trace(problem)
            if not (np.diff(trace) <= 1e-3 * np.maximum(trace[:-1], 1e-30)).all():
                bad += 1
        assert bad <= 1

    def test_per_iteration_descent_with_fixed_weights(self):
        # exact property: given the weights of an iteration, the smoothed
        # states minimize prior + dynamics + weighted data cost, so they
        # never score worse than the states the weights were built from
        rng = np.random.default_rng(63)

        def objective(problem, xs, fused_cov, weights):
            f, q, h = problem.model.F, problem.model.Q, problem.model.H
            x0, p0 = problem.prior.x, problem.prior.cov
            d = xs[0] - x0
            total = d @ np.linalg.solve(p0, d)
            for t in range(len(xs) - 1):
                e = xs[t + 1] - f @ xs[t]
                total += e @ np.linalg.solve(q, e)
            rows = scan_rows(problem)
            for t in range(1, len(xs)):
                r = rows[t]
                if r is None:
                    continue
                diffs = problem.scans[t].locations - h @ xs[t]
                sinv = np.linalg.inv(fused_cov[r])
                maha2 = np.einsum("ni,ij,nj->n", diffs, sinv, diffs)
                total += float(weights[r] @ maha2)
            return total

        for _ in range(20):
            problem = clustered_problem(rng, t_len=8, epsilon=0.0)
            current = first_iterate(problem)
            fused_cov = None
            for _ in range(10):
                new, _, _, fused_cov, weights = em_step(problem, current, fused_cov)
                before = objective(problem, current, fused_cov, weights)
                after = objective(problem, new, fused_cov, weights)
                assert after <= before + 1e-9 * max(abs(before), 1.0)
                current = new

    def test_iteration_drags_states_toward_candidates(self):
        rng = np.random.default_rng(55)
        problem = clustered_problem(rng, t_len=10, prior_offset=80.0, epsilon=0.0)
        est = run_batch(problem)

        def total_gap(positions):
            gap = 0.0
            for t, cs in enumerate(problem.scans):
                mean_pt = cs.locations.mean(axis=0)
                gap += float(np.linalg.norm(positions[t] - mean_pt))
            return gap

        assert total_gap(est.means[:, :2]) < total_gap(first_iterate(problem)[:, :2])


class TestRetrodict:
    def test_length_spacing_terminal(self):
        rng = np.random.default_rng(23)
        problem, _, _ = single_candidate_problem(rng, 30, dt=10.0)
        est = run_batch(problem)
        assert len(est.times) == 30
        assert np.diff(est.times) == pytest.approx(np.full(29, 10.0))

        params = FusionParams(nis_gate=None)
        start = NavBelief(state=np.concatenate([problem.prior.x, np.zeros(2)]),
                          cov=np.eye(6), time=float(est.times[0]))

        def advance(bel, t_target):
            return NavBelief(state=bel.state, cov=bel.cov, time=t_target)

        _, retro = apply_batch(start, est, [1.0] * 30, replace(params, mode="retrodiction"),
                               advance)
        assert len(retro.fixes) == 30
        assert [f.time for f in retro.fixes] == pytest.approx(est.times)
        for fix, mean in zip(retro.fixes, est.means):
            assert np.array_equal(fix.position, mean[:2])

        end = NavBelief(state=start.state, cov=start.cov, time=float(est.times[-1]))
        (fix,) = apply_batch(end, est, [1.0] * 30, params)[1].fixes
        assert fix.position == pytest.approx(est.means[-1, :2])
        assert np.allclose(fix.cov, est.covs[-1, :2, :2])
