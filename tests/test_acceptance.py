"""Acceptance suite: one test per exit criterion, printed pass/fail lines.

The campaign-level criteria share module-scoped fixtures so each Monte Carlo
campaign runs exactly once. Everything is seeded and deterministic; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from gravnav.assoc import candidate_weights
from gravnav.cli import main as cli_main
from gravnav.config import FusionParams
from gravnav.fusion import NavBelief, ukf_predict, ukf_update
from gravnav.geomap import GridMap, feature_variability, lookup_candidates
from gravnav.harness import run_campaign
from gravnav.pmht import run_batch
from oracles import batch_map_solution, gaussian_weights, nav_kf_predict, nav_kf_update
from oracles import brute_variability, em_cost_trace
from scenarios import corridor_config
from test_assoc import make_set
from test_cli import TOY_SCENARIO
from test_pmht import H_POS, clustered_problem, single_candidate_problem

JOBS = max(os.cpu_count() or 1, 1)

CAMPAIGN_WALL_TIMES: dict[str, float] = {}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _timed_campaign(name: str, cfg):
    t0 = time.monotonic()
    result = run_campaign(cfg, jobs=JOBS)
    CAMPAIGN_WALL_TIMES[name] = time.monotonic() - t0
    return result


@pytest.fixture(scope="module")
def campaign_low_t30():
    return _timed_campaign("low_t30", corridor_config(sigma=1e-5, batch_len=30, runs=20))


@pytest.fixture(scope="module")
def campaign_unaided():
    return _timed_campaign("unaided", corridor_config(aiding=False, runs=20))


@pytest.fixture(scope="module")
def campaign_low_t15():
    return run_campaign(corridor_config(sigma=1e-5, batch_len=15, runs=20), jobs=JOBS)


@pytest.fixture(scope="module")
def campaign_high_t15():
    return run_campaign(corridor_config(sigma=2e-4, batch_len=15, runs=20), jobs=JOBS)


@pytest.fixture(scope="module")
def campaign_high_t30():
    return run_campaign(corridor_config(sigma=2e-4, batch_len=30, runs=20), jobs=JOBS)


def test_criterion_1_smoother_oracle():
    rng = np.random.default_rng(1001)
    lengths = [2] * 17 + [15] * 17 + [30] * 16
    worst = 0.0
    t0 = time.monotonic()
    for t_len in lengths:
        problem, zs, r_list = single_candidate_problem(rng, t_len)
        est = run_batch(problem)
        means, _covs = batch_map_solution(
            problem.prior_mean, problem.prior_cov, *problem.model, H_POS,
            [None] + zs[1:], r_list)
        for t in range(t_len):
            rel = (np.linalg.norm(est.means[t] - means[t])
                   / max(np.linalg.norm(means[t]), 1.0))
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report("criterion 1 (smoother = stacked MAP, 50 batches)", ok,
           f"max rel err {worst:.2e} <= 1e-8, runtime {elapsed:.2f}s < 5s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_2_ukf_oracle():
    rng = np.random.default_rng(1002)
    params = FusionParams(q_accel=1e-8, bias_psd=1e-12, nis_gate=None)
    belief = NavBelief(state=np.array([[0.0, 0.0, 22.0, 0.0, 1e-6, -1e-6]]),
                       cov=np.diag([900.0, 900.0, 0.01, 0.01, 4e-12, 4e-12])[None],
                       time=0.0)
    kx, kp = belief.state[0].copy(), belief.cov[0].copy()
    worst = 0.0
    for step in range(100):
        accel = rng.normal(0.0, 1e-4, 2)
        belief, _ = ukf_predict(belief, accel[None, None], 1.0, params)
        kx, kp = nav_kf_predict(kx, kp, accel, 1.0, params.q_accel, params.bias_psd)
        if step % 10 == 9:
            z = kx[:2] + rng.normal(0.0, 20.0, 2)
            belief, _ = ukf_update(belief, z[None], 400.0 * np.eye(2)[None], params)
            kx, kp = nav_kf_update(kx, kp, z, 400.0 * np.eye(2))
        worst = max(worst,
                    np.linalg.norm(belief.state[0] - kx) / max(np.linalg.norm(kx), 1.0),
                    np.linalg.norm(belief.cov[0] - kp) / max(np.linalg.norm(kp), 1.0))
    ok = worst <= 1e-10
    report("criterion 2 (UKF = KF, 100 seeded steps)", ok,
           f"max rel err {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


@pytest.mark.filterwarnings("ignore::gravnav.assoc.FarCandidateWarning")
def test_criterion_3_pda_exactness():
    points = [(1.0, 0.0), (0.0, 2.0), (-3.0, 0.0)]
    w = candidate_weights(make_set(points), np.zeros(2), np.eye(2))
    oracle = gaussian_weights(points, np.zeros(2), np.eye(2))
    fixture_err = np.abs(w - oracle).max()
    frozen_err = np.abs(w - np.array([0.805512, 0.179734, 0.014753])).max()

    rng = np.random.default_rng(1003)
    worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        pts = rng.normal(0.0, 8.0, (n, 2))
        pred = rng.normal(0.0, 8.0, 2)
        a, b = rng.uniform(0.5, 3.0, 2)
        rho = rng.uniform(-0.7, 0.7) * np.sqrt(a * b)
        cov = np.array([[a, rho], [rho, b]])
        weights = candidate_weights(make_set(pts), pred, cov)
        worst_sum = max(worst_sum, abs(weights.sum() - 1.0))
    ok = fixture_err <= 5e-5 and frozen_err <= 5e-5 and worst_sum <= 1e-12
    report("criterion 3 (PDA weights exact)", ok,
           f"fixture err {fixture_err:.2e} <= 5e-5, "
           f"sum-to-1 worst {worst_sum:.2e} <= 1e-12")
    assert fixture_err <= 5e-5
    assert frozen_err <= 5e-5
    assert worst_sum <= 1e-12


def test_criterion_4_variability_exactness():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        values = rng.normal(0.0, 1.0, (50, 50))
        grid = GridMap(origin=np.zeros(2), cell_size=10.0, values=values)
        row = int(rng.integers(0, 50))
        col = int(rng.integers(0, 50))
        width = int(rng.integers(1, 8))
        got = feature_variability(grid, (row, col), width)
        want = brute_variability(values, row, col, width)
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-12
    report("criterion 4 (variability = brute force, 100 maps)", ok,
           f"max rel err {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_criterion_5_bounded_error_shape(campaign_low_t30, campaign_unaided):
    aided = campaign_low_t30
    unaided = campaign_unaided
    t = aided.times
    final30 = t >= 5400.0
    final_hour = t >= 3600.0
    second_half_hour = (t >= 1800.0) & (t < 3600.0)
    ratio = (aided.rms_series[final30].mean()
             / unaided.rms_series[final30].mean())
    peak_late = aided.rms_series[final_hour].max()
    peak_mid = aided.rms_series[second_half_hour].max()
    elapsed = CAMPAIGN_WALL_TIMES["low_t30"] + CAMPAIGN_WALL_TIMES["unaided"]
    ok = ratio < 0.5 and peak_late < 2.0 * peak_mid and elapsed < 600.0
    report("criterion 5 (bounded aided error, 20-run campaign)", ok,
           f"final-30-min RMS ratio {ratio:.3f} < 0.5, "
           f"late peak {peak_late:.1f} < 2x mid peak {2 * peak_mid:.1f}, "
           f"campaign wall time {elapsed:.0f}s < 600s")
    assert ratio < 0.5
    assert peak_late < 2.0 * peak_mid
    assert elapsed < 600.0


def test_criterion_6_noise_ordering(campaign_low_t15, campaign_high_t15,
                                    campaign_low_t30, campaign_high_t30):
    inc_15 = campaign_high_t15.mean_error > campaign_low_t15.mean_error
    inc_30 = campaign_high_t30.mean_error > campaign_low_t30.mean_error
    rates_ok = (campaign_high_t15.divergence_rate
                >= campaign_high_t30.divergence_rate)
    low_zero = (campaign_low_t15.divergence_rate == 0.0
                and campaign_low_t30.divergence_rate == 0.0)
    ok = inc_15 and inc_30 and rates_ok and low_zero
    report("criterion 6 (noise/batch-length ordering)", ok,
           f"mean T=15 {campaign_low_t15.mean_error:.0f}->{campaign_high_t15.mean_error:.0f} m, "
           f"T=30 {campaign_low_t30.mean_error:.0f}->{campaign_high_t30.mean_error:.0f} m, "
           f"high-noise rates {campaign_high_t15.divergence_rate:.2f}>="
           f"{campaign_high_t30.divergence_rate:.2f}, low-noise rates 0")
    assert inc_15 and inc_30
    assert rates_ok
    assert low_zero


def test_criterion_7_em_iteration_budget():
    rng = np.random.default_rng(1007)
    over_budget = 0
    non_monotone = 0
    for _ in range(100):
        problem = clustered_problem(rng, t_len=8, epsilon=0.0)
        est = run_batch(problem)
        if est.iterations_used > 15:
            over_budget += 1
        trace = em_cost_trace(problem)
        if not (np.diff(trace) <= 1e-3 * np.maximum(trace[:-1], 1e-30)).all():
            non_monotone += 1
    ok = over_budget == 0 and non_monotone <= 5
    report("criterion 7 (EM budget and cost descent)", ok,
           f"iterations <= 15 in 100/100, cost non-increasing in "
           f"{100 - non_monotone}/100 (need >= 95)")
    assert over_budget == 0
    assert non_monotone <= 5


def test_criterion_8_campaign_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(TOY_SCENARIO, encoding="utf-8")
    digests = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        code = cli_main(["campaign", "--config", str(cfg_path),
                         "--out", str(out), "--jobs", str(jobs)])
        assert code == 0
        digests[jobs] = (
            hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest(),
            hashlib.sha256((out / "campaign.csv").read_bytes()).hexdigest(),
        )
    ok = digests[1] == digests[8]
    report("criterion 8 (byte-identical campaign outputs, jobs 1 vs 8)", ok,
           f"summary sha {digests[1][0][:12]}.. == {digests[8][0][:12]}..")
    assert digests[1] == digests[8]


def test_criterion_9_gating_soundness():
    rng = np.random.default_rng(1009)
    k_sig = 3.0
    violations = 0
    total_calls = 0
    total_candidates = 0
    grids = []
    for _ in range(10):
        values = 9.79 + 2e-3 * rng.standard_normal((40, 40))
        grids.append(GridMap(origin=np.zeros(2), cell_size=50.0, values=values))
    while total_calls < 10_000:
        grid = grids[int(rng.integers(0, len(grids)))]
        center = grid.origin + rng.uniform(2.0, 38.0, 2) * grid.cell_size
        a, b = rng.uniform(0.3, 5.0, 2) * grid.cell_size ** 2
        rho = rng.uniform(-0.6, 0.6) * np.sqrt(a * b)
        cov = np.array([[a, rho], [rho, b]])
        gamma = rng.uniform(3.0, 12.0)
        s = 9.79 + 2e-3 * rng.standard_normal()
        sigma = rng.uniform(1e-4, 2e-3)
        cs = lookup_candidates(grid, s, sigma, center, cov, gamma,
                               int(rng.integers(1, 30)), k_sig)
        if len(cs) == 0:  # an empty gate has nothing to check
            continue
        total_calls += 1
        sinv = np.linalg.inv(cov)
        for loc, residual in zip(cs.locations, cs.residuals):
            total_candidates += 1
            d = loc - center
            if d @ sinv @ d > gamma or residual > k_sig * sigma:
                violations += 1
    ok = violations == 0
    report("criterion 9 (gating soundness, 10^4 lookups)", ok,
           f"{violations} violations over {total_calls} calls / "
           f"{total_candidates} candidates")
    assert violations == 0
