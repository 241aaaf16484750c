"""Shared scenario fixtures for the harness, acceptance and tracker tests.

The corridor map covers a 2 h, 22 m/s eastward leg with Gaussian anomalies
scattered along the route plus correlated background noise, sized so the
candidate residual gate spans one to three 50 m cells at the low-noise
gravimeter level.
"""

import numpy as np

from gravnav.config import GaussianBump, MapGenParams, MapSource, ScenarioConfig
from gravnav.geomap import CandidateSet

CORRIDOR_SEED = 12345
START = (1800.0, 12000.0)
VELOCITY = (22.0, 0.0)


def corridor_map_params(seed=CORRIDOR_SEED, cell=50.0, length=162000.0,
                        height=24000.0, bump_every=6000.0, amp_lo=1e-3,
                        amp_hi=4e-3, w_lo=2000.0, w_hi=5000.0,
                        noise_scale=1.2e-4, noise_corr=8.0) -> MapGenParams:
    rng = np.random.default_rng(seed)
    bumps = []
    x = bump_every * 0.5
    while x < length:
        y = height / 2 + rng.uniform(-height * 0.35, height * 0.35)
        amp = rng.uniform(amp_lo, amp_hi) * rng.choice([-1.0, 1.0])
        width = rng.uniform(w_lo, w_hi)
        bumps.append(GaussianBump(x, y, amp, width))
        x += bump_every * rng.uniform(0.7, 1.3)
    return MapGenParams(rows=int(height / cell), cols=int(length / cell),
                        cell_size=cell, background=9.79, bumps=tuple(bumps),
                        noise_scale=noise_scale, noise_corr_cells=noise_corr,
                        seed=seed)


def corridor_config(duration=7200.0, sigma=1e-5, batch_len=30, aiding=True,
                    runs=1, base_seed=0, gen=None) -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.map = MapSource(gen=gen if gen is not None else corridor_map_params())
    cfg.start = START
    cfg.velocity = VELOCITY
    cfg.duration = duration
    cfg.gravimeter.sigma = sigma
    cfg.pmht.T = batch_len
    cfg.pmht.spread_cov = True
    cfg.aiding = aiding
    cfg.monte_carlo.runs = runs
    cfg.monte_carlo.base_seed = base_seed
    return cfg


def scan_from_points(points, sigma, grads) -> CandidateSet:
    """One scan's candidates at ``points``, measured with field noise ``sigma``.

    ``grads`` holds the map gradient at each candidate. The tracker turns
    them into the isotropic position-noise covariances
    ``(sigma / max(|grad|, grad_floor))^2 I`` of ``assoc.position_noise_cov``.
    """
    n = len(points)
    return CandidateSet(locations=points, grads=grads, residuals=np.zeros(n),
                        cells=np.zeros((n, 2)), measurement=0.0, sigma=sigma)
