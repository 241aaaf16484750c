"""Loosely-coupled integration of batch position fixes into the nav state.

The navigation belief carries planar position, velocity and accelerometer
bias. Prediction propagates the belief through the dead-reckoning dynamics
driven by the indicated acceleration; updates apply position fixes from the
batch tracker, with the fix covariance inflated by the inverse of the local
map feature variability and a normalized-innovation gate guarding against
wrong-cluster fixes.

Sigma-point machinery follows the scaled unscented transform. The dynamics
and measurement models here are linear, so the filter is exactly equivalent
to a Kalman filter; the sigma-point form is kept for the nonlinear
extensions the aiding pathway anticipates. Prediction propagates all sigma
points with one set of array operations; the unscented weights and the
discrete process noise depend only on the filter parameters and the step,
so they are computed once per distinct argument set and shared read-only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .pmht import BatchEstimate, retrodict

__all__ = [
    "NavBelief",
    "AidingFix",
    "FusionParams",
    "UpdateDiag",
    "BatchApplication",
    "CHI2_99P9_2DOF",
    "ukf_predict",
    "ukf_update",
    "weight_fix_covariance",
    "aiding_gate",
    "apply_batch",
]

# 99.9% quantile of a 2-dof chi-square, used as the innovation gate.
CHI2_99P9_2DOF = 13.815510557964274


@dataclass(frozen=True)
class NavBelief:
    """Aided-INS state [pE, pN, vE, vN, bE, bN] with covariance and time."""

    state: np.ndarray
    cov: np.ndarray
    time: float

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))

    @property
    def position(self) -> np.ndarray:
        return self.state[:2]

    @property
    def velocity(self) -> np.ndarray:
        return self.state[2:4]

    @property
    def bias(self) -> np.ndarray:
        return self.state[4:6]


@dataclass(frozen=True)
class AidingFix:
    """A position fix offered to the navigation filter."""

    position: np.ndarray
    cov: np.ndarray
    time: float
    variability: float
    accepted: bool

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))


@dataclass(frozen=True)
class FusionParams:
    """Knobs of the aiding filter.

    ``nis_gate`` set to ``None`` disables the innovation guard, leaving the
    plain ungated update; the default keeps the guard on. ``q_accel`` is the
    velocity-driving white-noise PSD in (m/s^2)^2/Hz; when ``None`` the
    harness fills it from the accelerometer grade.
    """

    mode: str = "standard"
    variability_threshold: float = 0.05
    window_len: int = 100
    v_floor: float = 0.01
    nis_gate: float | None = CHI2_99P9_2DOF
    # alpha = 1 is the classical symmetric sigma set. Small alpha values
    # (e.g. 1e-3) put a ~1e6 magnitude weight on the center point, which
    # amplifies float rounding past the 1e-10 KF-equivalence budget.
    alpha: float = 1.0
    beta: float = 2.0
    kappa: float = 0.0
    bias_psd: float = 1e-12
    q_accel: float | None = None
    template_half_width: int = 8


@dataclass(frozen=True)
class UpdateDiag:
    """Innovation diagnostics of one measurement update."""

    innovation: np.ndarray
    nis: float
    accepted: bool


@dataclass(frozen=True)
class BatchApplication:
    """Outcome of applying one batch of fixes to the belief."""

    belief: NavBelief
    fixes: tuple[AidingFix, ...]
    n_accepted: int
    n_nis_rejected: int

    @property
    def effective(self) -> bool:
        return self.n_accepted > 0


@lru_cache(maxsize=32)
def _unscented_weights(n: int, alpha: float, beta: float,
                       kappa: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Spread factor ``n + lambda`` and the read-only mean/cov weights."""
    lam = alpha * alpha * (n + kappa) - n
    c = n + lam
    wm = np.full(2 * n + 1, 1.0 / (2.0 * c))
    wc = wm.copy()
    wm[0] = lam / c
    wc[0] = lam / c + (1.0 - alpha * alpha + beta)
    wm.flags.writeable = wc.flags.writeable = False
    return c, wm, wc


def _sigma_points(x: np.ndarray, cov: np.ndarray, alpha: float, beta: float,
                  kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled unscented sigma points and their mean/cov weights."""
    n = x.size
    c, wm, wc = _unscented_weights(n, alpha, beta, kappa)
    scaled = c * 0.5 * (cov + cov.T)
    try:
        root = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        warnings.warn("belief covariance lost positive definiteness; regularized",
                      RuntimeWarning, stacklevel=3)
        jitter = max(np.trace(scaled), 1.0) * 1e-12
        try:
            root = np.linalg.cholesky(scaled + jitter * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("covariance square root failed after regularization") from exc
    points = np.empty((2 * n + 1, n))
    points[0] = x
    points[1:n + 1] = x + root.T
    points[n + 1:] = x - root.T
    return points, wm, wc


@lru_cache(maxsize=32)
def _process_noise(dt: float, q_accel: float, bias_psd: float) -> np.ndarray:
    """Discrete process noise (read-only): white-noise acceleration plus a slow bias walk."""
    q = np.zeros((6, 6))
    q3, q2, q1 = dt ** 3 / 3.0, dt ** 2 / 2.0, dt
    for p, v in ((0, 2), (1, 3)):
        q[p, p] = q_accel * q3
        q[p, v] = q[v, p] = q_accel * q2
        q[v, v] = q_accel * q1
    q[4, 4] = q[5, 5] = bias_psd * dt
    q.flags.writeable = False
    return q


def ukf_predict(
    belief: NavBelief,
    indicated_accel,
    dt: float,
    params: FusionParams,
) -> NavBelief:
    """Propagate the belief one step with the indicated acceleration.

    Dynamics per sigma point: position advances by ``v*dt + (a-b)*dt^2/2``,
    velocity by ``(a-b)*dt``, the bias stays put; process noise covers the
    accelerometer white noise and the bias random walk. All sigma points
    advance together as rows of one array.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    a = np.asarray(indicated_accel, dtype=float)
    q_accel = params.q_accel if params.q_accel is not None else 0.0
    points, wm, wc = _sigma_points(belief.state, belief.cov, params.alpha,
                                   params.beta, params.kappa)
    pos, vel, bias = points[:, 0:2], points[:, 2:4], points[:, 4:6]
    acc = a - bias
    prop = np.empty_like(points)
    prop[:, 0:2] = pos + vel * dt + 0.5 * acc * dt * dt
    prop[:, 2:4] = vel + acc * dt
    prop[:, 4:6] = bias
    mean = wm @ prop
    dev = prop - mean
    cov = (wc[:, None] * dev).T @ dev + _process_noise(dt, q_accel, params.bias_psd)
    return NavBelief(state=mean, cov=0.5 * (cov + cov.T), time=belief.time + dt)


def weight_fix_covariance(raw_cov, variability: float, v_floor: float = 0.01) -> np.ndarray:
    """Inflate a fix covariance by the inverse normalized variability.

    Low variability means the local map carries little position information,
    so the fix is trusted less; the floor caps the inflation.
    """
    if not 0.0 <= variability <= 1.0:
        raise ValueError("variability must lie in [0, 1]")
    if not v_floor > 0:
        raise ValueError("v_floor must be positive")
    return np.asarray(raw_cov, dtype=float) / max(variability, v_floor)


def aiding_gate(variability: float, threshold: float = 0.05) -> bool:
    """Accept a fix only where the map is informative enough."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    return variability >= threshold


def ukf_update(
    belief: NavBelief,
    fix: AidingFix,
    params: FusionParams,
) -> tuple[NavBelief, UpdateDiag]:
    """Apply one accepted position fix to the belief.

    When the normalized innovation squared exceeds ``params.nis_gate`` the
    fix is rejected and the belief is returned unchanged (same object), so a
    wrong-cluster fix cannot corrupt the navigation state.
    """
    if not fix.accepted:
        raise ValueError("refusing to apply a fix that failed the aiding gate")
    points, wm, wc = _sigma_points(belief.state, belief.cov, params.alpha,
                                   params.beta, params.kappa)
    z_pts = points[:, 0:2]
    z_hat = wm @ z_pts
    dz = z_pts - z_hat
    dx = points - belief.state
    s = (wc[:, None] * dz).T @ dz + fix.cov
    s = 0.5 * (s + s.T)
    cross = (wc[:, None] * dx).T @ dz
    innovation = fix.position - z_hat
    s_inv_innov = np.linalg.solve(s, innovation)
    nis = float(innovation @ s_inv_innov)
    if params.nis_gate is not None and nis > params.nis_gate:
        return belief, UpdateDiag(innovation=innovation, nis=nis, accepted=False)
    gain = np.linalg.solve(s, cross.T).T
    state = belief.state + gain @ innovation
    cov = belief.cov - gain @ s @ gain.T
    return (NavBelief(state=state, cov=0.5 * (cov + cov.T), time=belief.time),
            UpdateDiag(innovation=innovation, nis=nis, accepted=True))


def apply_batch(
    belief: NavBelief,
    estimate: BatchEstimate,
    mode: str,
    variabilities,
    params: FusionParams,
    advance=None,
) -> BatchApplication:
    """Feed a smoothed batch into the belief in the configured aiding mode.

    ``standard`` applies a single update with the final smoothed fix (the
    belief must already sit at the batch end time). ``retrodiction`` applies
    every smoothed fix in time order, calling ``advance(belief, t)`` to
    re-predict between fixes; the belief must start at or before the first
    fix. ``variabilities`` holds one normalized variability per scan.

    The smoothed in-batch states share the batch's information, so feeding
    them in as independent measurements would count that information T
    times over. In retrodiction mode each applied fix covariance is
    therefore inflated by the number of gate-accepted fixes, keeping the
    net batch information on par with a single final-state update.
    """
    if mode not in ("standard", "retrodiction"):
        raise ValueError(f"unknown aiding mode {mode!r}")
    raw_fixes = retrodict(estimate)
    if len(variabilities) != len(raw_fixes):
        raise ValueError("need one variability value per scan")
    if mode == "standard":
        raw_fixes = raw_fixes[-1:]
        variabilities = list(variabilities)[-1:]

    gate_ok = [aiding_gate(float(v), params.variability_threshold) for v in variabilities]
    info_split = float(max(sum(gate_ok), 1)) if mode == "retrodiction" else 1.0

    applied: list[AidingFix] = []
    n_accepted = 0
    n_nis_rejected = 0
    for raw, var, ok in zip(raw_fixes, variabilities, gate_ok):
        var = float(var)
        fix = AidingFix(
            position=raw.position,
            cov=info_split * weight_fix_covariance(raw.cov, var, params.v_floor),
            time=raw.time,
            variability=var,
            accepted=ok,
        )
        applied.append(fix)
        if not fix.accepted:
            continue
        if fix.time > belief.time + 1e-9:
            if advance is None:
                raise ValueError("belief lags the fix time and no advance callback was given")
            belief = advance(belief, fix.time)
        if abs(belief.time - fix.time) > 1e-6:
            raise ValueError(
                f"belief time {belief.time} does not match fix time {fix.time}")
        belief, diag = ukf_update(belief, fix, params)
        if diag.accepted:
            n_accepted += 1
        else:
            n_nis_rejected += 1
    return BatchApplication(
        belief=belief,
        fixes=tuple(applied),
        n_accepted=n_accepted,
        n_nis_rejected=n_nis_rejected,
    )
