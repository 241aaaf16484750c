"""Loosely-coupled integration of batch position fixes into the nav state.

The navigation belief carries planar position, velocity and accelerometer
bias. Prediction propagates the belief through the dead-reckoning dynamics
driven by the indicated acceleration; an update applies one position fix and
returns its normalized innovation squared (NIS). :func:`apply_batch` owns
the aiding decision and both of its gates. It reads the mode, the
variability gate and its floor and the NIS gate from the parameters. It
drops the fixes where the local map feature variability is below the gate
and inflates the covariance of the others by its inverse. Of those, it keeps
an update only where the NIS stays within the gate, which guards against
wrong-cluster fixes, and it records the batch as an :class:`AidingEpoch`.
A NaN compares false against any gate, so a non-finite NIS raises
:class:`~gravnav.errors.NumericalError` instead, as does a predicted belief
that is not finite.

Sigma-point machinery follows the scaled unscented transform. The dynamics
and measurement models here are linear, so the filter is exactly equivalent
to a Kalman filter. The sigma-point form stays because the closed-form
filter rounds differently and moves the last bits of every output, so
replacing it needs a declared re-baseline of the pinned output digests.
The unscented weights and the discrete process noise depend only on the
filter parameters and the step, so they are computed once per distinct
argument set and shared read-only.

Prediction moves a stack of beliefs with a leading seed axis: state
``(R, 6)``, covariance ``(R, 6, 6)``, one row per seed of a campaign block,
all at one time. One call advances every sigma point of every seed with one
set of array operations; a lone belief is the R = 1 stack. Each seed gets
the bits it would get alone, because numpy's stacked ``cholesky`` and
``matmul`` repeat the one-matrix call per matrix. That holds only while
every matmul operand has the same per-matrix strides as in the one-matrix
form: C-ordered matrices, and their transposed views where that form
transposes. An F-ordered operand takes another BLAS path and moves the
last bit of nearly every covariance, so the sigma points and their
propagated copy are allocated C-ordered with ``np.empty`` and filled by
slice. Updates stay per seed: an update forms its seed's sigma points as an
R = 1 stack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import FusionParams, unscented_spread
from .errors import NumericalError
from .pmht import BatchEstimate, cv_model

__all__ = [
    "NavBelief",
    "AidingFix",
    "AidingEpoch",
    "ukf_predict",
    "ukf_update",
    "apply_batch",
]

@dataclass(frozen=True)
class NavBelief:
    """Aided-INS state [pE, pN, vE, vN, bE, bN] with covariance and time.

    ``state`` may also be a stack ``(R, 6)`` with ``cov`` ``(R, 6, 6)``: the
    beliefs of R seeds at one time.
    """

    state: np.ndarray
    cov: np.ndarray
    time: float

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))

    @property
    def position(self) -> np.ndarray:
        return self.state[..., :2]


@dataclass(frozen=True)
class AidingFix:
    """A position fix offered to the navigation filter, and whether it passed
    the variability gate."""

    position: np.ndarray
    cov: np.ndarray
    time: float
    variability: float
    accepted: bool


@dataclass(frozen=True)
class AidingEpoch:
    """One batch-aiding event: the fixes offered, their outcomes and the batch's EM run."""

    time: float
    fixes: tuple[AidingFix, ...]
    n_accepted: int
    n_nis_rejected: int
    iterations_used: int
    converged: bool


@lru_cache(maxsize=32)
def _unscented_weights(n: int, alpha: float, beta: float,
                       kappa: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Spread factor ``n + lambda`` and the read-only mean/cov weights."""
    lam, c = unscented_spread(n, alpha, kappa)
    wm = np.full(2 * n + 1, 1.0 / (2.0 * c))
    wc = wm.copy()
    wm[0] = lam / c
    wc[0] = lam / c + (1.0 - alpha * alpha + beta)
    wm.flags.writeable = wc.flags.writeable = False
    return c, wm, wc


def _regularized_cholesky(scaled: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack ``(R, n, n)`` whose stacked factoring failed.

    Each matrix is factored alone, which gives it the bits of the stacked
    call. Only a matrix that is not positive definite gets a trace-scaled
    jitter and the warning; one that still fails after the jitter gets a
    NaN factor, which :func:`ukf_predict` reports as a failed row.
    """
    root = np.empty_like(scaled)
    for i, matrix in enumerate(scaled):
        try:
            root[i] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            warnings.warn("belief covariance lost positive definiteness; regularized",
                          RuntimeWarning, stacklevel=4)
            jitter = max(np.trace(matrix), 1.0) * 1e-12
            try:
                root[i] = np.linalg.cholesky(matrix + jitter * np.eye(len(matrix)))
            except np.linalg.LinAlgError:
                root[i] = np.nan
    return root


def _sigma_points(x: np.ndarray, cov: np.ndarray, alpha: float, beta: float,
                  kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled unscented sigma points of a stack and their mean/cov weights.

    ``x`` is ``(R, n)`` and ``cov`` ``(R, n, n)``; the points are
    ``(R, 2n + 1, n)``, C-ordered.
    """
    n = x.shape[1]
    c, wm, wc = _unscented_weights(n, alpha, beta, kappa)
    scaled = c * 0.5 * (cov + cov.transpose(0, 2, 1))
    try:
        root = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        root = _regularized_cholesky(scaled)
    root_t = root.transpose(0, 2, 1)
    points = np.empty((len(x), 2 * n + 1, n))
    points[:, 0] = x
    points[:, 1:n + 1] = x[:, None] + root_t
    points[:, n + 1:] = x[:, None] - root_t
    return points, wm, wc


@lru_cache(maxsize=32)
def _process_noise(dt: float, q_accel: float, bias_psd: float) -> np.ndarray:
    """Discrete process noise (read-only): white-noise acceleration plus a slow bias walk.

    The position/velocity block is the constant-velocity model's process noise.
    """
    q = np.zeros((6, 6))
    q[:4, :4] = cv_model(dt, q_accel)[1]
    q[4, 4] = q[5, 5] = bias_psd * dt
    q.flags.writeable = False
    return q


def ukf_predict(
    belief: NavBelief,
    indicated_accel,
    dt: float,
    params: FusionParams,
) -> NavBelief:
    """Propagate a stack of beliefs one step with their indicated accelerations.

    ``belief.state`` is ``(R, 6)`` and ``belief.cov`` ``(R, 6, 6)``, one row
    per seed; ``indicated_accel`` is ``(R, 2)``. Dynamics per sigma point:
    position advances by ``v*dt + (a-b)*dt^2/2``, velocity by ``(a-b)*dt``,
    the bias stays put; process noise covers the accelerometer white noise
    and the bias random walk. All sigma points of all seeds advance together,
    and each seed's result has the bits of its own R = 1 call.

    A seed whose covariance has no finite square root even after
    regularization, or whose predicted mean is not finite, raises
    :class:`NumericalError`, whose ``rows`` names the failed seeds; the
    other seeds give the same bits when predicted without them. A NaN
    covariance factors into NaN without raising, so the check is on the
    mean: the state and the factor enter every off-centre sigma point, and
    each of those enters the mean with the weight ``1 / (2 (n + lambda))``,
    which is never zero for a finite spread factor.
    """
    if belief.state.ndim != 2:
        raise ValueError("ukf_predict takes a stack of beliefs: state (R, 6), cov (R, 6, 6)")
    a = np.asarray(indicated_accel, dtype=float)
    q_accel = params.q_accel if params.q_accel is not None else 0.0
    points, wm, wc = _sigma_points(belief.state, belief.cov, params.alpha,
                                   params.beta, params.kappa)
    pos, vel, bias = points[:, :, 0:2], points[:, :, 2:4], points[:, :, 4:6]
    acc = a[:, None] - bias
    prop = np.empty(points.shape)
    prop[:, :, 0:2] = pos + vel * dt + 0.5 * acc * dt * dt
    prop[:, :, 2:4] = vel + acc * dt
    prop[:, :, 4:6] = bias
    mean = wm @ prop
    if not np.isfinite(mean).all():
        failed = np.flatnonzero(~np.isfinite(mean).all(axis=1))
        raise NumericalError("predicted mean not finite", rows=tuple(failed.tolist()))
    dev = prop - mean[:, None]
    cov = (wc[:, None] * dev).transpose(0, 2, 1) @ dev + _process_noise(dt, q_accel,
                                                                         params.bias_psd)
    return NavBelief(state=mean, cov=0.5 * (cov + cov.transpose(0, 2, 1)),
                     time=belief.time + dt)


def ukf_update(
    belief: NavBelief,
    position: np.ndarray,
    cov: np.ndarray,
    params: FusionParams,
) -> tuple[NavBelief, float]:
    """Apply the position fix ``position`` with covariance ``cov`` to the belief.

    Returns the updated belief and the fix's normalized innovation squared.
    The update reads no gate: :func:`apply_batch` decides whether to keep it.
    """
    points, wm, wc = _sigma_points(belief.state[None], belief.cov[None], params.alpha,
                                   params.beta, params.kappa)
    points = points[0]
    z_pts = points[:, 0:2]
    z_hat = wm @ z_pts
    dz = z_pts - z_hat
    dx = points - belief.state
    s = (wc[:, None] * dz).T @ dz + cov
    s = 0.5 * (s + s.T)
    cross = (wc[:, None] * dx).T @ dz
    innovation = position - z_hat
    nis = float(innovation @ np.linalg.solve(s, innovation))
    gain = np.linalg.solve(s, cross.T).T
    state = belief.state + gain @ innovation
    updated = belief.cov - gain @ s @ gain.T
    return NavBelief(state=state, cov=0.5 * (updated + updated.T), time=belief.time), nis


def apply_batch(
    belief: NavBelief,
    estimate: BatchEstimate,
    variabilities,
    params: FusionParams,
    advance=None,
) -> tuple[NavBelief, AidingEpoch]:
    """Feed a smoothed batch into the belief in the aiding mode ``params.mode``.

    Each scan of ``estimate`` gives one position fix: its time, the position
    rows of its smoothed mean and the position block of its covariance.
    ``standard`` applies a single update with the last scan's fix.
    ``retrodiction`` applies every fix in time order; the belief must start
    at or before the first fix. ``advance(belief, t)`` re-predicts a belief
    to time ``t``: up to each fix that lies ahead of it, and then up to the
    last scan time. ``variabilities`` holds one normalized variability per
    scan.

    A fix passes the aiding gate only where its variability ``v`` reaches
    ``params.variability_threshold``. Low variability means the local map
    carries little position information, so each fix covariance is divided
    by ``max(v, params.v_floor)``: the floor caps the inflation. A fix that
    passes is then applied, but when ``params.nis_gate`` is set and the
    fix's NIS exceeds it, the update is dropped and the belief stays the
    same object: a wrong-cluster fix cannot corrupt the navigation state.
    A fix whose NIS is not finite raises :class:`NumericalError`.

    The smoothed in-batch states share the batch's information, so feeding
    them in as independent measurements would count that information T
    times over. In retrodiction mode each applied fix covariance is
    therefore inflated by the number of gate-accepted fixes, keeping the
    net batch information on par with a single final-state update.

    Returns the belief at the last scan time and the batch's epoch record.
    """
    times = estimate.times
    positions = estimate.means[:, :2]
    covs = estimate.covs[:, :2, :2]
    if len(variabilities) != len(times):
        raise ValueError("need one variability value per scan")
    if params.mode == "standard":
        times, positions, covs = times[-1:], positions[-1:], covs[-1:]
        variabilities = list(variabilities)[-1:]

    def advance_to(bel: NavBelief, t: float) -> NavBelief:
        if t <= bel.time + 1e-9:
            return bel
        if advance is None:
            raise ValueError("belief lags the batch and no advance callback was given")
        return advance(bel, t)

    gate_ok = [float(v) >= params.variability_threshold for v in variabilities]
    info_split = float(max(sum(gate_ok), 1)) if params.mode == "retrodiction" else 1.0

    applied: list[AidingFix] = []
    n_accepted = 0
    n_nis_rejected = 0
    for t, position, cov, var, ok in zip(times, positions, covs, variabilities, gate_ok):
        var = float(var)
        fix = AidingFix(
            position=position,
            cov=info_split * (cov / max(var, params.v_floor)),
            time=float(t),
            variability=var,
            accepted=ok,
        )
        applied.append(fix)
        if not fix.accepted:
            continue
        belief = advance_to(belief, fix.time)
        updated, nis = ukf_update(belief, fix.position, fix.cov, params)
        if not np.isfinite(nis):
            raise NumericalError(f"non-finite NIS of the fix at {fix.time} s")
        if params.nis_gate is not None and nis > params.nis_gate:
            n_nis_rejected += 1
        else:
            belief = updated
            n_accepted += 1
    end_time = float(estimate.times[-1])
    return advance_to(belief, end_time), AidingEpoch(
        time=end_time,
        fixes=tuple(applied),
        n_accepted=n_accepted,
        n_nis_rejected=n_nis_rejected,
        iterations_used=estimate.iterations_used,
        converged=estimate.converged,
    )
