"""Loosely-coupled integration of batch position fixes into the nav state.

The navigation belief carries planar position, velocity and accelerometer
bias, as a stack with a leading seed axis: state ``(R, 6)``, covariance
``(R, 6, 6)``, one row per seed of a campaign block, all at one time; a
lone belief is the R = 1 stack. Prediction propagates the stack through a
run of dead-reckoning steps driven by the indicated accelerations; an update
applies one position fix per row and returns each fix's normalized
innovation squared (NIS). This module owns the aiding decision:
:func:`batch_fixes` reads the mode, the variability gate and its floor, and
turns one seed's smoothed batch into its fixes, and :func:`apply_batch`
applies one fix time's accepted fixes and the NIS gate, which guards
against wrong-cluster fixes. A NaN compares false against any gate, so a
row whose NIS is not finite is named as failed, as is a predicted row that
is not finite (:class:`~gravnav.errors.NumericalError`).

Sigma-point machinery follows the scaled unscented transform. The dynamics
and measurement models here are linear, so the filter is exactly equivalent
to a Kalman filter. The sigma-point form stays because the closed-form
filter rounds differently and moves the last bits of every output, so
replacing it needs a declared re-baseline of the pinned output digests.
The unscented weights and the discrete process noise depend only on the
filter parameters and the step, so they are computed once per distinct
argument set and shared read-only.

One call moves every sigma point of every row with one set of array
operations, and each row gets the bits it would get alone, because numpy's
stacked ``cholesky``, ``solve`` and ``matmul`` repeat the one-matrix call
per matrix. That holds only while every matmul operand has the same
per-matrix strides as in the one-matrix form: C-ordered matrices, and their
transposed views where that form transposes. An F-ordered operand takes
another BLAS path and moves the last bit of nearly every covariance, so the
sigma points and their propagated copy are allocated C-ordered with
``np.empty`` and filled by slice; a run of predict steps makes them once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .config import FusionParams, unscented_spread
from .errors import NumericalError
from .pmht import BatchEstimate, cv_model

__all__ = [
    "NavBelief",
    "AidingFix",
    "AidingEpoch",
    "ukf_predict",
    "ukf_update",
    "batch_fixes",
    "apply_batch",
]

@dataclass(frozen=True)
class NavBelief:
    """Aided-INS states [pE, pN, vE, vN, bE, bN] of R seeds, ``(R, 6)``, with
    their covariances ``(R, 6, 6)``, at one time."""

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


def _cholesky(scaled: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack ``(R, n, n)``, as ``np.linalg.cholesky``
    gives them.

    When the stacked call fails, each matrix is factored alone, which gives
    it the bits of the stacked call. Only a matrix that is not positive
    definite gets a trace-scaled jitter and the warning, at the line that
    called the predict or the update; one that still fails after the jitter
    gets a NaN factor, which :func:`ukf_predict` reports as a failed row.
    """
    try:
        return np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        pass
    root = np.empty_like(scaled)
    for i, matrix in enumerate(scaled):
        try:
            root[i] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            warnings.warn("belief covariance lost positive definiteness; regularized",
                          RuntimeWarning, stacklevel=3)
            jitter = max(np.trace(matrix), 1.0) * 1e-12
            try:
                root[i] = np.linalg.cholesky(matrix + jitter * np.eye(len(matrix)))
            except np.linalg.LinAlgError:
                root[i] = np.nan
    return root


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
    indicated_accels,
    dt: float,
    params: FusionParams,
    out: np.ndarray | None = None,
) -> tuple[NavBelief, np.ndarray]:
    """Propagate a stack of beliefs through a run of steps with their indicated accelerations.

    ``belief`` is ``(R, 6)``/``(R, 6, 6)``, one row per seed, and
    ``indicated_accels`` ``(S, R, 2)``. Returns the belief after the S steps
    (at ``belief.time`` plus ``dt`` once per step) and each step's positions
    ``(S, R, 2)``, written into ``out`` when given. One step is S = 1.
    Dynamics per sigma point: position advances by ``v*dt + (a-b)*dt^2/2``,
    velocity by ``(a-b)*dt``, the bias stays put; process noise covers the
    accelerometer white noise, of PSD ``params.q_accel`` (a number: see
    :meth:`.ScenarioConfig.resolved`), and the bias random walk.

    The weights, the process noise and every buffer are made once per run,
    and each step is a fixed sequence of numpy kernels into the buffers:
    the IEEE operations, in order, of the one-step form, so the bits are the
    same. The sigma points are spread and propagated component-major,
    ``(R, 6, 2n + 1)``, so each elementwise kernel runs over contiguous rows,
    and copied C-ordered for the matmuls. A run calls LAPACK's factor
    directly (``_umath_linalg.cholesky_lo``, the gufunc that
    ``np.linalg.cholesky`` wraps: its bits without its per-call cost) and
    checks for faults once, at its end: a matrix that is not positive
    definite factors into NaN, and no value that is not finite becomes
    finite again, so a run that ends finite met none. Any other run, or one
    whose caller reports underflow, is replayed step by step under the
    caller's error state through :func:`_cholesky` and the mean check: the
    warnings and bits of one-step calls.

    A seed whose covariance has no finite square root even after
    regularization, or whose predicted mean is not finite, raises
    :class:`NumericalError`, naming the failed seeds (``rows``), the step
    (``iteration``) and the ``belief`` before it; ``out`` holds the earlier
    steps' positions. The other seeds give the same bits when predicted without
    them. A NaN covariance factors into NaN without raising, so the check is
    on the mean: the state and the factor enter every off-centre sigma
    point, each weighted ``1 / (2 (n + lambda))`` in the mean, which is
    never zero for a finite spread factor.
    """
    a = np.asarray(indicated_accels, dtype=float)
    if belief.state.ndim != 2 or a.ndim != 3:
        raise ValueError("ukf_predict takes a stack of beliefs and (S, R, 2) accelerations")
    rows, n = belief.state.shape
    c, wm, wc = _unscented_weights(n, params.alpha, params.beta, params.kappa)
    q = _process_noise(dt, params.q_accel, params.bias_psd)
    positions = np.empty((len(a), rows, 2)) if out is None else out
    states, covs = np.empty((2, rows, n)), np.empty((2, rows, n, n))
    scaled, root, pred = np.empty((3, rows, n, n))
    spread = np.empty((rows, n, 2 * n + 1))
    points, dev, wdev = np.empty((3, rows, 2 * n + 1, n))
    acc, tmp = np.empty((2, rows, 2, 2 * n + 1))
    weights = np.broadcast_to(wc[:, None], points.shape).copy()
    pos, vel, bias = spread[:, 0:2], spread[:, 2:4], spread[:, 4:6]
    for checked in (np.geterr()["under"] != "ignore", True):
        x, cov, time = belief.state, belief.cov, belief.time
        with np.errstate(all=None if checked else "ignore"):
            for s, accel in enumerate(a[..., None]):
                np.add(cov, cov.transpose(0, 2, 1), out=scaled)
                scaled *= c * 0.5
                factor = _cholesky(scaled) if checked else _umath_linalg.cholesky_lo(
                    scaled, signature="d->d", out=root)
                spread[:, :, 0] = x
                np.add(x[:, :, None], factor, out=spread[:, :, 1:n + 1])
                np.subtract(x[:, :, None], factor, out=spread[:, :, n + 1:])
                np.subtract(accel, bias, out=acc)
                pos += np.multiply(vel, dt, out=tmp)
                np.multiply(acc, 0.5, out=tmp)
                tmp *= dt
                pos += np.multiply(tmp, dt, out=tmp)
                vel += np.multiply(acc, dt, out=tmp)
                points[...] = spread.transpose(0, 2, 1)
                mean = np.matmul(wm, points, out=states[s % 2])
                if checked and not (finite := np.isfinite(mean).all(axis=1)).all():
                    raise NumericalError("predicted mean not finite", iteration=s,
                                         rows=tuple(np.flatnonzero(~finite).tolist()),
                                         belief=NavBelief(state=x, cov=cov, time=time))
                np.subtract(points, mean[:, None], out=dev)
                np.matmul(np.multiply(weights, dev, out=wdev).transpose(0, 2, 1), dev, out=pred)
                pred += q
                x, cov = mean, np.add(pred, pred.transpose(0, 2, 1), out=covs[s % 2])
                cov *= 0.5
                positions[s] = x[:, :2]
                time += dt
        if checked or np.isfinite(x).all() and np.isfinite(cov).all():
            return NavBelief(state=x, cov=cov, time=time), positions


def ukf_update(
    belief: NavBelief,
    position: np.ndarray,
    cov: np.ndarray,
    params: FusionParams,
) -> tuple[NavBelief, np.ndarray]:
    """Apply one position fix to each belief of a stack.

    ``belief`` is a stack (``(R, 6)``, ``(R, 6, 6)``), ``position`` ``(R, 2)``
    and ``cov`` ``(R, 2, 2)``: row i's fix goes to row i. Returns the updated
    stack and each fix's normalized innovation squared, ``(R,)``. The update
    reads no gate: :func:`apply_batch` decides which rows keep it. Each row
    gets the bits of its own R = 1 call; the NIS is a stacked matmul, which
    keeps them (an ``einsum`` or a product sum does not).
    """
    x, n = belief.state, belief.state.shape[1]
    c, wm, wc = _unscented_weights(n, params.alpha, params.beta, params.kappa)
    root_t = _cholesky(c * 0.5 * (belief.cov + belief.cov.transpose(0, 2, 1))).transpose(0, 2, 1)
    points = np.empty((len(x), 2 * n + 1, n))
    points[:, 0] = x
    points[:, 1:n + 1] = x[:, None] + root_t
    points[:, n + 1:] = x[:, None] - root_t
    z_pts = points[:, :, 0:2]
    z_hat = wm @ z_pts
    dz = z_pts - z_hat[:, None]
    dx = points - x[:, None]
    s = (wc[:, None] * dz).transpose(0, 2, 1) @ dz + cov
    s = 0.5 * (s + s.transpose(0, 2, 1))
    cross = (wc[:, None] * dx).transpose(0, 2, 1) @ dz
    innovation = (position - z_hat)[:, :, None]
    nis = (innovation.transpose(0, 2, 1) @ np.linalg.solve(s, innovation))[:, 0, 0]
    gain = np.linalg.solve(s, cross.transpose(0, 2, 1)).transpose(0, 2, 1)
    state = x + (gain @ innovation)[:, :, 0]
    updated = belief.cov - gain @ s @ gain.transpose(0, 2, 1)
    return NavBelief(state=state, cov=0.5 * (updated + updated.transpose(0, 2, 1)),
                     time=belief.time), nis


def batch_fixes(
    estimate: BatchEstimate,
    variabilities,
    params: FusionParams,
) -> tuple[AidingFix, ...]:
    """The position fixes one seed's smoothed batch offers in the aiding mode ``params.mode``.

    Each scan of ``estimate`` gives one fix: its time, the position rows of
    its smoothed mean and the position block of its covariance.
    ``standard`` offers the last scan's fix alone, ``retrodiction`` every
    scan's, in time order. ``variabilities`` holds one normalized
    variability per scan.

    A fix passes the aiding gate (``accepted``) only where its variability
    ``v`` reaches ``params.variability_threshold``. Low variability means the
    local map carries little position information, so each fix covariance
    is divided by ``max(v, params.v_floor)``: the floor caps the inflation.

    The smoothed in-batch states share the batch's information, so feeding
    them in as independent measurements would count that information T
    times over. In retrodiction mode each fix covariance is therefore
    inflated by the number of gate-accepted fixes, keeping the net batch
    information on par with a single final-state update.
    """
    if len(variabilities) != len(estimate.times):
        raise ValueError("need one variability value per scan")
    scans = list(zip(estimate.times, estimate.means[:, :2], estimate.covs[:, :2, :2],
                     map(float, variabilities)))
    if params.mode == "standard":
        scans = scans[-1:]
    gate_ok = [v >= params.variability_threshold for *_, v in scans]
    info_split = float(max(sum(gate_ok), 1)) if params.mode == "retrodiction" else 1.0
    return tuple(
        AidingFix(position=position, cov=info_split * (cov / max(v, params.v_floor)),
                  time=float(t), variability=v, accepted=ok)
        for (t, position, cov, v), ok in zip(scans, gate_ok))


def apply_batch(
    belief: NavBelief,
    rows,
    fixes,
    params: FusionParams,
) -> tuple[NavBelief, np.ndarray, tuple[int, ...]]:
    """Apply one fix time's accepted fixes to the rows of a belief stack that have one.

    ``fixes[j]`` (an :class:`AidingFix`) goes to row ``rows[j]`` of
    ``belief``, which is at the fixes' time, in one stacked
    :func:`ukf_update`; the other rows pass through. When ``params.nis_gate``
    is set and a fix's NIS exceeds it, its row keeps its belief: a
    wrong-cluster fix cannot corrupt the navigation state. So does a row
    whose NIS is not finite, and it is named as failed.

    Returns the stack, whether each fix was applied, and the failed rows.
    """
    rows = np.asarray(rows)
    updated, nis = ukf_update(
        NavBelief(state=belief.state[rows], cov=belief.cov[rows], time=belief.time),
        np.array([fix.position for fix in fixes]), np.array([fix.cov for fix in fixes]),
        params)
    finite = np.isfinite(nis)
    applied = finite if params.nis_gate is None else finite & (nis <= params.nis_gate)
    state, cov = belief.state.copy(), belief.cov.copy()
    state[rows[applied]] = updated.state[applied]
    cov[rows[applied]] = updated.cov[applied]
    return (NavBelief(state=state, cov=cov, time=belief.time), applied,
            tuple(rows[~finite].tolist()))
