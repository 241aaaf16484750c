"""Batch map-matching tracker: EM-iterated association and smoothing.

Works on a window of T measurement scans. Each iteration alternates an
association step, which collapses every scan's candidate set into a fused
pseudo-measurement around the current trajectory iterate, with an estimation
step that runs a forward Kalman filter and backward fixed-interval smoother
over those pseudo-measurements under a constant-velocity model.

The forward pass is anchored at the fixed batch prior every iteration; the
trajectory iterate feeds back only through the predicted positions used to
weight candidates. With a single candidate per scan the iteration is
therefore an ordinary Kalman filter plus smoother, independent of the
iteration count.

A batch's candidates are stacked once (:class:`~gravnav.assoc.ScanStack`),
together with their position-noise covariances and the first iteration's
measurement covariances. Within one iteration each scan's weights depend
only on its own candidates, its own prediction from the previous iterate and
its own previous fused covariance, so the association step weights and fuses
every scan at once; the backward smoother gains are one stacked solve. The
results are bit-for-bit those of weighting and fusing scan by scan.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assoc import PdaResult, ScanStack, position_noise_cov, stack_fuse, stack_weights
# Not called here (the E-step uses its stacked form), but perfbench's tracer
# test patches and restores this binding, so it stays importable from pmht.
from .assoc import candidate_weights  # noqa: F401
from .errors import NoFixError, NumericalError
from .geomap import CandidateSet

__all__ = [
    "KinematicState",
    "KinematicModel",
    "BatchProblem",
    "BatchEstimate",
    "PositionFix",
    "cv_model",
    "em_step",
    "run_batch",
    "retrodict",
]

DEFAULT_MAX_ITERS = 15
DEFAULT_EPSILON = 0.1


@dataclass(frozen=True)
class KinematicState:
    """Planar position/velocity state [pE, pN, vE, vN] with covariance."""

    x: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))

    @property
    def position(self) -> np.ndarray:
        return self.x[:2]

    @property
    def velocity(self) -> np.ndarray:
        return self.x[2:4]


@dataclass(frozen=True)
class KinematicModel:
    """Constant-velocity transition/observation matrices for one scan step."""

    F: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    dt: float


def cv_model(dt: float, q_a: float = 0.01) -> KinematicModel:
    """Constant-velocity model with white-noise-acceleration process noise.

    ``q_a`` is the acceleration power spectral density in m^2/s^3; the
    discrete process noise is its exact integral over one step.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    q = np.zeros((4, 4))
    q3, q2, q1 = dt ** 3 / 3.0, dt ** 2 / 2.0, dt
    for p, v in ((0, 2), (1, 3)):
        q[p, p] = q_a * q3
        q[p, v] = q[v, p] = q_a * q2
        q[v, v] = q_a * q1
    h = np.zeros((2, 4))
    h[0, 0] = h[1, 1] = 1.0
    return KinematicModel(F=f, Q=q, H=h, dt=float(dt))


@dataclass(frozen=True)
class BatchProblem:
    """One batch of T scans with per-scan priors and a kinematic model."""

    priors: tuple[KinematicState, ...]
    scans: tuple[CandidateSet, ...]
    model: KinematicModel
    max_iters: int = DEFAULT_MAX_ITERS
    epsilon: float = DEFAULT_EPSILON
    start_time: float = 0.0
    grad_floor: float = 1e-9
    spread_cov: bool = False

    def __post_init__(self):
        object.__setattr__(self, "priors", tuple(self.priors))
        object.__setattr__(self, "scans", tuple(self.scans))
        if len(self.priors) < 2:
            raise ValueError("batch length must be at least 2")
        if len(self.priors) != len(self.scans):
            raise ValueError("priors and scans must have the same length")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    @property
    def batch_len(self) -> int:
        return len(self.scans)

    @cached_property
    def _stacked(self) -> "_StackedScans":
        return _StackedScans.build(self)


@dataclass(frozen=True, eq=False)
class _StackedScans:
    """What every association step of a batch shares, built once per batch.

    ``noise_covs`` holds the position-noise covariance of each candidate as
    one ``(rows, n, 2, 2)`` array per group of ``stack``; ``first_cov`` is
    the candidate-averaged covariance of each row, the measurement
    covariance of the first iteration.
    """

    stack: ScanStack
    noise_covs: tuple[np.ndarray, ...]
    first_cov: np.ndarray

    @classmethod
    def build(cls, problem: BatchProblem) -> "_StackedScans":
        stack = ScanStack.build(problem.scans)
        noise_covs = []
        first_cov = np.empty((len(stack), 2, 2))
        for rows, locs in stack.groups:
            covs = np.array([[position_noise_cov(cs.sigma, c.grad, problem.grad_floor)
                              for c in cs]
                             for cs in (problem.scans[t] for t in stack.scans[rows])])
            n = locs.shape[1]
            # Added in candidate order; a numpy sum over the axis may pair terms
            # differently and change the last bit.
            first_cov[rows] = sum(covs[:, j] for j in range(n)) / n
            noise_covs.append(covs)
        return cls(stack=stack, noise_covs=tuple(noise_covs), first_cov=first_cov)


@dataclass(frozen=True)
class BatchEstimate:
    """Smoothed batch trajectory plus iteration diagnostics."""

    states: tuple[KinematicState, ...]
    iterations_used: int
    converged: bool
    per_scan_fused: tuple[PdaResult | None, ...]
    final_residual: float
    times: np.ndarray
    cost_trace: np.ndarray
    skipped_scans: tuple[int, ...]


@dataclass(frozen=True)
class PositionFix:
    """Timestamped position fix extracted from a smoothed batch state."""

    time: float
    position: np.ndarray
    cov: np.ndarray


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _solve_spd(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve m @ x = rhs, regularizing with a trace-scaled jitter if singular.

    ``m`` and ``rhs`` may be stacks; then only the singular matrices of the
    stack get the jitter.
    """
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        if m.ndim > 2:
            return np.array([_solve_spd(mi, ri) for mi, ri in zip(m, rhs)])
        warnings.warn("singular covariance in batch recursion; regularized",
                      RuntimeWarning, stacklevel=2)
        jitter = max(np.trace(m), 1.0) * 1e-12
        return np.linalg.solve(m + jitter * np.eye(m.shape[0]), rhs)


def _predicted_positions(problem: BatchProblem, states) -> np.ndarray:
    """(T, 2) one-step predicted positions around an iterate.

    Scan 0 is predicted by the batch prior, scan t by state t-1 of the
    iterate. The stacked matrix-vector products equal ``F @ x`` and
    ``H @ x`` taken one state at a time.
    """
    f, h = problem.model.F, problem.model.H
    prev = np.array([problem.priors[0].x] + [st.x for st in states[:-1]])
    pred_x = np.concatenate([prev[:1], np.matmul(f, prev[1:, :, None])[:, :, 0]])
    return np.matmul(h, pred_x[:, :, None])[:, :, 0]


def em_step(
    problem: BatchProblem,
    current: list[KinematicState] | tuple[KinematicState, ...],
    prev_fused: list[PdaResult | None] | None = None,
) -> tuple[list[KinematicState], list[PdaResult | None]]:
    """One association + smoothing iteration.

    ``current`` is the trajectory iterate used to predict per-scan positions;
    ``prev_fused`` supplies the previous iteration's fused covariances for
    candidate weighting (on the first iteration the candidate-averaged
    position-noise covariance is used instead). Returns the new smoothed
    trajectory and this iteration's fused pseudo-measurements (``None`` for
    scans whose candidate set is empty).

    Every non-empty scan is weighted and fused in one stacked association
    step; the forward filter then runs scan by scan, and the backward
    smoother gains are solved for all scans at once.
    """
    t_len = problem.batch_len
    if len(current) != t_len:
        raise ValueError("current iterate length must equal the batch length")
    f, q, h = problem.model.F, problem.model.Q, problem.model.H

    batch = problem._stacked
    rows = batch.stack.scans
    meas_cov = batch.first_cov
    if prev_fused is not None:
        meas_cov = meas_cov.copy()
        for r, t in enumerate(rows):
            if prev_fused[t] is not None:
                meas_cov[r] = prev_fused[t].fused_cov
    pred_pos = _predicted_positions(problem, current)[rows]
    weights = stack_weights(batch.stack, pred_pos, meas_cov)
    positions, covs = stack_fuse(batch.stack, weights, batch.noise_covs,
                                 spread_cov=problem.spread_cov)
    row_weights = [w for group in weights for w in group]
    fused: list[PdaResult | None] = [None] * t_len
    for r, t in enumerate(rows):
        fused[t] = PdaResult(fused_position=positions[r], fused_cov=covs[r],
                             weights=row_weights[r], n_candidates=len(row_weights[r]))

    # Forward filter, anchored at the batch prior. The scan-1 pseudo-
    # measurement is not consumed here: the prior already plays the role of
    # the time-1 posterior.
    y = problem.priors[0].x.copy()
    p = _symmetrize(problem.priors[0].cov.copy())
    ys = [y]
    ps = [p]
    y_preds: list[np.ndarray] = []
    p_preds: list[np.ndarray] = []
    for t in range(t_len - 1):
        p_pred = _symmetrize(f @ ps[t] @ f.T + q)
        y_pred = f @ ys[t]
        zt = fused[t + 1]
        if zt is None:
            ys.append(y_pred)
            ps.append(p_pred)
        else:
            hp = h @ p_pred
            s_mat = hp @ h.T + zt.fused_cov
            k = _solve_spd(s_mat, hp).T
            ps.append(_symmetrize(p_pred - k @ h @ p_pred))
            ys.append(y_pred + k @ (zt.fused_position - h @ y_pred))
        y_preds.append(y_pred)
        p_preds.append(p_pred)

    # Backward smoothing with the standard fixed-interval gain, all gains in
    # one stacked solve.
    gains = np.swapaxes(
        _solve_spd(np.array(p_preds), np.matmul(f, np.swapaxes(np.array(ps[:-1]), 1, 2))),
        1, 2)
    xs: list[np.ndarray] = [np.zeros(4)] * t_len
    smoothed: list[np.ndarray] = [np.zeros((4, 4))] * t_len
    xs[t_len - 1] = ys[t_len - 1]
    smoothed[t_len - 1] = ps[t_len - 1]
    for t in range(t_len - 2, -1, -1):
        g = gains[t]
        xs[t] = ys[t] + g @ (xs[t + 1] - y_preds[t])
        smoothed[t] = _symmetrize(ps[t] + g @ (smoothed[t + 1] - p_preds[t]) @ g.T)

    states = [KinematicState(x=xs[t], cov=smoothed[t]) for t in range(t_len)]
    return states, fused


def _weighted_fit_cost(problem: BatchProblem, states, fused) -> float:
    """Weighted squared Mahalanobis cost of the candidates per scan.

    Candidates are measured against the same one-step predicted positions
    the association weights were computed from (``states`` is the iterate
    that fed the E-step), with each scan's fused covariance as the metric.
    """
    pred = _predicted_positions(problem, states)
    scans = [t for t, zt in enumerate(fused) if zt is not None]
    sinvs = np.linalg.inv(np.array([fused[t].fused_cov for t in scans]))
    total = 0.0
    for t, sinv in zip(scans, sinvs):
        diffs = problem.scans[t].locations - pred[t]
        maha2 = np.einsum("ni,ij,nj->n", diffs, sinv, diffs)
        total += float(fused[t].weights @ maha2)
    return total


def run_batch(problem: BatchProblem) -> BatchEstimate:
    """Iterate :func:`em_step` to convergence or the iteration budget.

    Convergence is measured as the maximum per-scan position displacement
    between consecutive iterates. Raises :class:`NoFixError` when every scan
    is empty and :class:`NumericalError` when an iterate goes non-finite.
    """
    t_len = problem.batch_len
    skipped = tuple(t for t in range(t_len) if len(problem.scans[t]) == 0)
    if len(skipped) == t_len:
        raise NoFixError("every scan in the batch is empty")

    current: list[KinematicState] = list(problem.priors)
    fused: list[PdaResult | None] | None = None
    costs: list[float] = []
    residual = np.inf
    converged = False
    iterations = 0
    for i in range(1, problem.max_iters + 1):
        new_states, fused = em_step(problem, current, fused)
        iterations = i
        for st in new_states:
            if not (np.isfinite(st.x).all() and np.isfinite(st.cov).all()):
                raise NumericalError("non-finite batch iterate", iteration=i)
        residual = max(
            float(np.linalg.norm(new_states[t].position - current[t].position))
            for t in range(t_len)
        )
        costs.append(_weighted_fit_cost(problem, current, fused))
        current = new_states
        if residual <= problem.epsilon:
            converged = True
            break

    times = problem.start_time + np.arange(t_len) * problem.model.dt
    return BatchEstimate(
        states=tuple(current),
        iterations_used=iterations,
        converged=converged,
        per_scan_fused=tuple(fused),
        final_residual=residual,
        times=times,
        cost_trace=np.array(costs),
        skipped_scans=skipped,
    )


def retrodict(estimate: BatchEstimate) -> list[PositionFix]:
    """Expose every smoothed in-batch state as a timestamped position fix.

    Standard aiding consumes only the last fix; retrodiction consumes all of
    them, reducing the effective aiding interval to one scan period.
    """
    fixes = []
    for t, state in enumerate(estimate.states):
        fixes.append(PositionFix(
            time=float(estimate.times[t]),
            position=state.position.copy(),
            cov=state.cov[:2, :2].copy(),
        ))
    return fixes
