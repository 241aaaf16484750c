"""Batch map-matching tracker: EM-iterated association and smoothing.

Works on a window of T measurement scans. Each iteration alternates an
association step, which collapses every scan's candidate set into a fused
pseudo-measurement around the current trajectory iterate, with an estimation
step that runs a forward Kalman filter and backward fixed-interval smoother
over those pseudo-measurements under a constant-velocity model. The state
is [pE, pN, vE, vN] and a pseudo-measurement observes its first two entries,
so the filter takes slices where the textbook form multiplies by a 2x4
selection matrix. A :class:`BatchProblem` holds the prior as a mean and a
covariance array, and the :class:`~gravnav.config.PmhtParams` it runs under:
the iteration budget, the stopping tolerance, the gradient floor, the spread
term and the process noise are read from there alone.

The forward pass is anchored at the fixed batch prior every iteration; the
trajectory iterate feeds back only through the predicted positions used to
weight candidates. With a single candidate per scan the iteration is
therefore an ordinary Kalman filter plus smoother, independent of the
iteration count.

A batch's candidates are stacked once into a
:class:`~gravnav.assoc.ScanStack`, which also carries their position-noise
covariances, the first iteration's measurement covariances and the row of
each scan. Within one iteration each scan's weights depend
only on its own candidates, its own prediction from the previous iterate and
its own previous fused covariance, so the association step weights and fuses
every scan at once; the backward smoother gains are one stacked solve. The
results are bit-for-bit those of weighting and fusing scan by scan.

An iterate is carried as arrays: ``(T, 4)`` means, ``(T, 4, 4)``
covariances, and the fused pseudo-measurements by stack row. The final
iterate is the :class:`BatchEstimate`, which the nav filter reads as one
position fix per scan.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assoc import ScanStack, stack_fuse, stack_weights
# Not called here (the E-step uses its stacked form), but perfbench's tracer
# test patches and restores this binding, so it stays importable from pmht.
from .assoc import candidate_weights  # noqa: F401
from .config import PmhtParams
from .errors import NumericalError
from .geomap import CandidateSet

__all__ = [
    "BatchProblem",
    "BatchEstimate",
    "cv_model",
    "em_step",
    "run_batch",
]


def cv_model(dt: float, q_a: float) -> tuple[np.ndarray, np.ndarray]:
    """``(F, Q)`` of the constant-velocity model over one step of ``dt`` seconds.

    The state is [pE, pN, vE, vN]. ``q_a`` is the acceleration power spectral
    density in m^2/s^3; the discrete process noise is its exact integral over
    one step.
    """
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    q = np.zeros((4, 4))
    q3, q2, q1 = dt ** 3 / 3.0, dt ** 2 / 2.0, dt
    for p, v in ((0, 2), (1, 3)):
        q[p, p] = q_a * q3
        q[p, v] = q[v, p] = q_a * q2
        q[v, v] = q_a * q1
    return f, q


@dataclass(frozen=True)
class BatchProblem:
    """One batch of T scans ``dt`` seconds apart and the prior at the first scan.

    ``prior_mean`` (4,) and ``prior_cov`` (4, 4) are the planar state
    [pE, pN, vE, vN] and its covariance. ``params`` holds the tracker
    settings; ``model`` is the ``(F, Q)`` pair of :func:`cv_model` for ``dt``
    and ``params.q_a``, and ``stack`` the scans' :class:`ScanStack` under
    ``params.grad_floor``. Both are built once, on first use.
    """

    prior_mean: np.ndarray
    prior_cov: np.ndarray
    scans: tuple[CandidateSet, ...]
    params: PmhtParams
    dt: float
    start_time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "prior_mean", np.asarray(self.prior_mean, dtype=float))
        object.__setattr__(self, "prior_cov", np.asarray(self.prior_cov, dtype=float))
        object.__setattr__(self, "scans", tuple(self.scans))
        if len(self.scans) < 2:
            raise ValueError("batch length must be at least 2")

    @cached_property
    def model(self) -> tuple[np.ndarray, np.ndarray]:
        return cv_model(self.dt, self.params.q_a)

    @property
    def batch_len(self) -> int:
        return len(self.scans)

    @cached_property
    def stack(self) -> ScanStack:
        return ScanStack.build(self.scans, self.params.grad_floor)


@dataclass(frozen=True)
class BatchEstimate:
    """Smoothed batch trajectory and how the iteration ended.

    ``means`` is ``(T, 4)`` and ``covs`` ``(T, 4, 4)``, one row per scan, at
    the scan ``times``.
    """

    means: np.ndarray
    covs: np.ndarray
    times: np.ndarray
    iterations_used: int
    converged: bool


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _solve_spd(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve m @ x = rhs, regularizing with a trace-scaled jitter if singular.

    ``m`` and ``rhs`` may be stacks; then only the singular matrices of the
    stack get the jitter. Raises :class:`NumericalError` when a matrix stays
    singular after the jitter.
    """
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        if m.ndim > 2:
            return np.array([_solve_spd(mi, ri) for mi, ri in zip(m, rhs)])
        warnings.warn("singular covariance in batch recursion; regularized",
                      RuntimeWarning, stacklevel=2)
        jitter = max(np.trace(m), 1.0) * 1e-12
        try:
            return np.linalg.solve(m + jitter * np.eye(m.shape[0]), rhs)
        except np.linalg.LinAlgError:
            raise NumericalError("covariance solve failed after regularization") from None


def _predicted_positions(problem: BatchProblem, xs: np.ndarray) -> np.ndarray:
    """(T, 2) one-step predicted positions around the ``(T, 4)`` iterate ``xs``.

    Scan 0 is predicted by the batch prior, scan t by state t-1 of the
    iterate. The stacked matrix-vector product equals ``F @ x`` taken one
    state at a time; the positions are the first two entries of each
    predicted state.
    """
    f = problem.model[0]
    pred_x = np.concatenate([problem.prior_mean[None], np.matmul(f, xs[:-1, :, None])[:, :, 0]])
    return pred_x[:, :2]


def em_step(
    problem: BatchProblem,
    current: np.ndarray,
    prev_cov: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """One association + smoothing iteration.

    ``current`` is the ``(T, 4)`` trajectory iterate used to predict
    per-scan positions; ``prev_cov`` holds the previous iteration's fused
    covariances for candidate weighting (on the first iteration, ``None``,
    the candidate-averaged position-noise covariance is used instead).
    Returns the smoothed means ``(T, 4)`` and covariances ``(T, 4, 4)``, and
    this iteration's fused positions ``(L, 2)``, fused covariances
    ``(L, 2, 2)`` and association weights (one array per row). Fused
    quantities run by row of ``problem.stack``: one row per non-empty scan.

    Every non-empty scan is weighted and fused in one stacked association
    step; the forward filter then runs scan by scan, and the backward
    smoother gains are solved for all scans at once.
    """
    t_len = problem.batch_len
    if len(current) != t_len:
        raise ValueError("current iterate length must equal the batch length")
    f, q = problem.model

    stack = problem.stack
    meas_cov = stack.first_cov if prev_cov is None else prev_cov
    pred_pos = _predicted_positions(problem, current)[stack.scans]
    weights = stack_weights(stack, pred_pos, meas_cov)
    positions, covs = stack_fuse(stack, weights, problem.params.spread_cov)

    # Forward filter, anchored at the batch prior. The scan-1 pseudo-
    # measurement is not consumed here: the prior already plays the role of
    # the time-1 posterior.
    xs = np.empty((t_len, 4))
    ps = np.empty((t_len, 4, 4))
    x_preds = np.empty((t_len - 1, 4))
    p_preds = np.empty((t_len - 1, 4, 4))
    xs[0] = problem.prior_mean
    ps[0] = _symmetrize(problem.prior_cov)
    for t in range(t_len - 1):
        p_preds[t] = p_pred = _symmetrize(f @ ps[t] @ f.T + q)
        x_preds[t] = x_pred = f @ xs[t]
        r = stack.row_of[t + 1]
        if r < 0:
            xs[t + 1] = x_pred
            ps[t + 1] = p_pred
        else:
            # The measurement picks the position: H P is P[:2], H P H^T is
            # P[:2, :2] and H x is x[:2], equal bit for bit to the products.
            hp = p_pred[:2]
            k = _solve_spd(p_pred[:2, :2] + covs[r], hp).T
            ps[t + 1] = _symmetrize(p_pred - k @ hp)
            xs[t + 1] = x_pred + k @ (positions[r] - x_pred[:2])

    # Backward smoothing in place with the standard fixed-interval gain, all
    # gains in one stacked solve.
    gains = np.swapaxes(_solve_spd(p_preds, np.matmul(f, np.swapaxes(ps[:-1], 1, 2))), 1, 2)
    for t in range(t_len - 2, -1, -1):
        g = gains[t]
        xs[t] = xs[t] + g @ (xs[t + 1] - x_preds[t])
        ps[t] = _symmetrize(ps[t] + g @ (ps[t + 1] - p_preds[t]) @ g.T)

    return xs, ps, positions, covs, [w for group in weights for w in group]


def run_batch(problem: BatchProblem) -> BatchEstimate | None:
    """Iterate :func:`em_step` to convergence or the iteration budget.

    The first iterate is the prior mean rolled forward through the model.
    Convergence is measured as the maximum per-scan position displacement
    between consecutive iterates. Returns ``None`` when every scan is empty:
    the batch holds no position information. Raises :class:`NumericalError`
    when an iterate goes non-finite.
    """
    if len(problem.stack) == 0:
        return None

    t_len = problem.batch_len
    current = np.empty((t_len, 4))
    current[0] = problem.prior_mean
    f = problem.model[0]
    for t in range(1, t_len):
        current[t] = f @ current[t - 1]
    fused_cov = None
    converged = False
    for i in range(1, problem.params.max_iters + 1):
        xs, covs, _, fused_cov, _ = em_step(problem, current, fused_cov)
        if not (np.isfinite(xs).all() and np.isfinite(covs).all()):
            raise NumericalError("non-finite batch iterate", iteration=i)
        residual = max(float(np.linalg.norm(d)) for d in xs[:, :2] - current[:, :2])
        current = xs
        if residual <= problem.params.epsilon:
            converged = True
            break

    return BatchEstimate(
        means=current,
        covs=covs,
        times=problem.start_time + np.arange(t_len) * problem.dt,
        iterations_used=i,
        converged=converged,
    )
