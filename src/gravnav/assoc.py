"""Probabilistic data association of gated map candidates.

Collapses an ambiguous candidate set into a single pseudo-measurement: a
weighted mean position and an associated covariance. Weights are Gaussian
likelihoods of each candidate under the predicted platform position,
computed in the log domain to survive large Mahalanobis distances.

The kernels work on a :class:`ScanStack`, the candidate sets of a batch of
scans at once, so that the batch tracker weights and fuses a whole batch
with one stacked call per candidate count. The stack is the one layout of a
batch: it also carries each candidate's position-noise covariance, the
first iteration's measurement covariance and the row of each scan, all
built once per batch. :func:`candidate_weights` is the one-scan case of
:func:`stack_weights`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import PmhtParams
from .errors import NumericalError
from .geomap import CandidateSet

__all__ = [
    "FarCandidateWarning",
    "ScanStack",
    "position_noise_cov",
    "stack_weights",
    "stack_fuse",
    "candidate_weights",
]

# Condition number beyond which a measurement covariance gets re-regularized.
_COND_LIMIT = 1e12
# Natural log of the smallest positive subnormal double; below this a raw
# Gaussian density evaluates to exactly zero.
_LOG_TINY = -744.44
# The 2x2 identity every position-noise covariance scales; read-only, shared.
_EYE2 = np.eye(2)
_EYE2.flags.writeable = False


class FarCandidateWarning(RuntimeWarning):
    """All candidate likelihoods underflowed; weights fell back to uniform."""


@dataclass(frozen=True, eq=False)
class ScanStack:
    """The non-empty candidate sets of a batch of scans, grouped by count.

    Row ``r`` stands for scan ``scans[r]``, and ``row_of`` maps each scan
    back to its row, -1 for an empty scan. Rows run in ascending order of
    candidate count, equal counts in scan order. Each group is a run of
    ``rows`` whose scans hold the same number ``n`` of candidates, with their
    ``locations`` in one ``(rows, n, 2)`` array and the position-noise
    covariance of each candidate (:func:`position_noise_cov`) in one
    ``(rows, n, 2, 2)`` array. ``first_cov`` holds each row's
    candidate-averaged noise covariance, the measurement covariance of the
    tracker's first iteration.

    Every reduction over candidates runs on exactly ``n`` entries: numpy's
    sums and the BLAS dot and triangular solves choose their operation order
    by length, so zero padding to a common length would change the last bit
    of the results. Sums over candidates run as ``np.add.accumulate``,
    which adds left to right in candidate order.
    """

    scans: np.ndarray
    row_of: np.ndarray
    groups: tuple[tuple[slice, np.ndarray, np.ndarray], ...]
    first_cov: np.ndarray

    @classmethod
    def build(cls, candidate_sets, grad_floor: float = PmhtParams.grad_floor) -> "ScanStack":
        sets = list(candidate_sets)
        counts = np.array([len(cs) for cs in sets], dtype=int)
        nonempty = np.flatnonzero(counts)
        scans = nonempty[np.argsort(counts[nonempty], kind="stable")]
        row_of = np.full(len(sets), -1)
        row_of[scans] = np.arange(len(scans))
        groups = []
        first_cov = np.empty((len(scans), 2, 2))
        start = 0
        for size in np.unique(counts[scans], return_counts=True)[1]:
            rows = slice(start, start + int(size))
            members = [sets[t] for t in scans[rows]]
            noise_covs = np.array([[position_noise_cov(cs.sigma, g, grad_floor)
                                    for g in cs.grads] for cs in members])
            first_cov[rows] = np.add.accumulate(noise_covs, axis=1)[:, -1] / len(members[0])
            groups.append((rows, np.array([cs.locations for cs in members]), noise_covs))
            start = rows.stop
        return cls(scans=scans, row_of=row_of, groups=tuple(groups), first_cov=first_cov)

    def __len__(self) -> int:
        return len(self.scans)


def position_noise_cov(sigma: float, grad, grad_floor: float) -> np.ndarray:
    """Isotropic position covariance implied by field noise on a map slope.

    First-order propagation: a field error of one sigma moves the matched
    position by ``sigma / |grad|`` meters along the slope. The gradient norm
    is floored so flat map patches yield a large but finite covariance.
    """
    g = np.asarray(grad, dtype=float)
    # one dot product and a correctly rounded square root: np.linalg.norm's arithmetic
    scale = sigma / max(math.sqrt(g.dot(g)), grad_floor)
    return (scale * scale) * _EYE2


def _regularize_cov(cov: np.ndarray) -> np.ndarray:
    """Symmetrize a stack of covariances, adding jitter where ill-conditioned;
    one still not positive definite raises :class:`NumericalError`."""
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    eigs = np.linalg.eigvalsh(cov)
    lo = eigs.min(axis=-1)
    bad = (lo <= 0) | (eigs.max(axis=-1) / np.maximum(lo, 1e-300) > _COND_LIMIT)
    if bad.any():
        fix = cov[bad]
        jitter = 1e-9 * np.trace(fix, axis1=-2, axis2=-1) / 2.0
        cov[bad] = fix + jitter[:, None, None] * np.eye(cov.shape[-1])
        eigs[bad] = np.linalg.eigvalsh(cov[bad])
    not_pd = np.flatnonzero(eigs.min(axis=-1) <= 0)
    if not_pd.size:
        raise NumericalError(
            f"measurement covariance not positive definite (eigs {eigs[not_pd[0]]})")
    return cov


def stack_weights(stack: ScanStack, predicted_pos, meas_cov) -> list[np.ndarray]:
    """Normalized association weights of every row of ``stack``.

    ``predicted_pos`` is ``(L, 2)`` and ``meas_cov`` ``(L, 2, 2)``, one per
    row. Returns one ``(rows, n)`` weight array per group. Weight i of a row
    is proportional to ``N(z_i; predicted_pos, meas_cov)``. Should every raw
    density of a row underflow to zero, that row falls back to uniform
    weights and a :class:`FarCandidateWarning` is emitted.
    """
    cov = _regularize_cov(np.asarray(meas_cov, dtype=float))
    pred = np.asarray(predicted_pos, dtype=float)
    chol = np.linalg.cholesky(cov)
    out = []
    for rows, locs, _ in stack.groups:
        diffs = locs - pred[rows, None, :]
        white = np.linalg.solve(chol[rows], np.swapaxes(diffs, 1, 2))
        logw = -0.5 * np.sum(white ** 2, axis=1)
        peak = logw.max(axis=1)
        far = ~np.isfinite(peak) | (peak < _LOG_TINY)
        w = np.exp(logw - np.where(far, 0.0, peak)[:, None])
        if far.any():
            warnings.warn(
                "all candidate likelihoods numerically zero; using uniform weights",
                FarCandidateWarning,
                stacklevel=2,
            )
            w[far] = 1.0
        out.append(w / w.sum(axis=1, keepdims=True))
    return out


def stack_fuse(stack: ScanStack, weights, spread_cov: bool) -> tuple[np.ndarray, np.ndarray]:
    """Collapse every row of ``stack`` into one pseudo-measurement.

    ``weights`` holds one ``(rows, n)`` array per group. Returns the fused
    positions ``(L, 2)`` and covariances ``(L, 2, 2)`` by row. Position is
    the weighted mean of candidate locations; covariance is the weighted
    average of the candidates' noise covariances. With ``spread_cov`` the
    weighted scatter of the candidates about the mean is added, which guards
    against overconfident fixes when the window is multi-modal.
    """
    positions = np.empty((len(stack), 2))
    covs = np.empty((len(stack), 2, 2))
    for (rows, locs, noise_covs), w in zip(stack.groups, weights):
        total = w.sum(axis=1)
        off = np.flatnonzero(np.abs(total - 1.0) > 1e-6)
        if off.size:
            raise ValueError(f"weights must sum to 1, got {total[off[0]]}")
        z_bar = np.matmul(w[:, None, :], locs)[:, 0]
        weighted = np.add.accumulate(w[:, :, None, None] * noise_covs, axis=1)[:, -1]
        r_bar = weighted / total[:, None, None]
        if spread_cov:
            d = locs - z_bar[:, None, :]
            r_bar = r_bar + np.matmul(np.swapaxes(w[:, :, None] * d, 1, 2), d)
        positions[rows] = z_bar
        covs[rows] = 0.5 * (r_bar + np.swapaxes(r_bar, 1, 2))
    return positions, covs


def candidate_weights(candidates: CandidateSet, predicted_pos, meas_cov) -> np.ndarray:
    """Normalized association weights for each candidate of one scan.

    The one-scan case of :func:`stack_weights`; an empty set has empty weights.
    """
    if len(candidates) == 0:
        return np.empty(0)
    pred = np.asarray(predicted_pos, dtype=float)[None]
    cov = np.asarray(meas_cov, dtype=float)[None]
    return stack_weights(ScanStack.build([candidates]), pred, cov)[0][0]
