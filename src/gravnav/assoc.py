"""Probabilistic data association of gated map candidates.

Collapses an ambiguous candidate set into a single pseudo-measurement: a
weighted mean position and an associated covariance. Weights are Gaussian
likelihoods of each candidate under the predicted platform position,
computed in the log domain to survive large Mahalanobis distances.

The kernels work on a :class:`ScanStack`, the candidate sets of many scans
at once, so that the batch tracker weights and fuses a whole batch with one
stacked call per candidate count. :func:`candidate_weights` and
:func:`pda_fuse` are the one-scan case of :func:`stack_weights` and
:func:`stack_fuse`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CovarianceError, NoFixError
from .geomap import CandidateSet

__all__ = [
    "PdaResult",
    "FarCandidateWarning",
    "ScanStack",
    "position_noise_cov",
    "stack_weights",
    "stack_fuse",
    "candidate_weights",
    "pda_fuse",
]

# Condition number beyond which a measurement covariance gets re-regularized.
_COND_LIMIT = 1e12
# Natural log of the smallest positive subnormal double; below this a raw
# Gaussian density evaluates to exactly zero.
_LOG_TINY = -744.44


class FarCandidateWarning(RuntimeWarning):
    """All candidate likelihoods underflowed; weights fell back to uniform."""


@dataclass(frozen=True)
class PdaResult:
    """Fused pseudo-measurement produced from one candidate set."""

    fused_position: np.ndarray
    fused_cov: np.ndarray
    weights: np.ndarray
    n_candidates: int

    def __post_init__(self):
        object.__setattr__(self, "fused_position", np.asarray(self.fused_position, dtype=float))
        object.__setattr__(self, "fused_cov", np.asarray(self.fused_cov, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


@dataclass(frozen=True, eq=False)
class ScanStack:
    """The non-empty candidate sets of several scans, grouped by count.

    Row ``r`` stands for scan ``scans[r]``; rows run in ascending order of
    candidate count, equal counts in scan order. Each group is a run of rows
    whose scans hold the same number ``n`` of candidates, with their
    locations in one ``(rows, n, 2)`` array. Every reduction over candidates
    therefore runs on exactly ``n`` entries: numpy's sums and the BLAS dot
    and triangular solves choose their operation order by length, so zero
    padding to a common length would change the last bit of the results.
    """

    scans: np.ndarray
    groups: tuple[tuple[slice, np.ndarray], ...]

    @classmethod
    def build(cls, candidate_sets) -> "ScanStack":
        sets = list(candidate_sets)
        counts = np.array([len(cs) for cs in sets], dtype=int)
        nonempty = np.flatnonzero(counts)
        scans = nonempty[np.argsort(counts[nonempty], kind="stable")]
        groups = []
        start = 0
        for size in np.unique(counts[scans], return_counts=True)[1]:
            rows = slice(start, start + int(size))
            groups.append((rows, np.array([sets[t].locations for t in scans[rows]])))
            start = rows.stop
        return cls(scans=scans, groups=tuple(groups))

    def __len__(self) -> int:
        return len(self.scans)


def position_noise_cov(sigma: float, grad, grad_floor: float = 1e-9) -> np.ndarray:
    """Isotropic position covariance implied by field noise on a map slope.

    First-order propagation: a field error of one sigma moves the matched
    position by ``sigma / |grad|`` meters along the slope. The gradient norm
    is floored so flat map patches yield a large but finite covariance.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not grad_floor > 0:
        raise ValueError("grad_floor must be positive")
    g = float(np.linalg.norm(np.asarray(grad, dtype=float)))
    scale = sigma / max(g, grad_floor)
    return (scale * scale) * np.eye(2)


def _regularize_cov(cov: np.ndarray) -> np.ndarray:
    """Symmetrize a stack of covariances, adding jitter where ill-conditioned."""
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
        raise CovarianceError(
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
    for rows, locs in stack.groups:
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


def stack_fuse(stack: ScanStack, weights, per_candidate_cov,
               spread_cov: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Collapse every row of ``stack`` into one pseudo-measurement.

    ``weights`` and ``per_candidate_cov`` hold one ``(rows, n)`` and one
    ``(rows, n, 2, 2)`` array per group. Returns the fused positions
    ``(L, 2)`` and covariances ``(L, 2, 2)`` by row. Position is the weighted
    mean of candidate locations; covariance is the weighted average of the
    per-candidate covariances. With ``spread_cov`` the weighted scatter of
    the candidates about the mean is added, which guards against
    overconfident fixes when the window is multi-modal.
    """
    positions = np.empty((len(stack), 2))
    covs = np.empty((len(stack), 2, 2))
    for (rows, locs), w, cand_cov in zip(stack.groups, weights, per_candidate_cov):
        total = w.sum(axis=1)
        off = np.flatnonzero(np.abs(total - 1.0) > 1e-6)
        if off.size:
            raise ValueError(f"weights must sum to 1, got {total[off[0]]}")
        z_bar = np.matmul(w[:, None, :], locs)[:, 0]
        weighted = w[:, :, None, None] * cand_cov
        # Added in candidate order; a numpy sum over the axis may pair terms
        # differently and change the last bit.
        r_bar = sum(weighted[:, j] for j in range(w.shape[1])) / total[:, None, None]
        if spread_cov:
            d = locs - z_bar[:, None, :]
            r_bar = r_bar + np.matmul(np.swapaxes(w[:, :, None] * d, 1, 2), d)
        positions[rows] = z_bar
        covs[rows] = 0.5 * (r_bar + np.swapaxes(r_bar, 1, 2))
    return positions, covs


def candidate_weights(candidates: CandidateSet, predicted_pos, meas_cov) -> np.ndarray:
    """Normalized association weights for each candidate of one scan.

    The one-scan case of :func:`stack_weights`.
    """
    if len(candidates) == 0:
        raise NoFixError("cannot weight an empty candidate set")
    pred = np.asarray(predicted_pos, dtype=float)[None]
    cov = np.asarray(meas_cov, dtype=float)[None]
    return stack_weights(ScanStack.build([candidates]), pred, cov)[0][0]


def pda_fuse(
    candidates: CandidateSet,
    weights,
    per_candidate_cov,
    spread_cov: bool = False,
) -> PdaResult:
    """Collapse one scan's candidates into a pseudo-measurement.

    The one-scan case of :func:`stack_fuse`.
    """
    n = len(candidates)
    if n == 0:
        raise NoFixError("cannot fuse an empty candidate set")
    w = np.asarray(weights, dtype=float)
    covs = np.asarray(per_candidate_cov, dtype=float)
    if len(w) != n or len(covs) != n:
        raise ValueError("weights and per-candidate covariances must match the candidate count")
    positions, fused = stack_fuse(ScanStack.build([candidates]), [w[None]], [covs[None]],
                                  spread_cov)
    return PdaResult(fused_position=positions[0], fused_cov=fused[0], weights=w,
                     n_candidates=n)
