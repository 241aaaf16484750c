"""Independent reference implementations the tests check the library against.

Everything here is deliberately written from the defining equations (stacked
least squares, textbook Kalman recursions, double loops) rather than reusing
library code paths. Four exceptions: :func:`em_cost_trace`, which replays
the tracker's own EM step to score each iteration, :func:`ukf_predict_one`,
the nav filter's one-belief predict kept as it was before the seed axis,
:func:`box_lookup_candidates`, the candidate lookup kept as it was before it
tested values first, and :func:`point_value_at`, the map interpolation kept
as it was before it took arrays of points.
"""

import math
import warnings

import numpy as np

from gravnav.assoc import ScanStack
from gravnav.errors import NodataError, NumericalError, OutOfBoundsError
from gravnav.fusion import NavBelief, _process_noise, _unscented_weights
from gravnav.geomap import CandidateSet, GridMap, _cell_gradients, _no_gradient, plain_point
from gravnav.pmht import em_step, run_batch


# --- linear-Gaussian batch smoothing -------------------------------------

def batch_map_solution(x0, p0, f_mat, q_mat, h_mat, zs, rs):
    """MAP trajectory of the linear-Gaussian batch by stacked normal equations.

    Minimizes the prior term at scan 1, the dynamics terms between scans, and
    measurement terms for scans 2..T (``zs[0]`` is ignored to mirror the
    filter convention that the prior already represents the scan-1
    posterior; pass ``None`` for scans without a measurement).

    Returns (means, covs): per-scan 4-vectors and the 4x4 diagonal blocks of
    the inverse normal-equation matrix (the smoothed marginal covariances).
    """
    t_len = len(zs)
    nx = x0.size
    big = np.zeros((t_len * nx, t_len * nx))
    rhs = np.zeros(t_len * nx)

    p0_inv = np.linalg.inv(p0)
    big[:nx, :nx] += p0_inv
    rhs[:nx] += p0_inv @ x0

    q_inv = np.linalg.inv(q_mat)
    for t in range(t_len - 1):
        a = slice(t * nx, (t + 1) * nx)
        b = slice((t + 1) * nx, (t + 2) * nx)
        big[a, a] += f_mat.T @ q_inv @ f_mat
        big[a, b] += -f_mat.T @ q_inv
        big[b, a] += -q_inv @ f_mat
        big[b, b] += q_inv

    for t in range(1, t_len):
        if zs[t] is None:
            continue
        r_inv = np.linalg.inv(rs[t])
        a = slice(t * nx, (t + 1) * nx)
        big[a, a] += h_mat.T @ r_inv @ h_mat
        rhs[t * nx:(t + 1) * nx] += h_mat.T @ r_inv @ zs[t]

    solution = np.linalg.solve(big, rhs)
    inv = np.linalg.inv(big)
    means = [solution[t * nx:(t + 1) * nx] for t in range(t_len)]
    covs = [inv[t * nx:(t + 1) * nx, t * nx:(t + 1) * nx] for t in range(t_len)]
    return means, covs


def kalman_rts(x0, p0, f_mat, q_mat, h_mat, zs, rs):
    """Textbook forward Kalman filter + RTS smoother.

    The state at scan 1 is the prior posterior; measurements apply from scan
    2 on (``None`` entries are prediction-only). Returns smoothed means and
    covariances.
    """
    t_len = len(zs)
    xs = [x0.copy()]
    ps = [p0.copy()]
    x_preds, p_preds = [], []
    for t in range(1, t_len):
        x_pred = f_mat @ xs[-1]
        p_pred = f_mat @ ps[-1] @ f_mat.T + q_mat
        x_preds.append(x_pred)
        p_preds.append(p_pred)
        if zs[t] is None:
            xs.append(x_pred)
            ps.append(p_pred)
            continue
        s_mat = h_mat @ p_pred @ h_mat.T + rs[t]
        gain = p_pred @ h_mat.T @ np.linalg.inv(s_mat)
        xs.append(x_pred + gain @ (zs[t] - h_mat @ x_pred))
        ps.append(p_pred - gain @ h_mat @ p_pred)

    sm_x = [None] * t_len
    sm_p = [None] * t_len
    sm_x[-1] = xs[-1]
    sm_p[-1] = ps[-1]
    for t in range(t_len - 2, -1, -1):
        gain = ps[t] @ f_mat.T @ np.linalg.inv(p_preds[t])
        sm_x[t] = xs[t] + gain @ (sm_x[t + 1] - x_preds[t])
        sm_p[t] = ps[t] + gain @ (sm_p[t + 1] - p_preds[t]) @ gain.T
    return sm_x, sm_p


def em_cost_trace(problem):
    """Weighted fit cost of each EM iteration of ``run_batch(problem)``.

    Replays :func:`em_step` from the prior mean rolled forward through the
    model, stopping as ``run_batch`` does: when no scan's position moves
    more than ``params.epsilon`` between iterates, or at ``params.max_iters``.
    An iteration's cost sums, over the scans in time order, the weighted
    squared Mahalanobis distances of the scan's candidates from the one-step
    predicted position that fed the association step (scan 0 from the prior,
    scan t from state t-1 of the iterate), in the metric of the scan's fused
    covariance. Asserts that the replay ends on ``run_batch``'s estimate bit
    for bit, so the trace cannot drift from the tracker.
    """
    f_mat = problem.model[0]
    t_len = problem.batch_len
    current = [problem.prior_mean]
    for _ in range(t_len - 1):
        current.append(f_mat @ current[-1])
    current = np.array(current)
    row_of = {int(t): r for r, t in enumerate(ScanStack.build(problem.scans).scans)}
    fused_cov = None
    costs = []
    for _ in range(problem.params.max_iters):
        step = em_step(problem, current, fused_cov)
        xs, fused_cov, weights = step.means, step.fused_covs, step.weights
        total = 0.0
        for t in sorted(row_of):
            r = row_of[t]
            prev = problem.prior_mean if t == 0 else f_mat @ current[t - 1]
            diffs = problem.scans[t].locations - prev[:2]
            sinv = np.linalg.inv(fused_cov[r])
            total += float(weights[r] @ np.einsum("ni,ij,nj->n", diffs, sinv, diffs))
        costs.append(total)
        residual = max(float(np.linalg.norm(d)) for d in xs[:, :2] - current[:, :2])
        current = xs
        if residual <= problem.params.epsilon:
            break
    est = run_batch(problem)
    assert est.iterations_used == len(costs)
    assert np.array_equal(current, est.means) and np.array_equal(step.smoothed_covs, est.covs)
    return np.array(costs)


# --- 6-state navigation Kalman filter -------------------------------------

def nav_transition(dt):
    """F and B of the planar dead-reckoning error model: x' = F x + B a."""
    f_mat = np.eye(6)
    f_mat[0, 2] = f_mat[1, 3] = dt
    f_mat[0, 4] = f_mat[1, 5] = -0.5 * dt * dt
    f_mat[2, 4] = f_mat[3, 5] = -dt
    b_mat = np.zeros((6, 2))
    b_mat[0, 0] = b_mat[1, 1] = 0.5 * dt * dt
    b_mat[2, 0] = b_mat[3, 1] = dt
    return f_mat, b_mat


def nav_process_noise(dt, q_accel, bias_psd):
    q = np.zeros((6, 6))
    for p, v in ((0, 2), (1, 3)):
        q[p, p] = q_accel * dt ** 3 / 3.0
        q[p, v] = q[v, p] = q_accel * dt ** 2 / 2.0
        q[v, v] = q_accel * dt
    q[4, 4] = q[5, 5] = bias_psd * dt
    return q


def nav_kf_predict(x, p, accel, dt, q_accel, bias_psd):
    f_mat, b_mat = nav_transition(dt)
    x_new = f_mat @ x + b_mat @ np.asarray(accel, dtype=float)
    p_new = f_mat @ p @ f_mat.T + nav_process_noise(dt, q_accel, bias_psd)
    return x_new, 0.5 * (p_new + p_new.T)


def nav_kf_update(x, p, z, r):
    h_mat = np.zeros((2, 6))
    h_mat[0, 0] = h_mat[1, 1] = 1.0
    s_mat = h_mat @ p @ h_mat.T + r
    gain = p @ h_mat.T @ np.linalg.inv(s_mat)
    x_new = x + gain @ (z - h_mat @ x)
    p_new = p - gain @ s_mat @ gain.T
    return x_new, 0.5 * (p_new + p_new.T)


# --- one-belief unscented predict -----------------------------------------
# The bodies of ``fusion._sigma_points`` and ``fusion.ukf_predict`` as they
# were for one belief (state (6,), cov (6, 6)), before the seed axis. The
# stacked predict must give every seed these bits, regularization included.

def _sigma_points_one(x, cov, alpha, beta, kappa):
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


def ukf_predict_one(belief, indicated_accel, dt, params):
    if not dt > 0:
        raise ValueError("dt must be positive")
    a = np.asarray(indicated_accel, dtype=float)
    points, wm, wc = _sigma_points_one(belief.state, belief.cov, params.alpha,
                                       params.beta, params.kappa)
    pos, vel, bias = points[:, 0:2], points[:, 2:4], points[:, 4:6]
    acc = a - bias
    prop = np.empty_like(points)
    prop[:, 0:2] = pos + vel * dt + 0.5 * acc * dt * dt
    prop[:, 2:4] = vel + acc * dt
    prop[:, 4:6] = bias
    mean = wm @ prop
    dev = prop - mean
    cov = (wc[:, None] * dev).T @ dev + _process_noise(dt, params.q_accel, params.bias_psd)
    return NavBelief(state=mean, cov=0.5 * (cov + cov.T), time=belief.time + dt)


# --- dead reckoning --------------------------------------------------------

def dead_reckon(truth, accels):
    """Positions and velocities of an INS that starts on ``truth`` and
    integrates its ``(n - 1, 2)`` indicated ``accels``: constant acceleration
    over each step."""
    dt = truth.dt
    velocities = np.empty((len(truth), 2))
    velocities[0] = truth.velocities[0]
    velocities[1:] = truth.velocities[0] + np.cumsum(accels * dt, axis=0)
    positions = np.empty((len(truth), 2))
    positions[0] = truth.positions[0]
    increments = velocities[:-1] * dt + 0.5 * accels * dt * dt
    positions[1:] = truth.positions[0] + np.cumsum(increments, axis=0)
    return positions, velocities


# --- map statistics --------------------------------------------------------

def brute_variability(values, row, col, half_width):
    """Double-loop mean squared deviation around a cell, template clipped."""
    rows, cols = values.shape
    center = values[row, col]
    total = 0.0
    count = 0
    for r in range(max(row - half_width, 0), min(row + half_width, rows - 1) + 1):
        for c in range(max(col - half_width, 0), min(col + half_width, cols - 1) + 1):
            if r == row and c == col:
                continue
            total += (center - values[r, c]) ** 2
            count += 1
    return total / count


def point_value_at(grid: GridMap, pos) -> float:
    """:func:`gravnav.geomap.value_at` as it was before it took arrays of
    points, kept verbatim: one point, Python scalar arithmetic."""
    if not grid.in_bounds(pos):
        raise OutOfBoundsError(f"position {plain_point(pos)} outside map extent {grid.extent}")
    x0, y0 = grid.origin
    h = grid.cell_size
    gx = (float(pos[0]) - x0) / h - 0.5
    gy = (float(pos[1]) - y0) / h - 0.5  # fractional row index counted from the south
    gx = min(max(gx, 0.0), grid.n_cols - 1.0)
    gy = min(max(gy, 0.0), grid.n_rows - 1.0)
    c0 = min(int(gx), grid.n_cols - 2)
    s0 = min(int(gy), grid.n_rows - 2)
    fx = gx - c0
    fy = gy - s0
    r_lo = grid.n_rows - 1 - s0        # array row of the southern pair
    r_hi = grid.n_rows - 1 - (s0 + 1)  # array row of the northern pair
    v = grid.values
    corners = (v[r_lo, c0], v[r_lo, c0 + 1], v[r_hi, c0], v[r_hi, c0 + 1])
    if any(c == grid.nodata for c in corners):
        raise NodataError(f"nodata cell touches interpolation stencil at {plain_point(pos)}")
    sw, se, nw, ne = corners
    return float((1 - fy) * ((1 - fx) * sw + fx * se) + fy * ((1 - fx) * nw + fx * ne))


def cell_gradient(values, row, col, h):
    """(d/dEast, d/dNorth) of one cell by central differences, one-sided at edges.

    Scalar arithmetic in the order of the per-cell gradient, so vectorized
    code must match it bit for bit. Row 0 is the northern edge.
    """
    rows, cols = values.shape
    c_lo, c_hi = max(col - 1, 0), min(col + 1, cols - 1)
    r_n, r_s = max(row - 1, 0), min(row + 1, rows - 1)
    gx = (values[row, c_hi] - values[row, c_lo]) / ((c_hi - c_lo) * h)
    gy = (values[r_n, col] - values[r_s, col]) / ((r_s - r_n) * h)
    return np.array([gx, gy])


def box_lookup_candidates(
    grid: GridMap,
    value: float,
    sigma: float,
    prior_mean,
    prior_cov,
    gamma: float,
    n_max: int,
    k_sig: float,
) -> CandidateSet:
    """:func:`gravnav.geomap.lookup_candidates` as it was before it tested
    values first, kept verbatim but for the gradient helpers it calls: it
    copies the whole gate box, forms the ellipse's quadratic form at every
    cell of it and takes the gradient of every cell that passes."""
    cx, cy = np.asarray(prior_mean, dtype=float)
    cov = np.asarray(prior_cov, dtype=float)
    eigvals = np.linalg.eigvalsh(0.5 * cov + 0.5 * cov.T)
    if not (math.isfinite(cx) and math.isfinite(cy) and eigvals.min() > 0):
        # eigvalsh gives NaN for a covariance that is not finite
        raise NumericalError(f"position prior {plain_point((cx, cy))} is not finite or its "
                             f"covariance not positive definite (eigs {plain_point(eigvals)})")
    x0, y0 = grid.origin
    h = grid.cell_size
    with np.errstate(over="ignore"):  # an infinite box, clamped to the map, covers it
        hx, hy = np.sqrt(gamma * np.diag(cov))
        c_lo = math.ceil(min(max((cx - hx - x0) / h - 0.5, 0.0), grid.n_cols))
        c_hi = math.floor(min(max((cx + hx - x0) / h - 0.5, -1.0), grid.n_cols - 1.0))
        s_lo = math.ceil(min(max((cy - hy - y0) / h - 0.5, 0.0), grid.n_rows))
        s_hi = math.floor(min(max((cy + hy - y0) / h - 0.5, -1.0), grid.n_rows - 1.0))
    if c_lo > c_hi or s_lo > s_hi:
        return CandidateSet.empty(value, sigma)

    cols = np.arange(c_lo, c_hi + 1)
    srows = np.arange(s_lo, s_hi + 1)
    rows = grid.n_rows - 1 - srows
    xs = x0 + (cols + 0.5) * h
    ys = y0 + (srows + 0.5) * h
    vals = grid.values[np.ix_(rows, cols)]

    live = np.isfinite(vals) & (vals != grid.nodata)
    resid = np.abs(vals - value)
    ok = live & (resid <= k_sig * sigma)

    # Ellipsoidal gate inside the rectangle (stricter than the rectangle alone).
    gx, gy = np.meshgrid(xs - cx, ys - cy, indexing="xy")
    sinv = np.linalg.inv(cov)
    quad = (sinv[0, 0] * gx * gx + (sinv[0, 1] + sinv[1, 0]) * gx * gy
            + sinv[1, 1] * gy * gy)
    ok &= quad <= gamma

    si, ci = np.nonzero(ok)
    grads = _cell_gradients(grid, rows[si], cols[ci])
    no_grad = _no_gradient(grid, rows[si], cols[ci])
    si, ci, grads = si[~no_grad], ci[~no_grad], grads[~no_grad]
    locs = np.column_stack([xs[ci], ys[si]])
    residuals = resid[si, ci]
    dists = np.hypot(locs[:, 0] - cx, locs[:, 1] - cy)
    arr_rows = rows[si]
    arr_cols = cols[ci]
    rowmajor = arr_rows * grid.n_cols + arr_cols
    order = np.lexsort((rowmajor, dists, residuals))[: int(n_max)]
    cells = np.column_stack([arr_rows[order], arr_cols[order]])
    return CandidateSet(locs[order], grads[order], residuals[order], cells,
                        float(value), float(sigma))


def gaussian_weights(points, center, cov):
    """Directly evaluated normalized Gaussian densities."""
    inv = np.linalg.inv(cov)
    det = np.linalg.det(cov)
    dens = []
    for pt in points:
        d = np.asarray(pt, dtype=float) - center
        dens.append(np.exp(-0.5 * d @ inv @ d) / (2.0 * np.pi * np.sqrt(det)))
    dens = np.array(dens)
    return dens / dens.sum()
