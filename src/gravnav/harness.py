"""End-to-end scenarios: synthetic maps, single runs, Monte Carlo campaigns.

A run wires the full aiding loop together: dead reckoning at 1 Hz drives the
navigation belief, the field sensor samples the map every few seconds, each
sample is gated into a candidate set around the current belief, and every T
scans a batch is smoothed and fed back as position fixes.

Only an aided run reads the map's values, so only an aided run or campaign
builds the map (:func:`build_grid`). An unaided one dead-reckons alone and
reads just the map's geometry, to check that its route stays on the map: a
grid file's header, or the generator's origin, cell size and shape. That
extent has the bits of the built grid's (:func:`.geomap.grid_extent`).

Runs go in blocks of seeds (:func:`run_block`). Every seed of a block flies
the same truth route and scans at the same steps, so the block simulates the
truth once, reads the map along it once (one map value per scan; each seed
adds its own gravimeter noise) and keeps the nav beliefs of its seeds as one
stack with a leading seed axis, row i for seed i: one stacked predict per
second moves them all. A seed that fails keeps its row and is only marked.
Lookup, association, the batch smoother, variability and the fix updates
stay per seed, and so does the retrodiction replay, as an R = 1 stack. Stacked
numpy ``cholesky`` and ``matmul`` give each seed the bits of its own run as
long as every operand keeps its per-matrix C order (see :mod:`.fusion`),
so a seed's outputs do not depend on which block it runs in; a single run
(:func:`run_scenario`) is the block of one seed.

A campaign splits its seeds into ``min(jobs, runs, usable CPUs)``
contiguous blocks, one per worker process (one block at ``--jobs 1``), and
aggregates the error metrics keyed and ordered by seed, so reports are
byte-stable for any worker count.

A synthetic map (:func:`gen_synthetic_map`) is built in place in one
map-sized array. Each of its passes (column strips of the smoothing, then
row blocks of the smoothing and of the bump sum) is split over at most
``_MAX_MAP_WORKERS`` threads by :func:`_in_blocks`, and the map has the
same bits at any thread count.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    INS_DT,
    FusionParams,
    MapGenParams,
    ScenarioConfig,
    config_hash,
)
from .errors import ConfigError, NumericalError
from .fusion import AidingEpoch, NavBelief, apply_batch, ukf_predict
from .geomap import (
    CandidateSet,
    GridMap,
    feature_variability,
    grid_extent,
    load_grid,
    lookup_candidates,
    normalize_variability,
    read_grid_extent,
    value_at,
)
from .inertial import SENSOR_GRADES, SensorGrade, sample_gravimeter, simulate_ins, simulate_truth
from .pmht import BatchProblem, run_batch

__all__ = [
    "RunReport",
    "CampaignReport",
    "gen_synthetic_map",
    "build_grid",
    "run_block",
    "run_scenario",
    "detect_divergence",
    "run_campaign",
    "write_campaign_outputs",
    "write_run_csv",
]

_BLOCK_ROWS = 16  # rows per block of the map build: a few hundred kB stays in cache
# Columns per strip of the smoothing's axis-0 pass. The strip is filtered into
# a contiguous buffer: 128 timed best of 32 to 512 on the corridor map.
_STRIP_COLS = 128
_SUM_LEAF = 1 << 16  # elements per chunk of the map's std: 512 kB of float64
# Most threads of the map build. Its numpy calls are short (20-50k elements),
# so threads also queue for the interpreter lock between calls: two threads
# build the corridor map about 1.35x as fast as one on a 2-CPU host, and no
# count above two has been timed on a host with more CPUs.
_MAX_MAP_WORKERS = 2


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _map_workers() -> int:
    """Threads for the map build: :func:`_usable_cpus`, at most
    ``_MAX_MAP_WORKERS``."""
    return min(_usable_cpus(), _MAX_MAP_WORKERS)


def _in_blocks(n: int, block: int, job) -> None:
    """Split ``[0, n)`` into one run ``(a, b)`` of whole ``block``-sized
    blocks per worker, with :func:`_map_workers` workers but no more than
    blocks, and call ``job(a, b)`` on each.

    The calling thread does the first run and a thread each does the rest;
    the threads are joined before this returns, and the first exception a
    run raised is raised here. Each thread runs in a copy of the caller's
    context, so the caller's numpy error state holds there too.

    ``job`` must call no name in a module's ``__all__``: perfbench's tracer
    wraps those names and keeps one span stack, which threads would corrupt.
    """
    n_blocks = -(-n // block)
    workers = max(1, min(_map_workers(), n_blocks))
    cuts = [min(i * n_blocks // workers * block, n) for i in range(workers + 1)]
    (a0, b0), *rest = zip(cuts[:-1], cuts[1:])
    errors: list[Exception] = []

    def run(a: int, b: int) -> None:
        try:
            job(a, b)
        except Exception as exc:  # raised again by the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, a, b))
               for a, b in rest]
    for thread in threads:
        thread.start()
    try:
        job(a0, b0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _reflected(n: int, radius: int) -> np.ndarray:
    """The cell, of ``n``, behind each cell of their padding by ``radius``.

    This is ``np.pad(np.arange(n), radius, mode="symmetric")``, including its
    repeated reflection when ``n`` is less than ``radius``: the padded line
    continues the ``n`` cells with period ``2n``, every other period reversed.
    """
    i = np.arange(-radius, n + radius) % (2 * n)
    return np.minimum(i, 2 * n - 1 - i)


def _correlate(padded: np.ndarray, taps: np.ndarray, out: np.ndarray, tmp: np.ndarray,
               axis: int) -> None:
    """Correlate ``padded`` along ``axis`` with a symmetric kernel into ``out``.

    ``padded`` has ``len(taps) - 1`` extra cells on each side of ``axis``.
    Each output is ``centre * taps[0]`` plus ``(before + after) * taps[j]``
    added from the outermost tap inwards: the order of scipy's symmetric
    ``NI_Correlate1D`` loop, so every cell gets the same bits.
    """
    radius = len(taps) - 1
    n = out.shape[axis]

    def shifted(k: int) -> np.ndarray:
        return padded[k:k + n] if axis == 0 else padded[:, k:k + n]

    np.multiply(shifted(radius), taps[0], out=out)
    for j in range(radius, 0, -1):
        np.add(shifted(radius - j), shifted(radius + j), out=tmp)
        tmp *= taps[j]
        out += tmp


def _gaussian_taps(sigma: float) -> np.ndarray:
    """Centre and right half of scipy's Gaussian kernel for ``sigma``.

    The kernel is ``exp(-0.5/sigma² · k²)`` normalised by its sum, radius
    ``int(4·sigma + 0.5)``; it is exactly symmetric, so scipy's reversal of
    it is a no-op. A ``sigma`` of at most 1e-15 gives the single tap 1.0,
    which leaves every cell as it is, as scipy does.
    """
    if not sigma > 1e-15:
        return np.ones(1)
    radius = int(4.0 * float(sigma) + 0.5)
    kernel = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    return (kernel / kernel.sum())[radius:]


def _smooth_columns(values: np.ndarray, taps: np.ndarray, a: int, b: int) -> None:
    """The axis-0 pass of the filter over columns ``[a, b)`` of ``values``,
    in place: each strip of ``_STRIP_COLS`` columns is copied out with its
    reflected row padding, filtered into a contiguous buffer and copied back."""
    rows = len(values)
    src = _reflected(rows, len(taps) - 1)
    out = np.empty((rows, _STRIP_COLS))
    tmp = np.empty((rows, _STRIP_COLS))
    for c0 in range(a, b, _STRIP_COLS):
        c1 = min(c0 + _STRIP_COLS, b)
        strip = out[:, :c1 - c0]
        _correlate(values[src, c0:c1], taps, strip, tmp[:, :c1 - c0], axis=0)
        values[:, c0:c1] = strip


def _smooth_rows(values: np.ndarray, taps: np.ndarray, a: int, b: int) -> None:
    """The axis-1 pass of the filter over rows ``[a, b)`` of ``values``, in
    place: each block of ``_BLOCK_ROWS`` rows is copied out with its
    reflected column padding and filtered back into ``values``."""
    src = _reflected(values.shape[1], len(taps) - 1)
    padded = np.empty((_BLOCK_ROWS, len(src)))
    tmp = np.empty((_BLOCK_ROWS, values.shape[1]))
    for r0 in range(a, b, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, b)
        # Every index is in range; "clip" writes straight into the buffer.
        np.take(values[r0:r1], src, axis=1, out=padded[:r1 - r0], mode="clip")
        _correlate(padded[:r1 - r0], taps, values[r0:r1], tmp[:r1 - r0], axis=1)


def _smoothed_noise(rng: np.random.Generator, rows: int, cols: int,
                    sigma: float) -> np.ndarray:
    """White noise from ``rng``, Gaussian-smoothed, bit for bit as scipy does it.

    The result is ``scipy.ndimage.gaussian_filter(rng.standard_normal((rows,
    cols)), sigma, mode="reflect")``: axis 0 is filtered first, then axis 1,
    both with reflect (numpy "symmetric") padding and scipy's kernel
    (:func:`_gaussian_taps`). The noise is drawn straight into the array
    that is returned, which gives the same stream, and is smoothed there in
    place.

    Each pass runs over the map-build workers (:func:`_in_blocks`): axis 0
    by column strips (:func:`_smooth_columns`), then axis 1 by row blocks
    (:func:`_smooth_rows`). A strip or a block reads only its own cells, so
    it can be written back in place. Every cell gets the same IEEE
    operations in the same order whichever worker computes it, so the
    result does not depend on the worker count. Besides the result, the
    build holds only a padded strip or block and its buffers per worker.
    """
    taps = _gaussian_taps(sigma)
    values = np.empty((rows, cols))
    rng.standard_normal(out=values)
    _in_blocks(cols, _STRIP_COLS, functools.partial(_smooth_columns, values, taps))
    _in_blocks(rows, _BLOCK_ROWS, functools.partial(_smooth_rows, values, taps))
    return values


def _pairwise_sum(leaf, start: int, n: int) -> float:
    """``leaf(a, b)`` added up over ``[start, start + n)`` in numpy's pairing.

    numpy adds a contiguous run of ``n > 128`` float64 elements as the sum of
    its first ``n2 = n//2 - (n//2) % 8`` elements plus the sum of the rest,
    recursively. This follows that tree down to runs of at most
    ``_SUM_LEAF`` elements; when ``leaf`` is ``np.add.reduce`` over a run,
    the result has the bits of one ``np.add.reduce`` over the whole.
    """
    if n <= _SUM_LEAF:
        return leaf(start, start + n)
    n2 = n // 2 - (n // 2) % 8
    return _pairwise_sum(leaf, start, n2) + _pairwise_sum(leaf, start + n2, n - n2)


def _chunked_std(values: np.ndarray) -> float:
    """``values.std()`` of a C-contiguous float64 array, bit for bit, with
    no temporary larger than ``_SUM_LEAF`` elements.

    numpy's ``std`` is ``sqrt(sum((x - mean)²) / n)`` with ``mean = sum(x)
    / n``, each sum one reduction over the whole array; both go through
    :func:`_pairwise_sum`, the squared deviations one leaf at a time.
    """
    flat = values.reshape(-1)
    n = flat.size
    mean = _pairwise_sum(lambda a, b: np.add.reduce(flat[a:b]), 0, n) / n

    def squared_deviations(a: int, b: int) -> float:
        dev = flat[a:b] - mean
        np.multiply(dev, dev, out=dev)
        return np.add.reduce(dev)

    return np.sqrt(_pairwise_sum(squared_deviations, 0, n) / n)


def _sum_bumps(values: np.ndarray, background: float, bumps: list, std: float,
               noise_scale: float, a: int, b: int) -> None:
    """Rows ``[a, b)`` of the map: the background plus every bump, in order,
    plus the scaled noise.

    ``bumps`` holds per bump its amplitude, ``2·width²``, first kept column,
    squared x distances over its kept columns and squared y distances. Per
    cell these are the IEEE operations, in order, of
    ``values += amp * exp(-((x - cx)**2 + (y - cy)**2) / denom)``. The buffer
    is contiguous so that ``np.exp`` takes the same SIMD path for every call.

    With a positive ``std`` the rows hold the smoothed noise: the bumps are
    summed per block in a buffer of the worker's, and each row becomes
    ``noise / std * noise_scale + bump_sum`` (IEEE addition commutes, so this
    is the bump sum plus the scaled noise). Otherwise there is no noise term
    and the bumps are summed in the rows themselves: adding zeros would turn
    a ``-0.0`` sum into ``+0.0``.
    """
    cols = values.shape[1]
    work = np.empty(_BLOCK_ROWS * cols)
    sums = np.empty((_BLOCK_ROWS, cols)) if std > 0 else None
    for r0 in range(a, b, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, b)
        rows = values[r0:r1]
        total = rows if sums is None else sums[:r1 - r0]
        total.fill(background)
        for amplitude, denom, c0, dx2, dy2 in bumps:
            buf = work[:(r1 - r0) * len(dx2)].reshape(r1 - r0, len(dx2))
            np.add(dx2[None, :], dy2[r0:r1, None], out=buf)
            np.negative(buf, out=buf)
            np.divide(buf, denom, out=buf)
            np.exp(buf, out=buf)
            np.multiply(amplitude, buf, out=buf)
            total[:, c0:c0 + len(dx2)] += buf
        if sums is not None:
            rows /= std
            rows *= noise_scale
            rows += total


def gen_synthetic_map(params: MapGenParams) -> GridMap:
    """Deterministic synthetic field: background + Gaussian bumps + noise.

    The noise term is white noise smoothed over ``noise_corr_cells`` cells
    and rescaled to unit standard deviation before multiplying by
    ``noise_scale``, so the scale parameter reads directly as a field sigma.
    The smoothing is a reflect-padded Gaussian filter that matches
    ``scipy.ndimage.gaussian_filter`` to the bit, without importing scipy
    (:func:`_smoothed_noise`).

    The map is built in one map-sized array, on the CPUs this process may
    use (at most ``_MAX_MAP_WORKERS``), each pass split into one contiguous
    run of whole blocks per worker (:func:`_in_blocks`). The white noise is
    drawn into the array and smoothed there in place. The calling thread
    then takes its ``std`` (:func:`_chunked_std`, the bits of
    ``ndarray.std()``: a reduction's pairing must not change), and the
    workers scale the noise and add the bumps block by block
    (:func:`_sum_bumps`). Every cell gets the same IEEE operations in the
    same order whichever thread computes it, so the map does not depend on
    the worker count. The workers call only private helpers and numpy,
    never a traced ``__all__`` name (:func:`_in_blocks`).

    Each bump is added only over the columns where its add can change a
    cell. Every cell stays at least ``|background| - sum(|amplitude|)``
    (less a rounding slack) in magnitude while the bumps are summed, and
    adding less than a quarter of the float spacing of that bound rounds
    back to the same value. The skipped columns are therefore provably
    unchanged, and the map is byte-identical to summing every bump over the
    whole grid. When the bound is not positive, every column is summed.

    ``params`` are a validated config's (:meth:`.ScenarioConfig.validate`).
    A map with a non-finite cell raises :class:`ConfigError` naming the
    keys that feed the cell values.
    """
    # Overflow and NaN are left for the GridMap check below to report; a
    # bump width whose square underflows divides by zero, which is harmless
    # off its centre. The map-build threads inherit this error state
    # (:func:`_in_blocks`).
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = params.cell_size
        xs = params.origin_x + (np.arange(params.cols) + 0.5) * h
        ys = params.origin_y + (params.rows - 1 - np.arange(params.rows) + 0.5) * h

        background = abs(float(params.background))
        total = sum(abs(b.amplitude) for b in params.bumps)
        # Lower bound of every |cell| during the sum, less a slack that covers
        # the rounding of each add and of this bound itself.
        floor = (background - total
                 - (len(params.bumps) + 2) * np.finfo(float).eps * (background + total))
        bumps = []
        for bump in params.bumps:
            dx2 = (xs - bump.cx) ** 2
            denom = 2.0 * bump.width ** 2
            c0, c1 = 0, params.cols
            if floor > 0 and bump.amplitude != 0:
                # Beyond this squared distance |amplitude|·exp(-dx2/denom) is
                # below spacing(floor)/4, with an e² margin for the rounding of
                # exp, log and the product; a NaN reach keeps every column.
                reach = denom * (math.log(abs(bump.amplitude) / (np.spacing(floor) / 4.0)) + 2.0)
                keep = np.flatnonzero(~(dx2 > reach))
                if keep.size == 0:
                    continue
                c0, c1 = int(keep[0]), int(keep[-1]) + 1
            bumps.append((bump.amplitude, denom, c0, dx2[c0:c1], (ys - bump.cy) ** 2))

        if params.noise_scale > 0:
            values = _smoothed_noise(np.random.default_rng(params.seed), params.rows,
                                     params.cols, params.noise_corr_cells)
            std = _chunked_std(values)
        else:
            values, std = np.empty((params.rows, params.cols)), 0.0
        _in_blocks(params.rows, _BLOCK_ROWS, functools.partial(
            _sum_bumps, values, float(params.background), bumps, std, params.noise_scale))
    try:
        return GridMap(
            origin=np.array([params.origin_x, params.origin_y]),
            cell_size=h,
            values=values,
        )
    except ValueError as exc:
        raise ConfigError(f"synthetic map: {exc}; check map.background, map.bumps, "
                          "map.origin_x/origin_y and map.noise_scale") from None


def build_grid(cfg: ScenarioConfig) -> GridMap:
    """Materialize the configured map, from file or the generator."""
    if cfg.map.file is not None:
        return load_grid(cfg.map.file)
    return gen_synthetic_map(cfg.map.gen)


def _map_extent(cfg: ScenarioConfig, grid: GridMap | None) -> tuple[float, float, float, float]:
    """The map's extent: ``grid``'s, else the configured map's from its
    geometry alone (a grid file's header, or the generator's origin, cell
    size and shape), which is the extent of the grid it would build."""
    if grid is not None:
        return grid.extent
    if cfg.map.file is not None:
        return read_grid_extent(cfg.map.file)
    gen = cfg.map.gen
    return grid_extent(gen.origin_x, gen.origin_y, gen.cell_size, gen.rows, gen.cols)


@dataclass(frozen=True)
class RunReport:
    """Per-second error series and aiding diagnostics of one run.

    ``positions`` is the reported navigation solution at each time step; in
    retrodiction mode the in-batch segment holds the replayed (smoothed)
    positions rather than the live dead-reckoned ones.
    """

    seed: int
    times: np.ndarray
    error_series: np.ndarray
    positions: np.ndarray
    aided_flags: np.ndarray
    epochs: tuple[AidingEpoch, ...]
    diverged: bool
    terminal_error: float
    failed: bool = False


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated metrics of a seeded Monte Carlo campaign."""

    times: np.ndarray
    rms_series: np.ndarray
    n_live_runs: np.ndarray
    mean_error: float
    divergence_rate: float
    seeds: tuple[int, ...]
    reports: tuple[RunReport, ...]
    config_digest: str


def _resolve_fusion(cfg: ScenarioConfig, grade_accel: SensorGrade) -> FusionParams:
    fus = cfg.fusion
    if fus.q_accel is None:
        fus = replace(fus, q_accel=grade_accel.accel_noise_density ** 2)
    return fus


def _initial_belief(cfg: ScenarioConfig, truth, grade_accel: SensorGrade) -> NavBelief:
    bias_sigma = cfg.init.bias_sigma
    if bias_sigma is None:
        bias_sigma = grade_accel.accel_bias
    state = np.concatenate([truth.positions[0], truth.velocities[0], np.zeros(2)])
    cov = np.diag([
        cfg.init.pos_sigma ** 2, cfg.init.pos_sigma ** 2,
        cfg.init.vel_sigma ** 2, cfg.init.vel_sigma ** 2,
        bias_sigma ** 2, bias_sigma ** 2,
    ])
    return NavBelief(state=state, cov=cov, time=0.0)


def _check_route(cfg: ScenarioConfig, extent: tuple[float, float, float, float]) -> None:
    """Reject a route that leaves the map's ``extent``, before the truth is
    simulated.

    The truth is ``start + t * velocity`` at every whole INS step up to the
    duration. Each coordinate of it is monotone in ``t``, rounding included,
    so the route stays on the map exactly when both of its end points do.
    """
    start = np.asarray(cfg.start, dtype=float)
    end = start + round(cfg.duration / INS_DT) * INS_DT * np.asarray(cfg.velocity, dtype=float)
    xmin, xmax, ymin, ymax = extent
    ends = np.array([start, end])
    if not ((ends[:, 0] >= xmin) & (ends[:, 0] <= xmax)
            & (ends[:, 1] >= ymin) & (ends[:, 1] <= ymax)).all():
        raise ConfigError("trajectory leaves the map extent")


class _SeedRun:
    """One seed of a block: its INS and gravimeter records, its open batch and
    its diagnostics.

    The block predicts every seed's belief together; at a scan step it hands
    each seed its own row through :meth:`scan`. ``pos`` is this seed's
    ``(n, 2)`` row of the block's position estimates. ``failed_at`` is the
    step at which the run failed, or ``None``: :meth:`report` blanks the
    estimates from there on. ``field`` is the map's value at each scan's
    true position, which the block reads once for all its seeds; a seed
    adds its own gravimeter noise. An unaided seed never scans, has no
    ``grid`` and an empty ``field``.
    """

    def __init__(self, cfg: ScenarioConfig, fus: FusionParams, grid: GridMap | None,
                 field: np.ndarray, truth, grades: tuple[SensorGrade, SensorGrade],
                 seed: int, pos: np.ndarray):
        self.cfg, self.fus, self.grid = cfg, fus, grid
        self.seed = int(seed)
        # The gravimeter has its own seed stream: its draws change no INS draw.
        seed_ins, seed_grav = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
        ins = simulate_ins(truth, *grades, seed_ins)
        self.readings = sample_gravimeter(field, cfg.gravimeter.sigma, seed_grav)
        self.accels = np.diff(ins.velocities, axis=0) / INS_DT
        self.pos = pos
        self.scans: list[CandidateSet] = []
        self.checkpoint: NavBelief | None = None
        self.var_history: list[float] = []
        self.epochs: list[AidingEpoch] = []
        self.failed_at: int | None = None

    def advance(self, bel: NavBelief, t_target: float) -> NavBelief:
        """Replay the predicts from ``bel.time`` to ``t_target`` as an R = 1 stack."""
        stack = NavBelief(state=bel.state[None], cov=bel.cov[None], time=bel.time)
        for kk in range(int(round(bel.time / INS_DT)), int(round(t_target / INS_DT))):
            stack = ukf_predict(stack, self.accels[kk:kk + 1], INS_DT, self.fus)
            self.pos[kk + 1] = stack.position[0]
        return NavBelief(state=stack.state[0], cov=stack.cov[0], time=stack.time)

    def scan(self, n: int, bel: NavBelief) -> NavBelief | None:
        """Gate reading ``n`` into the batch; close the batch when full.

        An empty gate adds an empty scan, and a batch of empty scans closes
        as an epoch without fixes; a numerical fault raises
        :class:`NumericalError`. Returns the aided belief when a batch
        closed, else ``None``.
        """
        cfg = self.cfg
        if not self.scans:
            self.checkpoint = NavBelief(state=bel.state.copy(), cov=bel.cov.copy(),
                                        time=bel.time)
        self.scans.append(lookup_candidates(self.grid, self.readings[n], cfg.gravimeter.sigma,
                                            bel.position, bel.cov[:2, :2], cfg.pmht.gamma,
                                            cfg.pmht.n_max, cfg.pmht.k_sig))
        if len(self.scans) < cfg.pmht.T:
            return None
        bel = self._close_batch(bel)
        self.scans = []
        self.checkpoint = None
        return bel

    def _close_batch(self, bel: NavBelief) -> NavBelief:
        cfg, fus, grid = self.cfg, self.fus, self.grid
        checkpoint = self.checkpoint
        problem = BatchProblem(
            prior_mean=checkpoint.state[:4],
            prior_cov=checkpoint.cov[:4, :4],
            scans=tuple(self.scans),
            params=cfg.pmht,
            dt=cfg.gravimeter.interval,
            start_time=checkpoint.time,
        )
        est = run_batch(problem)
        if est is None:  # every scan empty: an epoch without fixes
            self.epochs.append(AidingEpoch(time=bel.time, fixes=(), n_accepted=0,
                                           n_nis_rejected=0, iterations_used=0,
                                           converged=False))
            return bel
        variabilities = []
        for position in est.means[:, :2]:
            raw = 0.0  # a smoothed position off the map carries no position information
            if grid.in_bounds(position):
                raw = feature_variability(grid, grid.cell_of(position), fus.template_half_width)
            self.var_history.append(raw)
            variabilities.append(normalize_variability(self.var_history, fus.window_len))
        # Retrodiction replays the batch from its start; standard mode aids
        # the live belief at the batch end.
        start = checkpoint if fus.mode == "retrodiction" else bel
        bel, epoch = apply_batch(start, est, variabilities, fus, self.advance)
        self.epochs.append(epoch)
        return bel

    def report(self, truth) -> RunReport:
        failed = self.failed_at is not None
        if failed:
            self.pos[self.failed_at:] = np.nan
        errors = np.linalg.norm(self.pos - truth.positions, axis=1)
        series = errors[1:]
        aided = np.zeros(len(series), dtype=bool)
        first_aided = next((e.time for e in self.epochs if e.n_accepted > 0), None)
        if first_aided is not None:
            aided[round(first_aided / INS_DT) - 1:] = True
        div = self.cfg.divergence
        diverged = failed or detect_divergence(series, div.error_threshold_m,
                                               div.sustain_s, INS_DT)
        terminal = float(series[-1]) if np.isfinite(series[-1]) else float("inf")
        return RunReport(
            seed=self.seed,
            times=truth.times[1:],
            error_series=series,
            positions=self.pos[1:],
            aided_flags=aided,
            epochs=tuple(self.epochs),
            diverged=bool(diverged),
            terminal_error=terminal,
            failed=failed,
        )


def run_block(cfg: ScenarioConfig, seeds, grid: GridMap | None = None) -> list[RunReport]:
    """Execute seeded runs of the configured scenario in lock-step.

    Returns one report per seed, in the order of ``seeds``.

    The truth is simulated once, and an aided block reads the map at the
    truth's scan positions once, in one :func:`.geomap.value_at` call; each
    seed has its own INS, gravimeter noise and belief. Row i of the belief
    stack, of the accelerations and of the position estimates is seed i for
    the whole block. Every second one stacked predict moves all the beliefs,
    and each seed's result has the bits of its own one-seed run. Every
    ``gravimeter.interval`` each seed scans alone.

    An aided block reads the map's values: it uses ``grid``, or builds the
    configured map when ``grid`` is ``None``. An unaided block reads only the
    map's extent, from ``grid`` when given and else from the configured
    geometry (:func:`_map_extent`), so it builds no map.

    Raises :class:`ConfigError` before any simulation when the trajectory
    leaves the map. A seed's :class:`NumericalError` (at a predict, a lookup
    or a batch) marks that seed's run failed/diverged at that step, and its
    series is NaN from there on; the others go on. It is the only exception
    the loop catches: the normal outcomes of a scan (an empty gate, a batch
    without a candidate, a fix off the map) are values. A failed seed no
    longer scans, and its row goes on from the start belief once its
    predict fails. The block stops when every seed has failed.
    """
    cfg.validate()
    if grid is None and cfg.aiding:
        grid = build_grid(cfg)
    _check_route(cfg, _map_extent(cfg, grid))
    truth = simulate_truth(cfg.start, cfg.velocity, cfg.duration, INS_DT)
    grades = SENSOR_GRADES[cfg.ins.accel_grade], SENSOR_GRADES[cfg.ins.gyro_grade]
    fus = _resolve_fusion(cfg, grades[0])
    start = _initial_belief(cfg, truth, grades[0])
    pos_est = np.empty((len(seeds), len(truth), 2))
    pos_est[:, 0] = start.position
    every = round(cfg.gravimeter.interval / INS_DT)  # INS steps per scan
    # Scan n is at step (n + 1) * every. An unaided block scans nowhere.
    field = value_at(grid, truth.positions[every::every]) if cfg.aiding else np.empty(0)
    runs = [_SeedRun(cfg, fus, grid, field, truth, grades, seed, pos)
            for seed, pos in zip(seeds, pos_est)]
    accels = np.stack([run.accels for run in runs], axis=1)
    belief = NavBelief(state=np.tile(start.state, (len(runs), 1)),
                       cov=np.tile(start.cov, (len(runs), 1, 1)), time=start.time)

    for k in range(1, len(truth)):
        try:
            belief = ukf_predict(belief, accels[k - 1], INS_DT, fus)
        except NumericalError as exc:
            # A row that no longer factors or is no longer finite would
            # fail every later predict; it goes on from the start belief.
            for i in exc.rows:
                if runs[i].failed_at is None:
                    runs[i].failed_at = k
                belief.state[i], belief.cov[i] = start.state, start.cov
            if all(run.failed_at is not None for run in runs):
                break
            belief = ukf_predict(belief, accels[k - 1], INS_DT, fus)
        pos_est[:, k] = belief.position
        if not cfg.aiding or k % every:
            continue
        for run, state, cov in zip(runs, belief.state, belief.cov):
            if run.failed_at is not None:
                continue
            try:
                closed = run.scan(k // every - 1, NavBelief(state=state, cov=cov,
                                                            time=belief.time))
            except NumericalError:
                run.failed_at = k
                continue
            if closed is not None:
                state[:], cov[:] = closed.state, closed.cov
                run.pos[k] = closed.position
        if all(run.failed_at is not None for run in runs):
            break
    return [run.report(truth) for run in runs]


def run_scenario(cfg: ScenarioConfig, seed: int, grid: GridMap | None = None) -> RunReport:
    """Execute one seeded run of the configured scenario: a block of one seed.

    Raises, and marks a failed run, as :func:`run_block` does.
    """
    return run_block(cfg, [seed], grid)[0]


def detect_divergence(series, threshold_m: float, sustain_s: float, dt: float = 1.0) -> bool:
    """True when the error exceeds the threshold continuously for sustain_s."""
    need = max(int(math.ceil(sustain_s / dt)), 1)
    run = 0
    for v in np.asarray(series, dtype=float):
        run = run + 1 if v > threshold_m else 0
        if run >= need:
            return True
    return False


_WORKER_CFG: ScenarioConfig | None = None
_WORKER_GRID: GridMap | None = None


def _campaign_worker_init(cfg: ScenarioConfig, grid: GridMap | None) -> None:
    global _WORKER_CFG, _WORKER_GRID
    _WORKER_CFG = cfg
    _WORKER_GRID = grid


def _campaign_worker(seeds: list[int]) -> list[RunReport]:
    return run_block(_WORKER_CFG, seeds, grid=_WORKER_GRID)


def aided_phase_start(cfg: ScenarioConfig) -> float:
    """Earliest time an aiding update can land: the first batch completion."""
    return cfg.pmht.T * cfg.gravimeter.interval


def run_campaign(cfg: ScenarioConfig, jobs: int = 1) -> CampaignReport:
    """Run ``monte_carlo.runs`` seeded scenarios and aggregate the metrics.

    The seeds go out in ``min(jobs, runs, usable CPUs)`` contiguous blocks,
    one per worker process, and each block runs in lock-step
    (:func:`run_block`). The pool starts its workers all at once, so a
    ``jobs`` above the CPU count would only add processes.
    Every seed gets the bits of its own one-seed run, and the reports are
    reduced in seed order, so the report is identical for any ``jobs`` value.
    """
    cfg.validate()
    # An aided campaign's map is built once, before any worker starts, so a
    # bad map fails here with its own error at any ``jobs`` value. An
    # unaided campaign builds none: its blocks read only the map's geometry.
    grid = build_grid(cfg) if cfg.aiding else None
    seeds = [cfg.monte_carlo.base_seed + i for i in range(cfg.monte_carlo.runs)]
    workers = min(jobs, len(seeds), _usable_cpus())
    if workers > 1:
        blocks = [block.tolist() for block in np.array_split(seeds, workers)]
        with ProcessPoolExecutor(max_workers=workers, initializer=_campaign_worker_init,
                                 initargs=(cfg, grid)) as pool:
            reports = [r for block in pool.map(_campaign_worker, blocks) for r in block]
    else:
        reports = run_block(cfg, seeds, grid=grid)

    err = np.vstack([r.error_series for r in reports])
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        # A time at which every run has failed has no RMS: NaN, not a warning.
        warnings.filterwarnings("ignore", "Mean of empty slice", RuntimeWarning)
        rms = np.sqrt(np.nanmean(err ** 2, axis=0))
    n_live = np.isfinite(err).sum(axis=0)
    times = reports[0].times

    aided = cfg.mean_error_window == "aided" and cfg.aiding  # validate keeps the window non-empty
    window_mask = times >= aided_phase_start(cfg) if aided else np.ones_like(times, dtype=bool)
    counted = err[[cfg.include_diverged or not r.diverged for r in reports]][:, window_mask]
    pooled = counted[np.isfinite(counted)]
    mean_error = float(np.mean(pooled)) if pooled.size else float("nan")
    divergence_rate = sum(r.diverged for r in reports) / len(reports)

    return CampaignReport(
        times=times,
        rms_series=rms,
        n_live_runs=n_live,
        mean_error=mean_error,
        divergence_rate=float(divergence_rate),
        seeds=tuple(seeds),
        reports=tuple(reports),
        config_digest=config_hash(cfg),
    )


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def write_run_csv(report: RunReport, path) -> None:
    """Per-run series: time_s, error_m, aided_flag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time_s,error_m,aided_flag\n")
        for t, e, a in zip(report.times, report.error_series, report.aided_flags):
            fh.write(f"{_f17(t)},{_f17(e)},{int(a)}\n")


def write_campaign_outputs(report: CampaignReport, outdir) -> None:
    """Write campaign.csv, runs/<seed>.csv, and summary.csv under ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    runs_dir = os.path.join(outdir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    with open(os.path.join(outdir, "campaign.csv"), "w", encoding="utf-8") as fh:
        fh.write("time_s,rms_error_m,n_live_runs\n")
        for t, r, nl in zip(report.times, report.rms_series, report.n_live_runs):
            fh.write(f"{_f17(t)},{_f17(r)},{int(nl)}\n")
    for run in report.reports:
        write_run_csv(run, os.path.join(runs_dir, f"{run.seed}.csv"))
    with open(os.path.join(outdir, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("mean_error_m,divergence_rate,config_hash\n")
        fh.write(f"{_f17(report.mean_error)},{_f17(report.divergence_rate)},"
                 f"{report.config_digest}\n")
