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
stack with a leading seed axis, row i for seed i, the filter's only layout:
one stacked predict per run of steps (scan to scan, fix time to fix time in
a replay, the whole flight unaided) and one stacked update per fix time
move them all. The block owns every seed's records, in the stack's row
order; a seed that fails keeps its row and is only marked. Lookup,
association, the batch smoother and variability stay per seed. The
stacked filter gives each seed the bits of its own run (see :mod:`.fusion`),
so a seed's outputs do not depend on which block it runs in; a single run
(:func:`run_scenario`) is the block of one seed.

A campaign splits its seeds into ``min(jobs, runs, usable CPUs)``
contiguous blocks, one per worker process (one block at ``--jobs 1``), and
aggregates the error metrics keyed and ordered by seed, so reports are
byte-stable for any worker count.

A synthetic map (:func:`gen_synthetic_map`) is built in place in one
map-sized array. Each of its passes (column strips of the smoothing, then
row blocks of the smoothing and of the bump sum) runs one task per strip or
block on a pool of at most ``_MAX_MAP_WORKERS`` threads (:func:`_in_blocks`),
and the map has the same bits at any thread count.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import (
    INS_DT,
    MapGenParams,
    ScenarioConfig,
    aided_phase_start,
    config_hash,
)
from .errors import ConfigError, NumericalError
from .fusion import AidingEpoch, NavBelief, apply_batch, batch_fixes, ukf_predict
from .geomap import (
    GridMap,
    feature_variability,
    grid_extent,
    load_grid,
    lookup_candidates,
    normalize_variability,
    read_grid_extent,
    value_at,
)
from .inertial import SENSOR_GRADES, sample_gravimeter, simulate_ins, simulate_truth
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
    """Call ``job(a, b)`` once per ``block``-sized block ``[a, b)`` of
    ``[0, n)``, the last one short, on a pool of :func:`_map_workers` threads.

    Each job runs in a copy of the caller's context, so the caller's numpy
    error state holds there too. The pool is joined before this returns,
    and then the first block's exception, if any, is raised here.

    ``job`` must call no name in a module's ``__all__``: perfbench's tracer
    wraps those names and keeps one span stack, which threads would corrupt.
    """
    with ThreadPoolExecutor(_map_workers()) as pool:
        futures = [pool.submit(contextvars.copy_context().run, job, a, min(a + block, n))
                   for a in range(0, n, block)]
    for future in futures:
        future.result()


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


def _smooth_block(values: np.ndarray, taps: np.ndarray, axis: int, a: int, b: int) -> None:
    """The axis-``axis`` pass of the filter over lines ``[a, b)`` of the other
    axis of ``values``, in place.

    The lines are copied out padded by ``len(taps) - 1`` cells with
    ``np.pad(..., mode="symmetric")`` (scipy's "reflect", repeated when a
    line is shorter than that), correlated with the symmetric kernel into a
    contiguous buffer and copied back. Each output is ``centre * taps[0]``
    plus ``(before + after) * taps[j]`` added from the outermost tap inwards:
    the order of scipy's symmetric ``NI_Correlate1D`` loop, so every cell
    gets the same bits.
    """
    lines = values[:, a:b] if axis == 0 else values[a:b]
    radius, n = len(taps) - 1, lines.shape[axis]
    padded = np.pad(lines, [(radius, radius) if d == axis else (0, 0) for d in (0, 1)],
                    mode="symmetric")

    def shifted(k: int) -> np.ndarray:
        return padded[k:k + n] if axis == 0 else padded[:, k:k + n]

    out = np.multiply(shifted(radius), taps[0])
    tmp = np.empty(lines.shape)
    for j in range(radius, 0, -1):
        np.add(shifted(radius - j), shifted(radius + j), out=tmp)
        tmp *= taps[j]
        out += tmp
    lines[...] = out


def _smoothed_noise(rng: np.random.Generator, rows: int, cols: int,
                    sigma: float) -> np.ndarray:
    """White noise from ``rng``, Gaussian-smoothed, bit for bit as scipy does it.

    The result is ``scipy.ndimage.gaussian_filter(rng.standard_normal((rows,
    cols)), sigma, mode="reflect")``: axis 0 is filtered first, then axis 1,
    both with scipy's reflect padding, which is ``np.pad``'s "symmetric", and
    scipy's kernel (:func:`_gaussian_taps`). The noise is drawn straight into
    the array that is returned, which gives the same stream, and is smoothed
    there in place.

    Each pass is one task per column strip (axis 0), then one per row block
    (axis 1), on the map-build threads (:func:`_in_blocks`,
    :func:`_smooth_block`). A strip or a block reads only its own cells, so
    it can be written back in place. Every cell gets the same IEEE
    operations in the same order whichever thread computes it, so the
    result does not depend on the thread count. Besides the result, the
    build holds only a padded strip or block and its buffers per thread.
    """
    taps = _gaussian_taps(sigma)
    values = np.empty((rows, cols))
    rng.standard_normal(out=values)
    _in_blocks(cols, _STRIP_COLS, functools.partial(_smooth_block, values, taps, 0))
    _in_blocks(rows, _BLOCK_ROWS, functools.partial(_smooth_block, values, taps, 1))
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
    / n``, each sum one reduction over the whole array. The mean is that
    one ``np.add.reduce``, which needs no temporary; the squared deviations
    go through :func:`_pairwise_sum` one leaf at a time.
    """
    flat = values.reshape(-1)
    n = flat.size
    mean = np.add.reduce(flat) / n

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
    summed in a buffer, and each row becomes ``noise / std * noise_scale +
    bump_sum`` (IEEE addition commutes, so this is the bump sum plus the
    scaled noise). Otherwise there is no noise term and the bumps are summed
    in the rows themselves: adding zeros would turn a ``-0.0`` sum into
    ``+0.0``.
    """
    rows = values[a:b]
    total = np.empty(rows.shape) if std > 0 else rows
    total.fill(background)
    work = np.empty(rows.size)
    for amplitude, denom, c0, dx2, dy2 in bumps:
        buf = work[:(b - a) * len(dx2)].reshape(b - a, len(dx2))
        np.add(dx2[None, :], dy2[a:b, None], out=buf)
        np.negative(buf, out=buf)
        np.divide(buf, denom, out=buf)
        np.exp(buf, out=buf)
        np.multiply(amplitude, buf, out=buf)
        total[:, c0:c0 + len(dx2)] += buf
    if total is not rows:
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

    The map is built in one map-sized array, each pass one task per strip
    or block on a pool of as many threads as this process may use CPUs, at
    most ``_MAX_MAP_WORKERS`` (:func:`_in_blocks`). The white noise is drawn
    into the array and smoothed there in place. The calling thread then
    takes its ``std`` (:func:`_chunked_std`, the bits of ``ndarray.std()``:
    a reduction's pairing must not change), and one task per row block
    scales the noise and adds the bumps (:func:`_sum_bumps`). Every cell
    gets the same IEEE operations in the same order whichever thread
    computes it, so the map does not depend on the thread count. The tasks
    call only private helpers and numpy, never a traced ``__all__`` name
    (:func:`_in_blocks`).

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


def _initial_belief(cfg: ScenarioConfig, truth, rows: int) -> NavBelief:
    """The start belief of a resolved config (:meth:`.ScenarioConfig.resolved`),
    as a stack of ``rows`` copies."""
    bias_sigma = cfg.init.bias_sigma
    state = np.concatenate([truth.positions[0], truth.velocities[0], np.zeros(2)])
    cov = np.diag([
        cfg.init.pos_sigma ** 2, cfg.init.pos_sigma ** 2,
        cfg.init.vel_sigma ** 2, cfg.init.vel_sigma ** 2,
        bias_sigma ** 2, bias_sigma ** 2,
    ])
    return NavBelief(state=np.tile(state, (rows, 1)), cov=np.tile(cov, (rows, 1, 1)), time=0.0)


def _check_route(cfg: ScenarioConfig, extent: tuple[float, float, float, float]) -> None:
    """Reject a route that leaves the map's ``extent``, before the truth is
    simulated.

    The truth is ``start + t * velocity`` at every whole INS step up to the
    duration, itself a whole step. Each coordinate of it is monotone in
    ``t``, rounding included, so the route stays on the map exactly when
    both of its end points do.
    """
    start = np.asarray(cfg.start, dtype=float)
    end = start + cfg.duration * np.asarray(cfg.velocity, dtype=float)
    xmin, xmax, ymin, ymax = extent
    ends = np.array([start, end])
    if not ((ends[:, 0] >= xmin) & (ends[:, 0] <= xmax)
            & (ends[:, 1] >= ymin) & (ends[:, 1] <= ymax)).all():
        raise ConfigError("trajectory leaves the map extent")


def _run_report(cfg: ScenarioConfig, seed: int, pos: np.ndarray, failed_at: int | None,
                epochs: list[AidingEpoch], truth, times: np.ndarray) -> RunReport:
    """One seed's report from its row ``pos`` of the block's position
    estimates, blanked from step ``failed_at`` on when the run failed.
    ``times`` is the block's one time axis: a pooled block pickles it once."""
    failed = failed_at is not None
    if failed:
        pos[failed_at:] = np.nan
    errors = np.linalg.norm(pos - truth.positions, axis=1)
    series = errors[1:]
    aided = np.zeros(len(series), dtype=bool)
    first_aided = next((e.time for e in epochs if e.n_accepted > 0), None)
    if first_aided is not None:
        aided[round(first_aided / INS_DT) - 1:] = True
    div = cfg.divergence
    diverged = failed or detect_divergence(series, div.error_threshold_m, div.sustain_s, INS_DT)
    terminal = float(series[-1]) if np.isfinite(series[-1]) else float("inf")
    return RunReport(
        seed=int(seed),
        times=times,
        error_series=series,
        positions=pos[1:],
        aided_flags=aided,
        epochs=tuple(epochs),
        diverged=bool(diverged),
        terminal_error=terminal,
        failed=failed,
    )


def run_block(cfg: ScenarioConfig, seeds, grid: GridMap | None = None) -> list[RunReport]:
    """Execute seeded runs of the configured scenario in lock-step.

    Returns one report per seed, in the order of ``seeds``.

    The truth is simulated once, and an aided block reads the map at the
    truth's scan positions once, in one :func:`.geomap.value_at` call; each
    seed has its own INS, gravimeter noise and belief. The block owns every
    seed's records, row i for seed i: the belief stack, the ``(n - 1, R, 2)``
    accelerations the predict reads (each seed's INS written there once),
    the ``(R, scans)`` readings and the position estimates, and per seed its
    open scans, variability history, epochs and failure step. One stacked
    predict moves all the beliefs from scan to scan, or through the whole
    flight when unaided. The reports share one time axis.
    Every ``gravimeter.interval`` each seed scans alone, and all close their
    batches at the same scan, each live seed's in one helper (its fixes, EM
    iterations and convergence), so the block hands their fixes off at once,
    one :func:`.fusion.apply_batch` per fix time, and then records each live
    seed's epoch. When the first accepted fix lies before the live time
    (retrodiction), the hand-off starts from the stack at the batch's first
    scan and replays the predicts up to each fix time and then to the live
    time; otherwise (standard) it aids the live stack.

    An aided block reads the map's values: it uses ``grid``, or builds the
    configured map when ``grid`` is ``None``. An unaided block reads only the
    map's extent, from ``grid`` when given and else from the configured
    geometry (:func:`_map_extent`), so it builds no map.

    ``cfg`` is validated (:func:`run_scenario` and :func:`run_campaign` do
    that), and the block runs on its :meth:`.ScenarioConfig.resolved` copy.
    Raises :class:`ConfigError` before any simulation when the trajectory
    leaves the map. A seed's :class:`NumericalError` (at a predict, replayed
    or not, a lookup, a batch or a fix's NIS) marks that seed's run
    failed/diverged at that step, and its series is NaN from there on; the
    others go on. It is the only exception the loop catches: the normal
    outcomes of a scan (an empty gate, a batch without a candidate, a fix off
    the map) are values. A failed seed no longer scans, and its row goes on
    from the start belief once its predict fails. The block stops, and
    predicts no more, when every seed has failed.
    """
    cfg = cfg.resolved()
    if grid is None and cfg.aiding:
        grid = build_grid(cfg)
    _check_route(cfg, _map_extent(cfg, grid))
    truth = simulate_truth(cfg.start, cfg.velocity, cfg.duration, INS_DT)
    grades = SENSOR_GRADES[cfg.ins.accel_grade], SENSOR_GRADES[cfg.ins.gyro_grade]
    fus, batch_len = cfg.fusion, cfg.pmht.T
    n_seeds = len(seeds)
    every = round(cfg.gravimeter.interval / INS_DT)  # INS steps per scan
    # Scan n is at step (n + 1) * every. An unaided block scans nowhere.
    field = value_at(grid, truth.positions[every::every]) if cfg.aiding else np.empty(0)
    accels = np.empty((len(truth) - 1, n_seeds, 2))
    readings = np.empty((n_seeds, len(field)))
    for i, seed in enumerate(seeds):
        # The gravimeter has its own seed stream: its draws change no INS draw.
        seed_ins, seed_grav = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
        simulate_ins(truth, *grades, seed_ins, out=accels[:, i])
        readings[i] = sample_gravimeter(field, cfg.gravimeter.sigma, seed_grav)
    start = _initial_belief(cfg, truth, n_seeds)
    pos_est = np.empty((n_seeds, len(truth), 2))
    pos_est[:, 0] = start.position
    failed_at: list[int | None] = [None] * n_seeds
    scans: list[list] = [[] for _ in seeds]
    var_history: list[list[float]] = [[] for _ in seeds]
    epochs: list[list[AidingEpoch]] = [[] for _ in seeds]

    def fail(rows, k: int) -> bool:
        """Mark the runs of ``rows`` failed at step ``k``; True once all have failed."""
        for i in rows:
            if failed_at[i] is None:
                failed_at[i] = k
        return None not in failed_at

    def advance(bel: NavBelief, step: int) -> NavBelief | None:
        """The stack predicted up to ``step`` in one run; ``None`` once all have failed."""
        retried = None
        while (k0 := round(bel.time / INS_DT)) < step:
            try:
                return ukf_predict(bel, accels[k0:step], INS_DT, fus,
                                   out=pos_est[:, k0 + 1:step + 1].swapaxes(0, 1))[0]
            except NumericalError as exc:
                # A row that no longer factors or is no longer finite would
                # fail every later predict; it goes on from the start belief,
                # which must pass the failed step.
                k = k0 + exc.iteration + 1
                if k == retried:
                    raise
                if fail(exc.rows, k):
                    return None
                rows, bel, retried = list(exc.rows), exc.belief, k
                bel.state[rows], bel.cov[rows] = start.state[rows], start.cov[rows]
        return bel

    def close(i: int, checkpoint: NavBelief) -> tuple:
        """Smooth seed ``i``'s full batch from its row of ``checkpoint``, the
        stack at the batch's first scan: its fixes, EM iterations and
        convergence. A batch of empty scans offers no fix; a numerical fault
        raises :class:`NumericalError`."""
        problem = BatchProblem(
            prior_mean=checkpoint.state[i, :4],
            prior_cov=checkpoint.cov[i, :4, :4],
            scans=tuple(scans[i]),
            params=cfg.pmht,
            dt=cfg.gravimeter.interval,
            start_time=checkpoint.time,
        )
        scans[i] = []
        est = run_batch(problem)
        if est is None:  # every scan was empty
            return (), 0, False
        variabilities = []
        for position in est.means[:, :2]:
            raw = 0.0  # a smoothed position off the map carries no position information
            if grid.in_bounds(position):
                raw = feature_variability(grid, grid.cell_of(position), fus.template_half_width)
            var_history[i].append(raw)
            variabilities.append(normalize_variability(var_history[i], fus.window_len))
        return batch_fixes(est, variabilities, fus), est.iterations_used, est.converged

    def hand_off(live: NavBelief, checkpoint: NavBelief, k: int, closed: dict) -> NavBelief | None:
        """Feed the ``closed`` batches of the live seeds into the stack, fix
        time by fix time, and record each live seed's epoch."""
        tally = {i: [0, 0] for i in closed}
        offered = [(i, fix) for i, (fixes, *_) in closed.items() for fix in fixes if fix.accepted]
        times = sorted({fix.time for _, fix in offered})
        bel = checkpoint if times and times[0] < live.time else live
        for t in times:
            bel = advance(bel, round(t / INS_DT))
            if bel is None:
                return None
            now = [(i, fix) for i, fix in offered if fix.time == t and failed_at[i] is None]
            if now:
                rows, fixes = zip(*now)
                bel, applied, failed = apply_batch(bel, rows, fixes, fus)
                for i, ok in zip(rows, applied):
                    tally[i][not ok] += 1
                if fail(failed, round(t / INS_DT)):
                    return None
        bel = advance(bel, k)
        for i, (fixes, iterations, converged) in closed.items():
            if failed_at[i] is None:
                epochs[i].append(AidingEpoch(live.time, fixes, *tally[i], iterations, converged))
                pos_est[i, k] = bel.position[i]
        return bel

    belief = start
    for k in range(every, len(truth), every) if cfg.aiding else ():
        belief = advance(belief, k)
        if belief is None:
            break
        n = k // every - 1
        if n % batch_len == 0:
            checkpoint = belief
        closing, closed = n % batch_len == batch_len - 1, {}
        for i in range(n_seeds):
            if failed_at[i] is None:
                try:
                    scans[i].append(lookup_candidates(
                        grid, readings[i, n], cfg.gravimeter.sigma, belief.state[i, :2],
                        belief.cov[i, :2, :2], cfg.pmht.gamma, cfg.pmht.n_max, cfg.pmht.k_sig))
                    if closing:
                        closed[i] = close(i, checkpoint)
                except NumericalError:
                    failed_at[i] = k
        if closing:
            belief = hand_off(belief, checkpoint, k, closed)
        if belief is None or None not in failed_at:
            break
    else:
        advance(belief, len(truth) - 1)
    times = truth.times[1:]
    return [_run_report(cfg, seed, pos_est[i], failed_at[i], epochs[i], truth, times)
            for i, seed in enumerate(seeds)]


def run_scenario(cfg: ScenarioConfig, seed: int, grid: GridMap | None = None) -> RunReport:
    """Execute one seeded run of the configured scenario: a block of one seed.

    Validates ``cfg``; raises, and marks a failed run, as :func:`run_block` does.
    """
    cfg.validate()
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


# A series row: two floats at 17 significant digits, enough for each to read
# back to its double, and an integer. ``%`` prints a float as
# ``format(x, ".17g")`` does, ``nan``, ``inf`` and ``-0`` included.
_SERIES_ROW = "%.17g,%.17g,%d\n"
# Rows formatted per write, so the file is never held as one string. A
# 7200-row file wrote as fast in blocks of 256 as of 1024 rows, with a
# tracemalloc peak of 56 kB instead of 168 kB.
_ROWS_PER_BLOCK = 256


def _write_series(path, header: str, *columns) -> None:
    """Write ``header`` and one :data:`_SERIES_ROW` per entry of the three
    array ``columns``, in blocks of :data:`_ROWS_PER_BLOCK` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for start in range(0, len(columns[0]), _ROWS_PER_BLOCK):
            block = zip(*(c[start:start + _ROWS_PER_BLOCK].tolist() for c in columns))
            fh.write("".join(map(_SERIES_ROW.__mod__, block)))


def write_run_csv(report: RunReport, path) -> None:
    """Per-run series: time_s, error_m, aided_flag."""
    _write_series(path, "time_s,error_m,aided_flag\n",
                  report.times, report.error_series, report.aided_flags)


def write_campaign_outputs(report: CampaignReport, outdir) -> None:
    """Write campaign.csv, runs/<seed>.csv, and summary.csv under ``outdir``.

    Floats are written at 17 significant digits, so each reads back to its
    double; the two series files go through one row writer.
    """
    os.makedirs(outdir, exist_ok=True)
    runs_dir = os.path.join(outdir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    _write_series(os.path.join(outdir, "campaign.csv"), "time_s,rms_error_m,n_live_runs\n",
                  report.times, report.rms_series, report.n_live_runs)
    for run in report.reports:
        write_run_csv(run, os.path.join(runs_dir, f"{run.seed}.csv"))
    with open(os.path.join(outdir, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("mean_error_m,divergence_rate,config_hash\n")
        fh.write("%.17g,%.17g,%s\n" % (report.mean_error, report.divergence_rate,
                                      report.config_digest))
