import csv
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gravnav
import gravnav.fusion as fusion
import gravnav.harness as harness
from gravnav.config import (
    GaussianBump,
    MapGenParams,
    MapSource,
    ScenarioConfig,
    aided_phase_start,
    parse_config,
)
from gravnav.errors import ConfigError, NumericalError
from gravnav.geomap import (
    CandidateSet,
    feature_variability,
    lookup_candidates,
    save_grid,
    value_at,
)
from gravnav.harness import (
    build_grid,
    detect_divergence,
    gen_synthetic_map,
    run_block,
    run_campaign,
    run_scenario,
    write_campaign_outputs,
)
from gravnav.inertial import SENSOR_GRADES, sample_gravimeter, simulate_ins, simulate_truth
from gravnav.pmht import cv_model
from oracles import dead_reckon
from scenarios import corridor_config, corridor_map_params

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def small_scenario(duration=600.0, batch_len=5, aiding=True, sigma=1e-5,
                   runs=1, base_seed=0):
    gen = MapGenParams(rows=80, cols=400, cell_size=50.0, background=9.79,
                       bumps=(GaussianBump(4000.0, 2000.0, 2e-3, 1500.0),
                              GaussianBump(9000.0, 1800.0, -1.6e-3, 1800.0),
                              GaussianBump(14000.0, 2300.0, 2.5e-3, 1600.0)),
                       noise_scale=1.2e-4, noise_corr_cells=6.0, seed=5)
    cfg = ScenarioConfig()
    cfg.map = MapSource(gen=gen)
    cfg.start = (1000.0, 2000.0)
    cfg.velocity = (22.0, 0.0)
    cfg.duration = duration
    cfg.gravimeter.sigma = sigma
    cfg.pmht.T = batch_len
    cfg.pmht.spread_cov = True
    cfg.aiding = aiding
    cfg.monte_carlo.runs = runs
    cfg.monte_carlo.base_seed = base_seed
    return cfg


class TestGenSyntheticMap:
    def test_flat_spec_gives_constant_map_with_zero_variability(self):
        grid = gen_synthetic_map(MapGenParams(rows=10, cols=10, cell_size=100.0,
                                              background=9.79, noise_scale=0.0))
        assert (grid.values == 9.79).all()
        for cell in ((0, 0), (5, 5), (9, 9)):
            assert feature_variability(grid, cell, 2) == 0.0

    def test_single_bump_peak_value(self):
        # bump centered exactly on a cell center, no noise
        grid = gen_synthetic_map(MapGenParams(
            rows=11, cols=11, cell_size=100.0, background=9.79,
            bumps=(GaussianBump(550.0, 550.0, 2e-3, 300.0),), noise_scale=0.0))
        assert value_at(grid, (550.0, 550.0)) == pytest.approx(9.79 + 2e-3, abs=1e-9)

    def test_two_cluster_candidates(self):
        gen = MapGenParams(rows=40, cols=80, cell_size=100.0, background=9.79,
                           bumps=(GaussianBump(2000.0, 2000.0, 2e-3, 500.0),
                                  GaussianBump(6000.0, 2000.0, 2e-3, 500.0)),
                           noise_scale=0.0)
        grid = gen_synthetic_map(gen)
        s = 9.79 + 1e-3  # level set circling both bump centers
        sigma = 1e-4  # residual band wider than a cell so the rings populate
        center = np.array([4000.0, 2000.0])
        cov = np.diag([2000.0 ** 2, 800.0 ** 2])
        cs = lookup_candidates(grid, s, sigma, center, cov, 9.21, 500, 3.0)
        assert len(cs) > 0
        xs = cs.locations[:, 0]
        assert (xs < 4000.0).any() and (xs > 4000.0).any()
        # exhaustive-scan equality
        expected = set()
        sinv = np.linalg.inv(cov)
        for r in range(grid.n_rows):
            for c in range(grid.n_cols):
                d = grid.cell_center(r, c) - center
                if d @ sinv @ d > 9.21:
                    continue
                if abs(grid.values[r, c] - s) > 3.0 * sigma:
                    continue
                expected.add((r, c))
        assert set(map(tuple, cs.cells.tolist())) == expected

    def test_bump_width_underflow_warns_nothing_and_adds_nothing(self):
        # A zero-amplitude bump off every cell centre whose 2 * width**2
        # underflows to zero: its distances divide by zero and add 0 * 0.
        gen = MapGenParams(rows=60, cols=300, cell_size=50.0, background=9.79,
                           bumps=(GaussianBump(3000.0, 1500.0, 2e-3, 1200.0),),
                           noise_scale=1.2e-4, noise_corr_cells=6.0, seed=5)
        with_bump = replace(gen, bumps=(*gen.bumps, GaussianBump(3010.0, 1510.0, 0.0, 1e-200)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = gen_synthetic_map(with_bump)
        assert grid.values.tobytes() == gen_synthetic_map(gen).values.tobytes()

    def test_deterministic_given_seed(self):
        gen = MapGenParams(rows=30, cols=30, cell_size=50.0, noise_scale=1e-4, seed=9)
        a = gen_synthetic_map(gen)
        b = gen_synthetic_map(gen)
        assert (a.values == b.values).all()


@pytest.fixture(scope="module")
def gaussian_filter():
    return pytest.importorskip("scipy.ndimage").gaussian_filter


def oracle_map_values(params, gaussian_filter):
    """The map as a full meshgrid bump sum plus scipy-smoothed noise.

    This is the formulation ``gen_synthetic_map`` must reproduce bit for bit.
    """
    h = params.cell_size
    xs = params.origin_x + (np.arange(params.cols) + 0.5) * h
    ys = params.origin_y + (params.rows - 1 - np.arange(params.rows) + 0.5) * h
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    values = np.full((params.rows, params.cols), float(params.background))
    for bump in params.bumps:
        r2 = (gx - bump.cx) ** 2 + (gy - bump.cy) ** 2
        values += bump.amplitude * np.exp(-r2 / (2.0 * bump.width ** 2))
    if params.noise_scale > 0:
        rng = np.random.default_rng(params.seed)
        noise = rng.standard_normal((params.rows, params.cols))
        noise = gaussian_filter(noise, sigma=params.noise_corr_cells, mode="reflect")
        std = noise.std()
        if std > 0:
            values += params.noise_scale * (noise / std)
    return values


def assert_same_map(params, gaussian_filter):
    with np.errstate(all="ignore"):
        expected = oracle_map_values(params, gaussian_filter)
        if not np.isfinite(expected).all():
            with pytest.raises(ConfigError, match="finite.*map.background, map.bumps"):
                gen_synthetic_map(params)
            return
        got = gen_synthetic_map(params).values
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


_AMPLITUDES = st.sampled_from([0.0, -0.0, 2e-3, -1.6e-3, 1e-300, -5e-324, 3.0, -1e4, 1e12])
_WIDTHS = st.sampled_from([1e-200, 1e-3, 0.7, 40.0, 1e6])
_BUMPS = st.lists(st.builds(GaussianBump,
                            cx=st.floats(-2000.0, 6000.0), cy=st.floats(-2000.0, 6000.0),
                            amplitude=_AMPLITUDES | st.floats(-0.01, 0.01),
                            width=_WIDTHS | st.floats(1.0, 3000.0)),
                  max_size=4).map(tuple)


class TestSyntheticMapExactness:
    """``gen_synthetic_map`` equals the meshgrid + scipy formulation to the bit."""

    @pytest.mark.parametrize("params", [
        pytest.param(parse_config(os.path.join(CONFIGS, "corridor.cfg")).map.gen,
                     id="corridor.cfg"),
        pytest.param(parse_config(os.path.join(CONFIGS, "demo.cfg")).map.gen, id="demo.cfg"),
        pytest.param(corridor_map_params(), id="corridor-fixture"),
    ])
    def test_config_maps(self, params, gaussian_filter):
        assert_same_map(params, gaussian_filter)

    @pytest.mark.parametrize("amplitude", [0.0, -0.0, -2e-3, 1e-300, -5e-324, 1e6, -1e300])
    @pytest.mark.parametrize("width", [1e-200, 1e-3, 30.0, 1e5, 1e150])
    @pytest.mark.parametrize("background", [9.79, -9.79, 0.0])
    @pytest.mark.parametrize("centre", [(1025.0, 725.0), (1010.3, 700.1)],
                             ids=["on-cell-centre", "off-centre"])
    def test_extreme_bumps(self, amplitude, width, background, centre, gaussian_filter):
        # On a cell centre r2 is exactly 0, so a width whose square
        # underflows gives 0/0 there and the map is rejected as non-finite.
        bumps = (GaussianBump(*centre, amplitude, width),
                 GaussianBump(300.0, 900.0, 2e-3, 400.0))
        params = MapGenParams(rows=30, cols=50, cell_size=50.0, background=background,
                              bumps=bumps, noise_scale=1.2e-4, noise_corr_cells=3.0, seed=4)
        assert_same_map(params, gaussian_filter)

    @pytest.mark.parametrize("gap", [2.0 ** -50, 1e-12, 1e-6])
    def test_nearly_cancelling_bumps(self, gap, gaussian_filter):
        # Bumps that almost cancel the background drive the bound on |cell|
        # towards zero, where skipping columns is least safe.
        bumps = (GaussianBump(1025.0, 725.0, -0.5, 400.0),
                 GaussianBump(1025.0, 725.0, -(0.5 - gap), 300.0),
                 GaussianBump(200.0, 300.0, gap / 4, 200.0))
        params = MapGenParams(rows=30, cols=50, cell_size=50.0, background=1.0,
                              bumps=bumps, noise_scale=0.0)
        assert_same_map(params, gaussian_filter)

    def test_negative_zero_background_without_noise(self, gaussian_filter):
        # A bump too narrow to reach most cells adds -0.0 there, so those
        # cells stay -0.0: the bump sum must not be added to a zero noise term.
        params = MapGenParams(rows=20, cols=30, cell_size=50.0, background=-0.0,
                              bumps=(GaussianBump(300.0, 400.0, -2e-3, 20.0),),
                              noise_scale=0.0)
        assert_same_map(params, gaussian_filter)
        values = gen_synthetic_map(params).values
        assert ((values == 0) & np.signbit(values)).any()

    def test_negative_zero_background_with_zero_std(self, monkeypatch, gaussian_filter):
        # White noise of zeros smooths to zeros, whose std is 0: the map is
        # then the bump sum alone, -0.0 cells included.
        class ZeroNoise:
            def __init__(self, seed=None):
                pass

            def standard_normal(self, size=None, out=None):
                if out is None:
                    return np.zeros(size)
                out.fill(0.0)
                return out

        monkeypatch.setattr(np.random, "default_rng", ZeroNoise)
        params = MapGenParams(rows=20, cols=30, cell_size=50.0, background=-0.0,
                              bumps=(GaussianBump(300.0, 400.0, -2e-3, 20.0),),
                              noise_scale=1.2e-4, noise_corr_cells=3.0)
        assert_same_map(params, gaussian_filter)
        values = gen_synthetic_map(params).values
        assert ((values == 0) & np.signbit(values)).any()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(2, 40), cols=st.integers(2, 60),
           cell_size=st.sampled_from([1.0, 50.0, 123.4]),
           background=st.sampled_from([0.0, -3.5, 9.79]),
           bumps=_BUMPS,
           noise_scale=st.sampled_from([0.0, 1.2e-4, 2.0]),
           sigma=st.sampled_from([0.0, 1e-16, 0.2, 8.0]) | st.floats(0.0, 80.0),
           seed=st.integers(0, 2**31))
    def test_random_maps(self, rows, cols, cell_size, background, bumps, noise_scale,
                         sigma, seed, gaussian_filter):
        params = MapGenParams(rows=rows, cols=cols, cell_size=cell_size,
                              background=background, bumps=bumps, noise_scale=noise_scale,
                              noise_corr_cells=sigma, seed=seed)
        assert_same_map(params, gaussian_filter)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 60),
           sigma=(st.sampled_from([-3.0, 0.0, 1e-15, 1.1e-15, 0.124, 0.125, 8])
                  | st.floats(0.0, 80.0)),
           seed=st.integers(0, 2**31))
    # Two and a bit column strips, so the last strip is narrower; at sigma
    # 80 the 320-cell padding reflects the 7 rows many times over and the
    # 261 columns twice.
    @example(rows=37, cols=2 * harness._STRIP_COLS + 5, sigma=8.0, seed=11)
    @example(rows=7, cols=2 * harness._STRIP_COLS + 5, sigma=80.0, seed=12)
    def test_smoothing_matches_gaussian_filter(self, rows, cols, sigma, seed, gaussian_filter):
        # Unscaled white noise, drawn into the map array as the map build
        # draws it: every bit of the filter output is compared.
        x = np.random.default_rng(seed).standard_normal((rows, cols))
        expected = gaussian_filter(x, sigma=sigma, mode="reflect")
        got = harness._smoothed_noise(np.random.default_rng(seed), rows, cols, sigma)
        assert got.tobytes() == expected.tobytes()

    def test_import_loads_no_scipy(self):
        code = ("import sys, gravnav.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(gravnav.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"


def assert_std_bits(x):
    flat = x.reshape(-1)
    total = harness._pairwise_sum(lambda a, b: np.add.reduce(flat[a:b]), 0, flat.size)
    assert total.tobytes() == np.add.reduce(x, axis=None).tobytes(), x.shape
    assert harness._chunked_std(x).tobytes() == x.std().tobytes(), x.shape


class TestChunkedStd:
    """The map's std taken leaf by leaf has the bits of numpy's one-pass
    reductions. A numpy whose summation tree differs fails here, naming the
    cause before the map digests change."""

    @pytest.mark.parametrize("lengths", [
        pytest.param(range(1, 301), id="1-300"),
        pytest.param([2 ** 16 + d for d in (-9, -8, -1, 0, 1, 7, 8, 9)], id="around-2^16"),
        pytest.param([2 ** 17 + d for d in (-17, -16, -1, 0, 1, 15, 16, 17)], id="around-2^17"),
    ])
    def test_every_length(self, lengths):
        for n in lengths:
            assert_std_bits(np.random.default_rng(n).standard_normal(n) * 1e3 + 7.0)

    @pytest.mark.parametrize("shape", [(480, 3240), (37, 23), (2, 2), (3, 70001), (70001, 3),
                                       (257, 511)], ids=lambda shape: "x".join(map(str, shape)))
    def test_2d_shapes(self, shape):
        assert_std_bits(np.random.default_rng(shape[0]).standard_normal(shape))

    @pytest.mark.parametrize("value", [9.79, 0.0, -0.0])
    def test_constant_maps(self, value):
        assert_std_bits(np.full((300, 400), value))


CORRIDOR_MAP = parse_config(os.path.join(CONFIGS, "corridor.cfg")).map.gen
DEMO_MAP = parse_config(os.path.join(CONFIGS, "demo.cfg")).map.gen


def map_with_workers(params, workers):
    with mock.patch.object(harness, "_map_workers", lambda: workers):
        return gen_synthetic_map(params).values


def jobs_of_in_blocks(monkeypatch, n, block, workers):
    """The sorted ``(a, b)`` jobs that :func:`harness._in_blocks` runs on
    ``workers`` threads: one per block, so together they cover ``[0, n)``
    exactly once."""
    monkeypatch.setattr(harness, "_map_workers", lambda: workers)
    seen = []
    harness._in_blocks(n, block, lambda a, b: seen.append((a, b)))
    return sorted(seen)


class TestMapBuildWorkers:
    """The map build runs one task per strip or block on a pool of threads
    over the usable CPUs, bit for bit."""

    @pytest.mark.parametrize("params", [
        pytest.param(DEMO_MAP, id="demo.cfg"),
        pytest.param(replace(DEMO_MAP, rows=37, cols=23, noise_corr_cells=2.5),
                     id="rows-not-a-multiple-of-16"),
        # 40 rows against a 320-row kernel radius: the row padding reflects
        # the map several times over, and the rows still make three blocks.
        pytest.param(replace(DEMO_MAP, rows=40, cols=30, noise_corr_cells=80.0),
                     id="fewer-rows-than-kernel-radius"),
        pytest.param(replace(DEMO_MAP, rows=2, cols=2), id="2x2"),
        pytest.param(replace(DEMO_MAP, noise_scale=0.0), id="noise_scale=0"),
        pytest.param(replace(DEMO_MAP, noise_corr_cells=0.0), id="noise_corr_cells=0"),
        # Three column strips, the last of 5 columns; at sigma 80 the column
        # padding reflects the map twice on each side.
        pytest.param(replace(DEMO_MAP, cols=2 * harness._STRIP_COLS + 5, noise_corr_cells=8.0),
                     id="uneven-last-strip-sigma-8"),
        pytest.param(replace(DEMO_MAP, cols=2 * harness._STRIP_COLS + 5, noise_corr_cells=80.0),
                     id="uneven-last-strip-sigma-80"),
    ])
    def test_same_bits_at_any_worker_count(self, params):
        one = map_with_workers(params, 1)
        # 64 workers are more than any of these maps has row blocks.
        for workers in (2, 3, 64):
            assert map_with_workers(params, workers).tobytes() == one.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(2, 70), cols=st.integers(2, 40),
           sigma=st.sampled_from([0.0, 0.2, 8.0]) | st.floats(0.0, 40.0),
           workers=st.integers(1, 6), seed=st.integers(0, 2**31))
    def test_random_maps_at_any_worker_count(self, rows, cols, sigma, workers, seed,
                                             gaussian_filter):
        params = MapGenParams(rows=rows, cols=cols, cell_size=50.0, background=9.79,
                              bumps=(GaussianBump(700.0, 400.0, 2e-3, 300.0),),
                              noise_scale=1.2e-4, noise_corr_cells=sigma, seed=seed)
        with mock.patch.object(harness, "_map_workers", lambda: workers):
            assert_same_map(params, gaussian_filter)

    @pytest.mark.parametrize("n_rows, cpus, runs", [
        (480, 2, [(a, a + 16) for a in range(0, 480, 16)]),
        (37, 2, [(0, 16), (16, 32), (32, 37)]),
        (37, 8, [(0, 16), (16, 32), (32, 37)]),
        (5, 4, [(0, 5)]),
        (100, 3, [(a, min(a + 16, 100)) for a in range(0, 100, 16)]),
    ])
    def test_rows_split_into_whole_blocks(self, monkeypatch, n_rows, cpus, runs):
        assert jobs_of_in_blocks(monkeypatch, n_rows, harness._BLOCK_ROWS, cpus) == runs

    @pytest.mark.parametrize("n_cols, cpus, runs", [
        (3240, 2, [(a, min(a + 128, 3240)) for a in range(0, 3240, 128)]),
        (300, 3, [(0, 128), (128, 256), (256, 300)]),
        (261, 2, [(0, 128), (128, 256), (256, 261)]),
        (128, 2, [(0, 128)]),
        (100, 2, [(0, 100)]),
    ])
    def test_columns_split_into_whole_strips(self, monkeypatch, n_cols, cpus, runs):
        assert jobs_of_in_blocks(monkeypatch, n_cols, harness._STRIP_COLS, cpus) == runs

    def test_worker_error_is_raised_by_the_caller(self, monkeypatch):
        monkeypatch.setattr(harness, "_map_workers", lambda: 3)

        def job(a, b):
            if a > 0:
                raise MemoryError(f"rows {a}-{b}")

        with pytest.raises(MemoryError, match="rows"):
            harness._in_blocks(48, harness._BLOCK_ROWS, job)

    def test_corridor_build_grid_peak_memory_below_1_6_maps(self):
        # The map is built and checked in place: besides it, each worker
        # holds only a padded column strip or row block and its buffers
        # (about 1.4 maps in all).
        cfg = parse_config(os.path.join(CONFIGS, "corridor.cfg"))
        tracemalloc.start()
        try:
            build_grid(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * CORRIDOR_MAP.rows * CORRIDOR_MAP.cols * 8

    def test_corridor_run_peak_rss_below_two_maps_above_import(self, tmp_path):
        # The whole process, threads and allocator included: the peak
        # resident size of a short corridor run, against one that only
        # imports the CLI, each measured as the only child of a parent. A
        # 60 s flight closes a batch only with pmht.T * interval <= 60.
        cfg = tmp_path / "corridor60.cfg"
        with open(os.path.join(CONFIGS, "corridor.cfg"), encoding="utf-8") as fh:
            cfg.write_text(fh.read() + "duration = 60\npmht.T = 6\n", encoding="utf-8")
        measure = ("import resource, subprocess, sys; "
                   "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True, "
                   "stdout=subprocess.DEVNULL); "
                   "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
        src = os.path.dirname(os.path.dirname(os.path.abspath(gravnav.__file__)))
        env = dict(os.environ, PYTHONPATH=src)

        def peak_kib(code):
            out = subprocess.run([sys.executable, "-c", measure, code], env=env,
                                 capture_output=True, text=True, timeout=300, check=True)
            return int(out.stdout)

        base = peak_kib("import gravnav.cli")
        run = peak_kib("import sys; from gravnav.cli import main; "
                       f"sys.exit(main(['run', '--config', {str(cfg)!r}]))")
        map_kib = CORRIDOR_MAP.rows * CORRIDOR_MAP.cols * 8 / 1024
        assert run - base < 2 * map_kib

    def test_build_grid_joins_its_worker_threads(self, monkeypatch):
        monkeypatch.setattr(harness, "_map_workers", lambda: 3)
        before = threading.active_count()
        build_grid(parse_config(os.path.join(CONFIGS, "demo.cfg")))
        assert threading.active_count() == before

    def test_thread_jobs_call_no_traced_name(self, monkeypatch):
        # perfbench's tracer wraps every name in a module's __all__ and keeps
        # one span stack, which the map-build threads would corrupt. So no
        # job handed to _in_blocks, nor a private helper it reaches, may
        # name one: not as a global and not as an attribute.
        traced = set()
        for module in pkgutil.iter_modules(gravnav.__path__):
            traced.update(getattr(importlib.import_module(f"gravnav.{module.name}"),
                                  "__all__", ()))
        jobs = []
        in_blocks = harness._in_blocks

        def recording(n, block, job):
            jobs.append(job)
            in_blocks(n, block, job)

        monkeypatch.setattr(harness, "_in_blocks", recording)
        build_grid(parse_config(os.path.join(CONFIGS, "demo.cfg")))
        funcs = [job.func for job in jobs]
        assert len(funcs) == 3
        walked, names = set(), set()
        while funcs:
            func = funcs.pop()
            if func in walked:
                continue
            walked.add(func)
            codes = [func.__code__]
            while codes:
                code = codes.pop()
                names.update(code.co_names)
                codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
                funcs.extend(f for name in code.co_names
                             if name.startswith("_")
                             and isinstance(f := func.__globals__.get(name), types.FunctionType))
        assert walked == {harness._smooth_block, harness._sum_bumps}
        assert not names & traced

    def test_workers_capped_at_the_timed_count(self, monkeypatch):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        assert harness._map_workers() == harness._MAX_MAP_WORKERS == 2


class TestDetectDivergence:
    def test_constant_below_threshold(self):
        assert not detect_divergence(np.full(3600, 100.0), 10000.0, 600.0)

    def test_linear_growth_crossing_and_staying(self):
        series = np.linspace(0.0, 20000.0, 4000)
        assert detect_divergence(series, 10000.0, 600.0)

    def test_short_spike_recovers(self):
        series = np.full(3600, 100.0)
        series[1000:1400] = 20000.0  # 400 s above threshold < 600 s sustain
        assert not detect_divergence(series, 10000.0, 600.0)

    def test_sustain_window_boundary(self):
        series = np.full(2000, 0.0)
        series[100:700] = 10001.0  # exactly 600 samples above
        assert detect_divergence(series, 10000.0, 600.0, dt=1.0)
        series[100:699] = 0.0
        assert not detect_divergence(series, 10000.0, 600.0, dt=1.0)


class TestRunScenario:
    def test_series_length_equals_duration(self):
        cfg = small_scenario(duration=300.0)
        rep = run_scenario(cfg, 0)
        assert len(rep.error_series) == 300
        assert rep.times[0] == 1.0 and rep.times[-1] == 300.0

    def test_ablation_identity_matches_pure_ins(self):
        cfg = small_scenario(duration=600.0, aiding=False)
        rep = run_scenario(cfg, 3)
        truth = simulate_truth(cfg.start, cfg.velocity, cfg.duration, 1.0)
        seed_ins = int(np.random.SeedSequence(3).generate_state(2)[0])
        accels = simulate_ins(truth, SENSOR_GRADES[cfg.ins.accel_grade],
                              SENSOR_GRADES[cfg.ins.gyro_grade], seed_ins)
        ins_err = np.linalg.norm(dead_reckon(truth, accels)[0] - truth.positions, axis=1)[1:]
        assert np.abs(rep.error_series - ins_err).max() < 1e-6

    def test_unaided_run_flies_over_nodata_under_the_route(self):
        # no scan is processed, so the gravimeter is never sampled there
        cfg = small_scenario(duration=300.0, aiding=False)
        grid = build_grid(cfg)
        row, col = grid.cell_of(np.asarray(cfg.start) + np.array([2000.0, 0.0]))
        values = grid.values.copy()
        values[row - 2:row + 3, col - 2:col + 3] = grid.nodata
        rep = run_scenario(cfg, 3, grid=replace(grid, values=values))
        assert not rep.failed
        assert np.array_equal(rep.error_series, run_scenario(cfg, 3).error_series)

    def test_tracker_settings_reach_lookup_and_batch(self, monkeypatch):
        # every pmht key off its default (spread_cov as the demo sets it), so
        # a value dropped on the way to the tracker cannot pass unseen
        cfg = parse_config(os.path.join(CONFIGS, "demo.cfg"))
        cfg.pmht = replace(cfg.pmht, gamma=12.5, n_max=7, k_sig=2.5, max_iters=4,
                           epsilon=0.05, grad_floor=2e-9, q_a=0.03)
        lookups, problems, estimates = [], [], []
        signature = inspect.signature(harness.lookup_candidates)
        real_lookup, real_batch = harness.lookup_candidates, harness.run_batch

        def recording_lookup(*args, **kwargs):
            lookups.append(signature.bind(*args, **kwargs).arguments)
            return real_lookup(*args, **kwargs)

        def recording_batch(problem):
            problems.append(problem)
            estimates.append(real_batch(problem))
            return estimates[-1]

        monkeypatch.setattr(harness, "lookup_candidates", recording_lookup)
        monkeypatch.setattr(harness, "run_batch", recording_batch)
        rep = run_scenario(cfg, 0)
        assert not rep.failed
        assert len(lookups) == cfg.duration / cfg.gravimeter.interval
        for args in lookups:
            assert (args["gamma"], args["n_max"], args["k_sig"]) == (12.5, 7, 2.5)
        assert len(problems) == len(rep.epochs) > 0
        _, q = cv_model(cfg.gravimeter.interval, 0.03)
        for problem, est in zip(problems, estimates):
            params = problem.params
            assert (params.max_iters, params.epsilon, params.grad_floor, params.spread_cov,
                    params.q_a) == (4, 0.05, 2e-9, True, 0.03)
            assert np.array_equal(problem.model[1], q)
            assert problem.dt == cfg.gravimeter.interval
            assert est.iterations_used <= 4

    def test_scans_gate_with_the_configured_sigma(self, monkeypatch):
        # A sigma far below the gravimeter's reaches every lookup as set.
        cfg = parse_config(os.path.join(CONFIGS, "demo.cfg"))
        cfg.gravimeter.sigma = 1e-13
        sigmas = []
        real_lookup = harness.lookup_candidates

        def recording_lookup(grid, value, sigma, *args):
            sigmas.append(sigma)
            return real_lookup(grid, value, sigma, *args)

        monkeypatch.setattr(harness, "lookup_candidates", recording_lookup)
        run_scenario(cfg, 0)
        assert sigmas == [1e-13] * int(cfg.duration / cfg.gravimeter.interval)

    # A velocity or bias variance this far above the position variance
    # leaves the covariance positive definite only to rounding.
    @pytest.mark.filterwarnings("ignore:belief covariance lost positive definiteness")
    @pytest.mark.parametrize("key", [
        pytest.param(f"{section}.{name}", id=name)
        for section, names in (("init", ("pos_sigma", "vel_sigma", "bias_sigma")),
                               ("fusion", ("bias_psd", "q_accel")))
        for name in names])
    def test_unaided_flight_at_the_init_sigma_bound_does_not_overflow(self, key):
        cfg = parse_config(os.path.join(CONFIGS, "demo.cfg"))
        cfg.aiding = False
        section, name = key.split(".")
        # The largest value validate() passes: a bisection on the bits of the
        # positive floats, which order as the floats do.
        lo, hi = map(int, np.array([1.0, np.inf]).view(np.int64))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            setattr(getattr(cfg, section), name, float(np.int64(mid).view(np.float64)))
            try:
                cfg.validate()
                lo = mid
            except ConfigError as exc:
                assert str(exc).startswith(f"{key} = ")
                hi = mid
        setattr(getattr(cfg, section), name, float(np.int64(lo).view(np.float64)))
        with np.errstate(over="raise"):
            assert not run_scenario(cfg, 0).failed

    @pytest.mark.parametrize("q_accel", [None, 3e-9], ids=["auto", "explicit"])
    def test_q_accel_reaches_every_predict(self, monkeypatch, q_accel):
        # Each predict of the block, and each of the retrodiction replay,
        # runs on the resolved value: the grade's density squared for auto.
        cfg = parse_config(os.path.join(CONFIGS, "demo.cfg"))
        cfg.fusion.mode = "retrodiction"
        cfg.fusion.q_accel = q_accel
        seen = {"block": [], "replay": []}
        latest = [0.0]
        real_predict = harness.ukf_predict

        def predict(belief, accels, dt, params, out=None):
            # A run of steps is live where the block's last live run ended; a
            # replay run steps back in time, to the batch's start or a fix.
            replay = belief.time < latest[0]
            latest[0] = max(latest[0], belief.time + len(accels) * dt)
            seen["replay" if replay else "block"].extend([params.q_accel] * len(accels))
            return real_predict(belief, accels, dt, params, out=out)

        monkeypatch.setattr(harness, "ukf_predict", predict)
        run_scenario(cfg, 0)
        if q_accel is None:
            q_accel = SENSOR_GRADES[cfg.ins.accel_grade].accel_noise_density ** 2
        assert len(seen["block"]) == cfg.duration and seen["replay"]
        assert set(seen["block"]) == set(seen["replay"]) == {q_accel}

    def test_off_map_trajectory_rejected_before_simulation(self):
        cfg = small_scenario(duration=2000.0)  # runs off the 20 km map
        with pytest.raises(ConfigError):
            run_scenario(cfg, 0)

    def test_near_oracle_regime_terminal_error_below_two_cells(self):
        # strictly monotone radial field: one broad anomaly, noise-free sensor
        # (sigma covers only the cell quantization of the residual gate)
        gen = MapGenParams(rows=200, cols=200, cell_size=50.0, background=9.79,
                           bumps=(GaussianBump(5000.0, 2000.0, 5e-3, 6000.0),),
                           noise_scale=0.0)
        cfg = ScenarioConfig()
        cfg.map = MapSource(gen=gen)
        cfg.start = (800.0, 6000.0)
        cfg.velocity = (20.0, 0.0)
        cfg.duration = 400.0
        cfg.gravimeter.sigma = 1e-5
        cfg.pmht.T = 15
        cfg.pmht.q_a = 1e-3
        cfg.pmht.spread_cov = True
        rep = run_scenario(cfg, 1)
        assert sum(e.n_accepted for e in rep.epochs) >= 1
        assert rep.terminal_error < 2 * 50.0

    def test_aiding_reduces_error_on_informative_fixture(self, monkeypatch):
        # a coarse accelerometer makes dead reckoning drift ~180 m within
        # 600 s, so the ~25 m map fixes dominate without a 2 h simulation
        monkeypatch.setitem(
            SENSOR_GRADES, "test-coarse-accel",
            type(SENSOR_GRADES["QS-accel"])(accel_bias=1e-3,
                                            accel_noise_density=8e-5,
                                            gyro_bias=2e-5,
                                            gyro_noise_density=1e-3))
        cfg_on = small_scenario(duration=600.0, batch_len=10)
        cfg_on.ins.accel_grade = "test-coarse-accel"
        cfg_off = small_scenario(duration=600.0, batch_len=10, aiding=False)
        cfg_off.ins.accel_grade = "test-coarse-accel"
        worse = 0
        for seed in range(20):
            on = run_scenario(cfg_on, seed)
            off = run_scenario(cfg_off, seed)
            if on.error_series[300:].mean() >= off.error_series[300:].mean():
                worse += 1
        assert worse <= 1  # aiding dominates in >= 95% of seeds

    def test_retrodiction_trajectory_smoother_than_standard(self):
        cfg_std = corridor_config(duration=1200.0)
        cfg_rtr = corridor_config(duration=1200.0)
        cfg_rtr.fusion = replace(cfg_rtr.fusion, mode="retrodiction")
        std = run_scenario(cfg_std, 1)
        rtr = run_scenario(cfg_rtr, 1)

        def total_variation(rep):
            return float(np.linalg.norm(np.diff(rep.positions, axis=0), axis=1).sum())

        assert total_variation(rtr) <= total_variation(std)

    def test_standard_mode_aiding_cadence(self):
        # batch length 5 at 10 s sampling: one update epoch every 50 s
        cfg = small_scenario(duration=300.0, batch_len=5)
        rep = run_scenario(cfg, 0)
        assert [e.time for e in rep.epochs] == [50.0, 100.0, 150.0, 200.0, 250.0, 300.0]
        assert all(len(e.fixes) == 1 for e in rep.epochs)

    def test_standard_mode_300s_interval_at_batch_30(self):
        # 30-scan batches at 10 s sampling aid once per 300 s
        cfg = small_scenario(duration=600.0, batch_len=30)
        rep = run_scenario(cfg, 0)
        assert [e.time for e in rep.epochs] == [300.0, 600.0]
        assert all(len(e.fixes) == 1 for e in rep.epochs)

    def test_numerical_failure_marks_run_failed(self, monkeypatch):
        import gravnav.harness as harness

        def boom(problem):
            raise NumericalError("forced", iteration=1)

        monkeypatch.setattr(harness, "run_batch", boom)
        cfg = small_scenario(duration=300.0, batch_len=5)
        rep = run_scenario(cfg, 0)
        assert rep.failed and rep.diverged
        assert np.isnan(rep.error_series[-1])


class TestUnaidedGeometry:
    """An unaided run checks its route against the configured geometry."""

    @pytest.mark.parametrize("name", ["demo.cfg", "corridor.cfg"])
    def test_configured_extent_is_the_built_extent(self, name):
        cfg = parse_config(os.path.join(CONFIGS, name))
        assert harness._map_extent(cfg, None) == build_grid(cfg).extent

    def test_file_extent_is_the_built_extent(self, tmp_path):
        cfg = parse_config(os.path.join(CONFIGS, "demo.cfg"))
        grid = build_grid(cfg)
        save_grid(grid, tmp_path / "map.asc")
        cfg.map = MapSource(file=str(tmp_path / "map.asc"))
        assert harness._map_extent(cfg, None) == build_grid(cfg).extent == grid.extent

    def test_given_grid_gives_the_extent(self):
        cfg = small_scenario(aiding=False)
        grid = replace(build_grid(cfg), origin=np.array([-1e6, -1e6]))
        assert harness._map_extent(cfg, grid) == grid.extent

    def test_corridor_block_peak_memory_below_a_quarter_map(self):
        # Unaided, the block reads only the map's geometry; a built corridor
        # map alone would be four times the bound.
        cfg = parse_config(os.path.join(CONFIGS, "corridor.cfg"))
        cfg.aiding = False
        cfg.duration = 600.0
        tracemalloc.start()
        try:
            run_block(cfg, [0, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * CORRIDOR_MAP.rows * CORRIDOR_MAP.cols * 8

    def test_corridor_block_peak_memory_per_seed(self):
        # Per seed, an unaided block holds its row of the INS accelerations
        # (written once, straight into the block's array), its row of the
        # position estimates and its report: about two (n, 2) float64
        # records. A second copy of the accelerations would make it three.
        cfg = parse_config(os.path.join(CONFIGS, "corridor.cfg"))
        cfg.aiding = False
        cfg.duration = 1800.0
        run_block(replace(cfg, duration=60.0), [0])  # first-call caches, outside the peaks

        def peak(seeds):
            tracemalloc.start()
            try:
                run_block(cfg, seeds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        record = (round(cfg.duration) + 1) * 2 * 8
        assert (peak(list(range(20))) - peak([0])) / 19 < 2.5 * record

    def test_corridor_block_peak_memory_one_seed(self):
        # The INS writes only its accelerations, straight into the block's
        # array, and keeps no dead-reckoned path or times copy.
        cfg = parse_config(os.path.join(CONFIGS, "corridor.cfg"))
        cfg.aiding = False
        cfg.duration = 1800.0
        run_block(replace(cfg, duration=60.0), [0])  # first-call caches, outside the peak
        tracemalloc.start()
        try:
            run_block(cfg, [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = (round(cfg.duration) + 1) * 2 * 8
        assert peak < 16.5 * record


class TestRunCampaign:
    def test_single_run_rms_equals_abs_error(self):
        cfg = small_scenario(duration=300.0, runs=1)
        camp = run_campaign(cfg)
        assert np.allclose(camp.rms_series, camp.reports[0].error_series)
        assert (camp.n_live_runs == 1).all()

    def test_identical_configs_identical_reports(self):
        cfg = small_scenario(duration=300.0, runs=2)
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert (a.rms_series == b.rms_series).all()
        assert a.mean_error == b.mean_error
        assert a.config_digest == b.config_digest

    def test_worker_count_invariance(self):
        cfg = small_scenario(duration=300.0, runs=3)
        serial = run_campaign(cfg, jobs=1)
        parallel = run_campaign(cfg, jobs=2)
        assert (serial.rms_series == parallel.rms_series).all()
        assert serial.mean_error == parallel.mean_error
        assert serial.divergence_rate == parallel.divergence_rate

    def test_failed_run_counts_as_diverged_and_campaign_continues(self, monkeypatch):
        import gravnav.harness as harness

        real_run_batch = harness.run_batch
        calls = {"n": 0}

        def sometimes_boom(problem):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericalError("forced", iteration=2)
            return real_run_batch(problem)

        monkeypatch.setattr(harness, "run_batch", sometimes_boom)
        cfg = small_scenario(duration=300.0, batch_len=5, runs=2)
        camp = run_campaign(cfg, jobs=1)
        assert camp.divergence_rate == 0.5
        assert camp.n_live_runs[-1] == 1
        assert np.isfinite(camp.rms_series[-1])

    def test_include_diverged_flag_changes_mean(self, monkeypatch):
        import gravnav.harness as harness

        real_run_batch = harness.run_batch
        calls = {"n": 0}

        def first_batch_boom(problem):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericalError("forced", iteration=1)
            return real_run_batch(problem)

        cfg = small_scenario(duration=300.0, batch_len=5, runs=2)
        cfg.mean_error_window = "full"  # failed run only has pre-failure samples
        monkeypatch.setattr(harness, "run_batch", first_batch_boom)
        excl = run_campaign(cfg, jobs=1)
        calls["n"] = 0
        cfg.include_diverged = True
        incl = run_campaign(cfg, jobs=1)
        assert excl.divergence_rate == incl.divergence_rate == 0.5
        assert incl.mean_error != excl.mean_error

    @pytest.mark.parametrize("include_diverged", [False, True])
    def test_aggregates_have_the_bits_of_their_numpy_definitions(self, monkeypatch,
                                                                include_diverged):
        # The campaign's RMS series is np.nanmean over the runs, and its mean
        # error the counted runs' rows, then the aided window, then the finite
        # errors: the same bits here, with a failed (NaN) and a diverged run.
        import gravnav.harness as harness

        real_run_batch = harness.run_batch
        calls = {"n": 0}

        def second_batch_boom(problem):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NumericalError("forced", iteration=1)
            return real_run_batch(problem)

        monkeypatch.setattr(harness, "run_batch", second_batch_boom)
        cfg = small_scenario(duration=300.0, batch_len=5, runs=3)
        cfg.include_diverged = include_diverged
        camp = run_campaign(cfg, jobs=1)
        err = np.vstack([r.error_series for r in camp.reports])
        assert np.isnan(err).any() and 0 < camp.divergence_rate < 1
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rms = np.sqrt(np.nanmean(err ** 2, axis=0))
        assert rms.tobytes() == camp.rms_series.tobytes()
        window = camp.times >= aided_phase_start(cfg)
        counted = err[[include_diverged or not r.diverged for r in camp.reports]][:, window]
        assert camp.mean_error == float(np.mean(counted[np.isfinite(counted)]))

    def test_noise_ordering_mean_error(self, monkeypatch):
        # meaningful only when dead-reckoning drift dominates the fix error,
        # so degrade the accelerometer as in the aiding-dominance test
        monkeypatch.setitem(
            SENSOR_GRADES, "test-coarse-accel",
            type(SENSOR_GRADES["QS-accel"])(accel_bias=1e-3,
                                            accel_noise_density=8e-5,
                                            gyro_bias=2e-5,
                                            gyro_noise_density=1e-3))

        def cfg_for(sigma):
            cfg = small_scenario(duration=600.0, batch_len=10, sigma=sigma, runs=4)
            cfg.ins.accel_grade = "test-coarse-accel"
            return cfg

        lo = run_campaign(cfg_for(1e-5), jobs=1)
        hi = run_campaign(cfg_for(2e-4), jobs=1)
        assert hi.mean_error > lo.mean_error


def seed_streams(cfg, grid, seed):
    """A seed's indicated accelerations (n - 1, 2) and gravimeter readings, as a run draws them."""
    truth = simulate_truth(cfg.start, cfg.velocity, cfg.duration, 1.0)
    seed_ins, seed_grav = (int(x) for x in np.random.SeedSequence(seed).generate_state(2))
    every = round(cfg.gravimeter.interval)
    field = value_at(grid, truth.positions[every::every])
    return (simulate_ins(truth, SENSOR_GRADES[cfg.ins.accel_grade],
                         SENSOR_GRADES[cfg.ins.gyro_grade], seed_ins),
            sample_gravimeter(field, cfg.gravimeter.sigma, seed_grav))


def epoch_key(epochs):
    return [(e.time, e.n_accepted, e.n_nis_rejected, e.iterations_used, e.converged,
             [(f.position.tobytes(), f.cov.tobytes(), f.time, f.variability, f.accepted)
              for f in e.fixes]) for e in epochs]


def assert_block_matches_solo(cfg, seeds, grid=None):
    """Run ``seeds`` as one block and each alone; every output must be identical."""
    block = run_block(cfg, seeds, grid)
    assert [r.seed for r in block] == list(seeds)
    for rep in block:
        alone = run_scenario(cfg, rep.seed, grid)
        assert np.array_equal(rep.error_series, alone.error_series, equal_nan=True)
        assert np.array_equal(rep.positions, alone.positions, equal_nan=True)
        assert np.array_equal(rep.aided_flags, alone.aided_flags)
        assert epoch_key(rep.epochs) == epoch_key(alone.epochs)
        assert (rep.diverged, rep.failed) == (alone.diverged, alone.failed)
    return block


SEEDS = [0, 1, 2, 3, 4]


class TestBlock:
    """A lock-step block of seeds against each seed's own R = 1 run."""

    def test_aided_block_reads_the_map_once(self, monkeypatch):
        # One value_at call per aided block, at the true position of every
        # scan: one gravimeter.interval after the start, then each interval.
        calls = []
        real = harness.value_at

        def counted(grid, pos):
            calls.append(np.array(pos))
            return real(grid, pos)

        monkeypatch.setattr(harness, "value_at", counted)
        cfg = small_scenario(duration=300.0, batch_len=5)
        cfg.gravimeter.interval = 20.0
        run_block(cfg, [0, 1, 2])
        times = np.arange(20.0, 301.0, 20.0)
        assert len(calls) == 1 and calls[0].shape == (15, 2)
        assert np.array_equal(calls[0], np.add(cfg.start, np.multiply.outer(times, cfg.velocity)))
        calls.clear()
        cfg.aiding = False
        run_block(cfg, [0, 1, 2])
        assert calls == []

    @pytest.mark.parametrize("mode, aiding", [("standard", True), ("retrodiction", True),
                                              ("standard", False)])
    def test_block_matches_solo_runs(self, mode, aiding):
        cfg = small_scenario(duration=600.0, batch_len=5, aiding=aiding)
        cfg.fusion = replace(cfg.fusion, mode=mode)
        block = assert_block_matches_solo(cfg, SEEDS)
        assert not any(r.failed for r in block)
        accepted = [sum(e.n_accepted for e in r.epochs) for r in block]
        assert all(accepted) if aiding else not any(accepted)

    @pytest.mark.parametrize("where", ["lookup", "closing-lookup", "predict"])
    def test_seed_failing_mid_run_leaves_the_others(self, monkeypatch, where):
        import gravnav.harness as harness

        cfg = small_scenario(duration=600.0, batch_len=5)
        grid = build_grid(cfg)
        accels, values = seed_streams(cfg, grid, 2)
        seen = set()
        if where != "predict":
            real = harness.lookup_candidates
            # Mid-batch, the 12th scan at 120 s; or the 15th at 150 s, the
            # last scan of seed 2's third batch, which then never closes.
            step = 120 if where == "lookup" else 150

            def flaky(grid, s, *args):
                if s in values:
                    seen.add(s)
                    if len(seen) == step // 10:
                        raise NumericalError("forced")
                return real(grid, s, *args)

            monkeypatch.setattr(harness, "lookup_candidates", flaky)
        else:
            real = harness.ukf_predict

            def flaky(belief, run, dt, params, out):
                # Once, at the step from 276 s: the failed row goes on from
                # the start belief with the same accelerations, which must
                # not fail it again.
                j = round(276.0 - belief.time)
                hit = [i for i, a in enumerate(run[j]) if np.array_equal(a, accels[276])] \
                    if 0 <= j < len(run) else []
                if hit and not seen:
                    seen.add(276)
                    before, _ = real(belief, run[:j], dt, params, out=out[:j])
                    raise NumericalError("forced", iteration=j, rows=tuple(hit), belief=before)
                return real(belief, run, dt, params, out=out)

            monkeypatch.setattr(harness, "ukf_predict", flaky)
            step = 277
        block = run_block(cfg, SEEDS, grid)
        for rep in block:
            seen.clear()
            alone = run_scenario(cfg, rep.seed, grid)
            assert np.array_equal(rep.error_series, alone.error_series, equal_nan=True)
            assert np.array_equal(rep.positions, alone.positions, equal_nan=True)
            assert epoch_key(rep.epochs) == epoch_key(alone.epochs)
            assert (rep.diverged, rep.failed) == (alone.diverged, alone.failed) \
                == (rep.seed == 2,) * 2
        failed = block[2].error_series
        assert np.isfinite(failed[:step - 1]).all() and np.isnan(failed[step - 1:]).all()
        assert all(np.isfinite(r.error_series).all() for r in block if r.seed != 2)
        if where == "closing-lookup":
            assert [e.time for e in block[2].epochs] == [50.0, 100.0]
            assert all(r.epochs[2].time == 150.0 for r in block if r.seed != 2)

    @pytest.mark.parametrize("fault, warning", [
        ("smoother-solve", "singular covariance in batch recursion"),
        ("sigma-point-overflow", "invalid value encountered"),
    ])
    def test_numerical_fault_in_one_batch_fails_only_that_seed(self, monkeypatch, fault,
                                                               warning):
        # Seed 2's second batch, closing at 100 s, meets a real fault. Either
        # its velocity prior is 1e250 times too wide, as a huge bias_psd makes
        # it, and the smoother gain stays singular after the jitter; or its
        # row's position variance is infinite at the update, so its sigma
        # points spread without bound and the fix's NIS is NaN. The stacked
        # update has one set of parameters for all rows, so the fault is put
        # in seed 2's row alone: row 2 of the block, row 0 of its solo run.
        cfg = small_scenario(duration=600.0, batch_len=5)
        grid = build_grid(cfg)
        _, values = seed_streams(cfg, grid, 2)
        target = [2]
        if fault == "smoother-solve":
            real_batch = harness.run_batch

            def faulty(problem):
                if problem.scans[0].measurement == values[5]:
                    cov = problem.prior_cov.copy()
                    cov[2:, 2:] *= 1e250
                    problem = replace(problem, prior_cov=cov)
                return real_batch(problem)

            monkeypatch.setattr(harness, "run_batch", faulty)
        else:
            real_apply = harness.apply_batch

            def faulty(belief, rows, fixes, params):
                if fixes[0].time == 100.0 and target[0] in rows:
                    cov = belief.cov.copy()
                    cov[target[0], 0, 0] = cov[target[0], 1, 1] = np.inf
                    belief = replace(belief, cov=cov)
                return real_apply(belief, rows, fixes, params)

            monkeypatch.setattr(harness, "apply_batch", faulty)
        with pytest.warns(RuntimeWarning, match=warning):
            block = run_block(cfg, SEEDS, grid)
        for rep in block:
            target[0] = 0 if rep.seed == 2 else None
            with pytest.warns(RuntimeWarning, match=warning) if rep.seed == 2 else nullcontext():
                alone = run_scenario(cfg, rep.seed, grid)
            assert np.array_equal(rep.error_series, alone.error_series, equal_nan=True)
            assert np.array_equal(rep.positions, alone.positions, equal_nan=True)
            assert epoch_key(rep.epochs) == epoch_key(alone.epochs)
            assert (rep.diverged, rep.failed) == (alone.diverged, alone.failed) \
                == (rep.seed == 2,) * 2
        failed = block[2].error_series
        assert np.isfinite(failed[:99]).all() and np.isnan(failed[99:]).all()
        assert all(np.isfinite(r.error_series).all() for r in block if r.seed != 2)

    @pytest.mark.parametrize("where, step", [("scan", 50), ("predict", 45)])
    def test_block_stops_once_every_seed_has_failed(self, monkeypatch, where, step):
        # Both seeds fail at ``step``: at the first batch, a scan step, or
        # in the predict between the scans at 40 and 50 s.
        real = harness.ukf_predict
        times = []

        def predict(belief, accels, dt, params, out):
            # ``times`` holds the time each predicted step starts from.
            starts = [belief.time + j * dt for j in range(len(accels))]
            if where == "predict" and step - 1 in starts:
                j = starts.index(step - 1)
                times.extend(starts[:j + 1])
                before, _ = real(belief, accels[:j], dt, params, out=out[:j])
                raise NumericalError("forced", iteration=j, rows=tuple(range(accels.shape[1])),
                                     belief=before)
            times.extend(starts)
            return real(belief, accels, dt, params, out=out)

        def boom(problem):
            raise NumericalError("forced", iteration=1)

        monkeypatch.setattr(harness, "ukf_predict", predict)
        if where == "scan":
            monkeypatch.setattr(harness, "run_batch", boom)
        block = run_block(small_scenario(duration=300.0, batch_len=5), [0, 1])
        assert max(times) == step - 1 and times.count(step - 1) == 1
        for rep in block:
            assert rep.failed and rep.diverged
            assert np.isfinite(rep.error_series[:step - 1]).all()
            assert np.isnan(rep.error_series[step - 1:]).all()

    def test_reports_share_the_block_time_axis(self):
        # A pooled block's reports go back to the campaign in one pickle,
        # which then holds their one time axis once.
        reports = run_block(small_scenario(aiding=False), [0, 1])
        assert reports[0].times is reports[1].times
        assert len(pickle.dumps([r.times for r in reports])) < 2 * reports[0].times.nbytes

    def test_campaign_validates_its_config_once(self, monkeypatch):
        # run_campaign checks the config; its block does not check it again.
        calls = []
        real = ScenarioConfig.validate
        monkeypatch.setattr(ScenarioConfig, "validate",
                            lambda cfg: calls.append(cfg) or real(cfg))
        cfg = small_scenario(duration=300.0, batch_len=5, runs=2)
        run_campaign(cfg)
        assert calls == [cfg]
        run_block(cfg, [0])
        assert calls == [cfg]

    def test_variability_fault_is_not_swallowed(self, monkeypatch):
        def broken(grid, cell, template_half_width):
            raise ValueError("forced")

        monkeypatch.setattr(harness, "feature_variability", broken)
        with pytest.raises(ValueError, match="forced"):
            run_block(small_scenario(duration=300.0, batch_len=5), [0, 1])

    @pytest.mark.parametrize("mode", ["standard", "retrodiction"])
    def test_batch_of_empty_scans(self, monkeypatch, mode):
        # In retrodiction the other seeds replay the batch, and seed 1's row
        # rides through the stacked replay with no fix.
        import gravnav.harness as harness

        cfg = small_scenario(duration=300.0, batch_len=5)
        cfg.fusion = replace(cfg.fusion, mode=mode)
        grid = build_grid(cfg)
        _, values = seed_streams(cfg, grid, 1)
        real = harness.lookup_candidates

        def blind(grid, s, sigma, *args):
            # Seed 1 finds nothing in its second batch (scans 6-10).
            if s in values[5:10]:
                return CandidateSet.empty(s, sigma)
            return real(grid, s, sigma, *args)

        monkeypatch.setattr(harness, "lookup_candidates", blind)
        block = assert_block_matches_solo(cfg, SEEDS, grid)
        empty = block[1].epochs[1]
        assert (empty.time, empty.fixes, empty.iterations_used) == (100.0, (), 0)
        assert all(r.epochs[1].fixes for r in block if r.seed != 1)

    @pytest.mark.parametrize("mode", ["standard", "retrodiction"])
    def test_nis_rejected_fix_of_one_seed(self, monkeypatch, mode):
        # Seed 3's second batch offers fixes 2 km north of its smoothed track:
        # the NIS gate rejects each of them, while the other seeds' fixes at
        # the same times apply.
        cfg = small_scenario(duration=300.0, batch_len=5)
        cfg.fusion = replace(cfg.fusion, mode=mode)
        grid = build_grid(cfg)
        _, values = seed_streams(cfg, grid, 3)
        real_batch, real_fixes = harness.run_batch, harness.batch_fixes
        far = []

        def marked(problem):
            est = real_batch(problem)
            if problem.scans[0].measurement == values[5]:
                far.append(est)
            return est

        def shifted(est, variabilities, params):
            fixes = real_fixes(est, variabilities, params)
            if any(est is e for e in far):
                fixes = tuple(replace(f, position=f.position + [0.0, 2000.0]) for f in fixes)
            return fixes

        monkeypatch.setattr(harness, "run_batch", marked)
        monkeypatch.setattr(harness, "batch_fixes", shifted)
        block = assert_block_matches_solo(cfg, SEEDS, grid)
        rejected = block[3].epochs[1]
        assert rejected.n_accepted == 0
        assert rejected.n_nis_rejected == sum(f.accepted for f in rejected.fixes) > 0
        for rep in block:
            if rep.seed != 3:
                assert rep.epochs[1].n_accepted > 0 and rep.epochs[1].n_nis_rejected == 0
        assert not any(r.failed for r in block)

    def test_retrodiction_replay_is_lock_stepped(self, monkeypatch):
        # A 3-seed retrodiction block replays each batch with one 3-row run
        # of predict steps per replayed segment, from fix time to fix time
        # and from its last accepted fix up to the live time (each batch's
        # last fix is gated out here, so the replay runs past the last
        # applied fix), and makes one update per fix time for the whole block.
        cfg = small_scenario(duration=300.0, batch_len=5)
        cfg.fusion = replace(cfg.fusion, mode="retrodiction")
        predicts, updates = [], []
        real_predict, real_update = harness.ukf_predict, fusion.ukf_update
        real_fixes = harness.batch_fixes

        def predict(belief, accels, dt, params, out):
            predicts.append((belief.time, len(accels), len(belief.state)))
            return real_predict(belief, accels, dt, params, out=out)

        def update(belief, position, cov, params):
            updates.append((belief.time, len(belief.state)))
            return real_update(belief, position, cov, params)

        def last_gated_out(est, variabilities, params):
            *fixes, last = real_fixes(est, variabilities, params)
            return (*fixes, replace(last, accepted=False))

        monkeypatch.setattr(harness, "ukf_predict", predict)
        monkeypatch.setattr(fusion, "ukf_update", update)
        monkeypatch.setattr(harness, "batch_fixes", last_gated_out)
        block = run_block(cfg, [0, 1, 2])
        assert not any(r.failed for r in block)
        assert {rows for *_, rows in predicts} == {3}
        # A replay run steps back in time; the block's own runs go once
        # through every second.
        live, replayed, segments = [], [], []
        for t, steps, _ in predicts:
            seconds = [t + j for j in range(steps)]
            if live and t <= live[-1]:
                replayed += seconds
                segments.append((t, steps))
            else:
                live += seconds
        assert live == [float(t) for t in range(int(cfg.duration))]
        accepted = {}
        for rep in block:
            for epoch in rep.epochs:
                for fix in epoch.fixes:
                    if fix.accepted:
                        accepted.setdefault(epoch.time, []).append(fix.time)
        assert len(accepted) == 6  # every batch aids
        expected = [float(t) for close, times in sorted(accepted.items())
                    for t in range(int(min(times)), int(close))]
        assert replayed == expected
        bounds = [[*sorted(set(times)), close] for close, times in sorted(accepted.items())]
        assert segments == [(a, b - a) for ends in bounds for a, b in zip(ends, ends[1:])]
        fix_times = sorted({t for times in accepted.values() for t in times})
        assert updates == [(t, sum(times.count(t) for times in accepted.values()))
                           for t in fix_times]
        assert {rows for _, rows in updates} == {3}

    def test_nodata_next_to_route_fails_no_seed(self, tmp_path):
        # A cell whose gradient stencil touches the hole is no candidate, and
        # a patch without data has variability 0: the hole is no fault.
        cfg = small_scenario(duration=600.0, runs=8)
        grid = build_grid(cfg)
        row, col = grid.cell_of(np.array([8000.0, 2100.0]))  # two cells north of the route
        values = grid.values.copy()
        values[row - 1:row + 2, col - 1:col + 2] = grid.nodata
        save_grid(replace(grid, values=values), tmp_path / "holed.asc")
        cfg.map = MapSource(file=str(tmp_path / "holed.asc"))
        camp = run_campaign(cfg, jobs=1)
        assert not any(r.failed for r in camp.reports)
        assert all(np.isfinite(r.error_series).all() for r in camp.reports)
        assert_block_matches_solo(cfg, list(camp.seeds), build_grid(cfg))

    def test_campaign_outputs_identical_for_uneven_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)  # so --jobs 3 is 3 blocks
        cfg = small_scenario(duration=300.0, runs=5)
        digests = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"j{jobs}"
            write_campaign_outputs(run_campaign(cfg, jobs=jobs), out)
            digests.append({p.relative_to(out).as_posix(): p.read_bytes()
                            for p in sorted(out.rglob("*.csv"))})
        assert len(digests[0]) == 7  # campaign, summary and five runs
        assert digests[0] == digests[1] == digests[2]


def per_row_csv(header, *columns):
    """A series file as the writers formatted it row by row before they
    streamed blocks: ``format(x, ".17g")`` per float, ``int`` per flag."""
    rows = "".join(f"{format(float(a), '.17g')},{format(float(b), '.17g')},{int(c)}\n"
                   for a, b, c in zip(*columns))
    return header + rows


class TestCampaignOutputs:
    def test_series_bytes_equal_the_per_row_format(self, tmp_path):
        # more rows than one write block, and every float that formats
        # specially: nan, both infinities, -0, the least subnormal, a huge
        # value and integer-valued floats
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, 7.0, -3.0,
                   0.1, 2.0 ** 53, 1.0 / 3.0]
        n = 2 * harness._ROWS_PER_BLOCK + 37
        times = np.arange(1.0, n + 1.0)
        values = np.resize(np.array(special), n)
        flags = np.arange(n) % 3 == 0
        live = np.arange(n) % 5
        run = harness.RunReport(seed=4, times=times, error_series=values, positions=None,
                                aided_flags=flags, epochs=(), diverged=False,
                                terminal_error=float("nan"))
        camp = harness.CampaignReport(times=times, rms_series=values[::-1],
                                      n_live_runs=live, mean_error=-0.0, divergence_rate=5e-324,
                                      seeds=(4,), reports=(run,), config_digest="abc")
        write_campaign_outputs(camp, tmp_path)
        assert (tmp_path / "runs" / "4.csv").read_text(encoding="utf-8") == per_row_csv(
            "time_s,error_m,aided_flag\n", times, values, flags)
        assert (tmp_path / "campaign.csv").read_text(encoding="utf-8") == per_row_csv(
            "time_s,rms_error_m,n_live_runs\n", times, values[::-1], live)
        assert (tmp_path / "summary.csv").read_text(encoding="utf-8") == (
            "mean_error_m,divergence_rate,config_hash\n-0,4.9406564584124654e-324,abc\n")

    def test_csv_rms_recompute_oracle(self, tmp_path):
        cfg = small_scenario(duration=300.0, runs=3)
        camp = run_campaign(cfg)
        write_campaign_outputs(camp, tmp_path)

        per_run = {}
        for seed in camp.seeds:
            with open(tmp_path / "runs" / f"{seed}.csv", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            per_run[seed] = np.array([float(r["error_m"]) for r in rows])
        stacked = np.vstack([per_run[s] for s in camp.seeds])
        recomputed = np.sqrt(np.mean(stacked ** 2, axis=0))

        with open(tmp_path / "campaign.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        written = np.array([float(r["rms_error_m"]) for r in rows])
        assert np.allclose(written, recomputed, rtol=1e-15, atol=0.0)

    def test_summary_columns(self, tmp_path):
        cfg = small_scenario(duration=300.0, runs=2)
        camp = run_campaign(cfg)
        write_campaign_outputs(camp, tmp_path)
        with open(tmp_path / "summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["mean_error_m"]) == camp.mean_error
        assert float(rows[0]["divergence_rate"]) == camp.divergence_rate
        assert rows[0]["config_hash"] == camp.config_digest
