import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

import gravnav
import gravnav.cli as cli
import gravnav.errors as errors
import gravnav.harness as harness
from gravnav.cli import main
from gravnav.config import parse_config, parse_config_text
from gravnav.errors import NumericalError
from gravnav.geomap import load_grid, save_grid

TOY_MAP_KEYS = """\
map.rows = 60
map.cols = 300
map.cell_size = 50
map.background = 9.79
map.bumps = 3000,1500,2e-3,1200; 7000,1400,-1.6e-3,1500; 11000,1700,2.4e-3,1300
map.noise_scale = 1.2e-4
map.noise_corr_cells = 6
map.seed = 5
"""

TOY_SCENARIO = TOY_MAP_KEYS + """\
start = 1000,1500
velocity = 22,0
duration = 300
gravimeter.sigma = 1e-5
pmht.T = 5
pmht.spread_cov = true
monte_carlo.runs = 2
monte_carlo.base_seed = 0
"""


# A million by a million cells: 7.28 TiB of float64, over the map-size cap.
HUGE_MAP = "map.rows = 1000000\nmap.cols = 1000000\n"

DEMO_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "demo.cfg")
CORRIDOR_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "corridor.cfg")
# The benchmark's recorded SHA-256 digests of its workloads' campaign outputs.
PERFBENCH_DIGESTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                 "digests.json")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

# SHA-256 of the demo campaign's outputs at --seed 0 --jobs 1.
DEMO_DIGESTS = {
    "campaign.csv": "6ce820d7917b424b50c1dd1f35096ce8f0216c07265730ac61433dcebd8d3b19",
    "summary.csv": "9c6590c229bf4001ffe87c4f2f471ba352506cc0cb6a1c4099d96412a40a86f0",
    "runs/0.csv": "d4f9faf2a0165a4cdf2b5def0a797f6cef938f3a72ab6192da2de63a02a8a1e0",
    "runs/1.csv": "6219393651391115da5302eca31416eeb0a61f8c2c57f22b4e3abe06988a1822",
}

# The same, with fusion.mode = retrodiction: 29 fixes applied per run.
DEMO_RETRO_DIGESTS = {
    "campaign.csv": "db397fb76d6aa519d0cf08284d7485018e08ee0209cce112cc1354ce6dc5a2a8",
    "summary.csv": "020e91a99687e8ddd890e9506c192f3069b0fc8724aeb0b67c597db870c4ee65",
    "runs/0.csv": "351d5a049516e8d6431e12dc0f6e78ecd1dde8ff6394287eadc218ab35e388a1",
    "runs/1.csv": "8704df1432d987ee16c0933a528337e9aa85b43a4bd4a0c9ae1abf1de7c572a9",
}

# The same with monte_carlo.runs = 6: one block hands six seeds' fixes off
# together, and every seed keeps the bits of its own run.
DEMO_RETRO6_DIGESTS = {
    "campaign.csv": "89fa60fd77a10de2d8cc3c19a273f949b8e26665c872c5e1dd90028312596fd1",
    "summary.csv": "180310101161ea392fb00486dd4ad656d69e0da3c428aab8562903791082c429",
    "runs/0.csv": "351d5a049516e8d6431e12dc0f6e78ecd1dde8ff6394287eadc218ab35e388a1",
    "runs/1.csv": "8704df1432d987ee16c0933a528337e9aa85b43a4bd4a0c9ae1abf1de7c572a9",
    "runs/2.csv": "febd9ab358454d221698c67a279c0d7e7c156e4c272828e56ad9bd82d36964e6",
    "runs/3.csv": "3cfec13d59bee6a0019b3024636bd0a9b55018a83f1a9adae5011c88448d149e",
    "runs/4.csv": "c6a6689d46a43520c9c16623b4d8a7f8043381a6bc427a147984d52b6e1570ec",
    "runs/5.csv": "f85de8673530692864889265f454ade923d382ccce032430be91d67587fae035",
}


# SHA-256 of map.asc from `gravnav genmap --config configs/demo.cfg`, recorded
# from the one-thread map build: the rows a worker builds must not move a bit.
DEMO_MAP_DIGEST = "c1ecaa21bafc6f48148dd05599bd13aecde1f3c41354ad9d467e5dc6dbf3c498"

# Runs the CLI with ``argv[2:]``, first pinned to one CPU when ``argv[1]`` is "pin".
PINNABLE_CLI = """\
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from gravnav.cli import main
sys.exit(main(sys.argv[2:]))
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_env():
    """The environment of a child ``gravnav`` process on this checkout's sources."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
        os.path.abspath(gravnav.__file__))))


def error_types(cls=errors.GravNavError):
    """Every exception type below ``cls``, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from error_types(sub)


def tabled_exit_codes():
    """``{exception name: exit code}`` from README's exit-code table."""
    with open(README, encoding="utf-8") as fh:
        rows = fh.read().split("| exception | meaning | exit |\n", 1)[1].splitlines()[1:]
    codes = {}
    for row in itertools.takewhile(lambda line: line.startswith("|"), rows):
        names, _, code = (cell.strip() for cell in row.strip("|").split("|"))
        for name in re.findall(r"`(\w+)`", names):
            codes[name] = int(re.match(r"\d+", code).group())
    return codes


class TestGenmap:
    def test_roundtrip_and_stats(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", TOY_MAP_KEYS)
        out = tmp_path / "out"
        assert main(["genmap", "--config", cfg, "--out", str(out)]) == 0
        grid = load_grid(out / "map.asc")
        assert grid.n_rows == 60 and grid.n_cols == 300
        text = capsys.readouterr().out
        assert "value_min:" in text and "variability_p50:" in text
        assert text.startswith("generated_at:")

    def test_same_spec_and_seed_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt", TOY_MAP_KEYS)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["genmap", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["genmap", "--config", cfg, "--out", str(out2)]) == 0
        assert sha(out1 / "map.asc") == sha(out2 / "map.asc")

    @pytest.mark.parametrize("cpus", ["pin", "all"], ids=["one-cpu", "all-cpus"])
    def test_demo_map_pinned(self, tmp_path, cpus):
        if cpus == "pin" and not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity on this platform")
        out = tmp_path / "out"
        subprocess.run([sys.executable, "-c", PINNABLE_CLI, cpus, "genmap",
                        "--config", DEMO_CFG, "--out", str(out)],
                       env=cli_env(), capture_output=True, timeout=120, check=True)
        assert sha(out / "map.asc") == DEMO_MAP_DIGEST

    def test_malformed_key_exit_2_names_key(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", TOY_MAP_KEYS + "map.rowz = 10\n")
        assert main(["genmap", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "map.rowz" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["genmap", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_invalid_setting_exit_2_names_key_writes_no_map(self, tmp_path, capsys):
        with open(DEMO_CFG, encoding="utf-8") as fh:
            text = fh.read()
        cfg = write(tmp_path / "cfg.txt", text + "map.noise_scale = -1\n")
        out = tmp_path / "o"
        assert main(["genmap", "--config", cfg, "--out", str(out)]) == 2
        assert "map.noise_scale" in capsys.readouterr().err
        assert not (out / "map.asc").exists()


class TestCampaign:
    def test_toy_campaign_outputs(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO)
        out = tmp_path / "out"
        assert main(["campaign", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0] == "mean_error_m,divergence_rate,config_hash"
        assert len(summary) == 2
        assert (out / "campaign.csv").exists()
        assert (out / "runs" / "0.csv").exists() and (out / "runs" / "1.csv").exists()

    def test_missing_map_file_exit_2(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt",
                    "map.file = /definitely/not/here.asc\nduration = 300\n")
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_map_file_exit_2_with_workers(self, tmp_path, capsys):
        missing = tmp_path / "not-here.asc"
        cfg = write(tmp_path / "cfg.txt",
                    f"map.file = {missing}\nduration = 300\nmonte_carlo.runs = 2\n")
        out = tmp_path / "o"
        assert main(["campaign", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 2
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()

    def test_identical_invocations_identical_summaries(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["campaign", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["campaign", "--config", cfg, "--out", str(out2)]) == 0
        assert sha(out1 / "summary.csv") == sha(out2 / "summary.csv")
        assert sha(out1 / "campaign.csv") == sha(out2 / "campaign.csv")

    def test_jobs_invariance(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO)
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(["campaign", "--config", cfg, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["campaign", "--config", cfg, "--out", str(out2), "--jobs", "2"]) == 0
        assert sha(out1 / "summary.csv") == sha(out2 / "summary.csv")
        assert sha(out1 / "campaign.csv") == sha(out2 / "campaign.csv")

    @pytest.mark.parametrize("key, value", [
        *(pytest.param(key, "0", id=key)
          for key in ("pmht.n_max", "pmht.max_iters", "pmht.gamma", "fusion.window_len")),
        *(pytest.param(key, value, id=f"{key}={value}") for key, value in (
            ("fusion.v_floor", "0"),
            ("fusion.variability_threshold", "1.5"),
            ("pmht.grad_floor", "0"),
            ("gravimeter.sigma", "-1"),
            ("gravimeter.sigma", "0"),
            ("gravimeter.interval", "2.5"),
            # Within 1e-9 of a whole step, but not one.
            ("gravimeter.interval", "10.0000000001"),
            ("gravimeter.interval", "inf"),
            ("fusion.alpha", "0"),
            ("fusion.template_half_width", "-1"),
            ("fusion.template_half_width", "0"),
            ("pmht.k_sig", "0"),
            ("fusion.nis_gate", "0"),
            ("map.noise_corr_cells", "-3"),
            ("pmht.T", "40"),
            ("duration", "inf"),
            ("duration", "0.5"),
            ("duration", "300.4"),
            ("duration", "1e12"),
            ("gravimeter.interval", "1e-10"),
            ("start", "nan,0"),
            *((key, "inf") for key in (
                "map.cell_size", "map.noise_corr_cells", "pmht.gamma", "pmht.k_sig",
                "fusion.alpha", "fusion.bias_psd", "fusion.q_accel", "init.pos_sigma",
                "divergence.error_threshold_m", "divergence.sustain_s")),
            # Finite, but the smoothing kernel alone would need 58 TiB.
            ("map.noise_corr_cells", "1e12"),
            # Finite, but the nav filter's covariance over the flight overflows;
            # 1e154 and 1e152 have finite squares.
            *((key, "1e200") for key in (
                "init.pos_sigma", "init.vel_sigma", "init.bias_sigma")),
            ("init.pos_sigma", "1e154"),
            ("init.vel_sigma", "1e152"),
            # Finite, but an infinite spread factor n + lambda overflows every
            # belief, and so do a huge bias walk and accelerometer noise.
            ("fusion.alpha", "1e200"),
            ("fusion.bias_psd", "1e305"),
            ("fusion.q_accel", "1e305"),
            ("map.bumps", "3000,1500,2e-3,0"),
            ("map.file", "map.asc"),
        )),
        # The same with aiding off, where no lookup would catch the overflow.
        *(pytest.param(key, f"{value}\naiding = false", id=f"{key}={value}-unaided")
          for key, value in (("fusion.alpha", "1e200"), ("fusion.bias_psd", "1e305"))),
    ])
    def test_zero_setting_exit_2_names_key(self, tmp_path, capsys, key, value):
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + f"{key} = {value}\n")
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "campaign"])
    def test_route_off_the_map_exit_2_before_simulation(self, tmp_path, capsys, monkeypatch,
                                                        command):
        # The route's end point is checked against the map before the truth
        # of this long flight is simulated.
        def no_simulation(*args, **kwargs):
            raise AssertionError("the truth was simulated before the route check")

        monkeypatch.setattr(harness, "simulate_truth", no_simulation)
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + "duration = 1e6\n")
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "trajectory leaves the map extent" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["genmap", "run", "campaign"])
    def test_output_path_not_a_directory_exit_2_before_simulation(self, tmp_path, capsys,
                                                                  monkeypatch, command):
        # The output directory is made before the map is built or any run
        # starts, so a path under a file fails first.
        def no_work(*args, **kwargs):
            raise AssertionError("simulation work began before the output directory was made")

        for name in ("run_campaign", "run_scenario", "build_grid"):
            monkeypatch.setattr(cli, name, no_work)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO)
        jobs = ["--jobs", "2"] if command == "campaign" else []
        assert main([command, "--config", cfg, "--out", str(blocker / "x"), *jobs]) == 2
        err = capsys.readouterr().err
        assert str(blocker / "x") in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["fusion.mode", "mean_error_window", "ins.accel_grade",
                                     "ins.gyro_grade"])
    @pytest.mark.parametrize("command", [["campaign", "--jobs", "1"],
                                         ["campaign", "--jobs", "2"], ["run"]],
                             ids=["campaign-j1", "campaign-j2", "run"])
    def test_unknown_choice_exit_2_before_the_map(self, tmp_path, capsys, monkeypatch, key,
                                                  command):
        def no_map(cfg):
            raise AssertionError("the map was built before the config was checked")

        monkeypatch.setattr(harness, "build_grid", no_map)
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + f"{key} = sideways\n")
        out = tmp_path / "o"
        assert main([*command, "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["genmap", "run", "campaign"])
    def test_template_without_neighbours_exit_2_before_the_map(self, tmp_path, capsys,
                                                               monkeypatch, command):
        # A zero half width leaves the template no cell but its center, so no
        # fix would ever pass the variability gate.
        def no_map(cfg):
            raise AssertionError("the map was built before the config was checked")

        monkeypatch.setattr(harness, "build_grid", no_map)
        monkeypatch.setattr(cli, "build_grid", no_map)
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + "fusion.template_half_width = 0\n")
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "fusion.template_half_width" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["fusion.kappa = -6", "fusion.kappa = -7",
                                      "fusion.alpha = 1e-9"])
    @pytest.mark.parametrize("command", [["campaign", "--jobs", "1"],
                                         ["campaign", "--jobs", "2"], ["run"]],
                             ids=["campaign-j1", "campaign-j2", "run"])
    def test_spread_factor_not_positive_exit_2_names_keys(self, tmp_path, capsys, monkeypatch,
                                                          line, command):
        # n + lambda = alpha^2 (6 + kappa) is 0 or below: the unscented
        # weights would divide by zero, or the sigma points have no square root.
        def no_simulation(*args, **kwargs):
            raise AssertionError("the truth was simulated before the config was checked")

        monkeypatch.setattr(harness, "simulate_truth", no_simulation)
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + line + "\n")
        out = tmp_path / "o"
        assert main([*command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "fusion.alpha" in err and "fusion.kappa" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_measurement_covariance_fault_fails_only_its_seeds(self, tmp_path, capsys, jobs):
        # A gradient floor of 1e300 gives every candidate a zero noise
        # covariance, so the EM's measurement covariance stays singular after
        # its jitter: each seed fails, and the campaign still writes its outputs.
        with open(DEMO_CFG, encoding="utf-8") as fh:
            cfg = write(tmp_path / "cfg.txt", fh.read() + "pmht.grad_floor = 1e300\n")
        out = tmp_path / "o"
        assert main(["campaign", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        assert "divergence_rate: 1\n" in capsys.readouterr().out
        assert (out / "campaign.csv").exists() and (out / "summary.csv").exists()
        assert sorted(p.name for p in (out / "runs").iterdir()) == ["0.csv", "1.csv"]

    @pytest.mark.parametrize("command", [["run"], ["campaign", "--jobs", "1"],
                                         ["campaign", "--jobs", "2"]],
                             ids=["run", "campaign-jobs-1", "campaign-jobs-2"])
    def test_unbounded_gate_covers_the_map_exit_0(self, tmp_path, command):
        # gamma * P_jj overflows, so the gate box covers the whole map. A
        # child process prints the far-candidate warnings of such a wide gate
        # rather than raising them.
        with open(DEMO_CFG, encoding="utf-8") as fh:
            cfg = write(tmp_path / "cfg.txt", fh.read() + "pmht.gamma = 1e308\n")
        done = subprocess.run([sys.executable, "-m", "gravnav.cli", command[0], "--config", cfg,
                               "--out", str(tmp_path / "o"), *command[1:]],
                              env=cli_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and "Traceback" not in done.stderr

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2_names_flag(self, tmp_path, capsys, jobs):
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO)
        out = tmp_path / "o"
        assert main(["campaign", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, argv, named", [
        ("monte_carlo.base_seed = -3\n", ["campaign"], "monte_carlo.base_seed"),
        ("map.seed = -1\n", ["campaign"], "map.seed"),
        ("map.seed = -1\n", ["genmap"], "map.seed"),
        ("", ["run", "--seed", "-1"], "--seed"),
        ("", ["campaign", "--seed", "-5"], "--seed"),
        (HUGE_MAP, ["campaign"], "map.rows * map.cols"),
        (HUGE_MAP, ["genmap"], "map.rows * map.cols"),
        # A 7.63 GiB padded strip per smoothing worker.
        ("map.noise_corr_cells = 1e6\n", ["run"], "map.noise_corr_cells"),
        ("map.noise_corr_cells = 1e6\n", ["genmap"], "map.noise_corr_cells"),
    ], ids=["base_seed", "map.seed", "genmap-map.seed", "run--seed", "campaign--seed",
            "map-cells", "genmap-map-cells", "noise-corr", "genmap-noise-corr"])
    def test_negative_seed_exit_2_names_it_before_the_map(self, tmp_path, capsys, monkeypatch,
                                                           extra, argv, named):
        def no_map(cfg):
            raise AssertionError("the map was built before the seed was checked")

        monkeypatch.setattr(harness, "build_grid", no_map)
        monkeypatch.setattr(cli, "build_grid", no_map)
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + extra)
        out = tmp_path / "o"
        assert main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("extra, named", [
        # A non-finite setting fails validation, which names its key.
        ("map.origin_x = nan\n", ["map.origin_x"]),
        ("map.origin_x = inf\n", ["map.origin_x"]),
        ("map.bumps = 3000,1500,2e-3,nan\n", ["map.bumps"]),
        ("map.background = inf\n", ["map.background"]),
        # Finite settings whose sum overflows fail the built map's check,
        # which names every key that feeds the cell values.
        ("map.bumps = 3000,1500,1e308,1200; 3000,1500,1e308,1200\n",
         ["map.background", "map.bumps", "map.origin_x", "map.noise_scale"]),
    ], ids=["origin_x-nan", "origin_x-inf", "bump-width-nan", "background-inf",
            "bump-sum-overflows"])
    @pytest.mark.parametrize("argv", [
        ["run"], ["campaign", "--jobs", "1"], ["campaign", "--jobs", "2"], ["genmap"],
    ], ids=["run", "campaign-j1", "campaign-j2", "genmap"])
    def test_non_finite_map_exit_2_names_the_map_keys(self, tmp_path, capsys, extra, named,
                                                      argv):
        with open(DEMO_CFG, encoding="utf-8") as fh:
            cfg = write(tmp_path / "cfg.txt", fh.read() + extra)
        out = tmp_path / "o"
        assert main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        for key in named:
            assert key in err
        assert not out.exists()

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker counts the campaign pool is asked for; it starts no
        process and maps in this one."""
        asked = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_WORKER_CFG", None)
        monkeypatch.setattr(harness, "_WORKER_GRID", None)
        return asked

    @pytest.mark.parametrize("runs, started", [(2, [2]), (1, [])])
    def test_workers_capped_at_run_count(self, tmp_path, monkeypatch, pools, runs, started):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 8)
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + f"monte_carlo.runs = {runs}\n")
        out = tmp_path / "o"
        assert main(["campaign", "--config", cfg, "--out", str(out), "--jobs", "8"]) == 0
        assert pools == started
        assert len(list((out / "runs").iterdir())) == runs

    @pytest.mark.parametrize("jobs, runs, cpus", [
        (5000, 4, 3), (2, 4, 3), (4, 3, 8), (8, 4, 1),
    ], ids=["cpus", "jobs", "runs", "one-cpu"])
    def test_workers_capped_at_usable_cpus(self, tmp_path, monkeypatch, capsys, pools, jobs,
                                           runs, cpus):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + f"monte_carlo.runs = {runs}\n")
        out = tmp_path / "o"
        assert main(["campaign", "--config", cfg, "--out", str(out),
                     "--jobs", str(jobs)]) == 0
        workers = min(jobs, runs, cpus)
        assert pools == ([workers] if workers > 1 else [])
        assert len(list((out / "runs").iterdir())) == runs

    def test_exact_seed_same_hash_from_config_and_flag(self, tmp_path, capsys):
        # Above 2**53, where a float seed would round to an even neighbour.
        seed = 2**53 + 1
        hashes = []
        for extra, argv in ((f"monte_carlo.base_seed = {seed}\n", []),
                            ("", ["--seed", str(seed)])):
            cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + "monte_carlo.runs = 1\n" + extra)
            out = tmp_path / f"o{len(hashes)}"
            assert main(["campaign", "--config", cfg, "--out", str(out), *argv]) == 0
            lines = capsys.readouterr().out.splitlines()
            hashes += [line for line in lines if line.startswith("config_hash: ")]
            assert os.listdir(out / "runs") == [f"{seed}.csv"]
        assert len(hashes) == 2 and hashes[0] == hashes[1]

    def test_demo_outputs_pinned(self, tmp_path):
        # Any moved output bit fails here; a deliberate change re-records these.
        out = tmp_path / "out"
        assert main(["campaign", "--config", DEMO_CFG, "--out", str(out),
                     "--seed", "0", "--jobs", "1"]) == 0
        assert {name: sha(out / name) for name in DEMO_DIGESTS} == DEMO_DIGESTS

    def test_demo_retrodiction_outputs_pinned(self, tmp_path):
        with open(DEMO_CFG, encoding="utf-8") as fh:
            text = fh.read()
        cfg = write(tmp_path / "cfg.txt", text + "fusion.mode = retrodiction\n")
        out = tmp_path / "out"
        assert main(["campaign", "--config", cfg, "--out", str(out),
                     "--seed", "0", "--jobs", "1"]) == 0
        assert {name: sha(out / name) for name in DEMO_RETRO_DIGESTS} == DEMO_RETRO_DIGESTS

    def test_demo_retrodiction_six_seed_block_pinned(self, tmp_path):
        with open(DEMO_CFG, encoding="utf-8") as fh:
            text = fh.read()
        cfg = write(tmp_path / "cfg.txt",
                    text + "fusion.mode = retrodiction\nmonte_carlo.runs = 6\n")
        out = tmp_path / "out"
        assert main(["campaign", "--config", cfg, "--out", str(out),
                     "--seed", "0", "--jobs", "1"]) == 0
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv"))
        assert written == sorted(DEMO_RETRO6_DIGESTS)
        assert {name: sha(out / name) for name in written} == DEMO_RETRO6_DIGESTS

    @pytest.mark.parametrize("workload, extra", [
        ("corridor-std", ""), ("corridor-retro", "fusion.mode = retrodiction\n"),
    ])
    def test_corridor_outputs_pinned(self, tmp_path, workload, extra):
        # The benchmark's aided workloads at base seed 0 write the bits it
        # recorded.
        with open(PERFBENCH_DIGESTS, encoding="utf-8") as fh:
            pinned = json.load(fh)[workload]["0"]
        with open(CORRIDOR_CFG, encoding="utf-8") as fh:
            cfg = write(tmp_path / "cfg.txt", fh.read() + "monte_carlo.runs = 1\n" + extra)
        out = tmp_path / "o"
        assert main(["campaign", "--config", cfg, "--out", str(out), "--seed", "0",
                     "--jobs", "1"]) == 0
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*.csv"))
        assert written == sorted(pinned)
        assert {name: sha(out / name) for name in written} == pinned

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["campaign", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["campaign", "--config", cfg, "--out", str(out2),
                     "--seed", "11"]) == 0
        assert sha(out1 / "summary.csv") != sha(out2 / "summary.csv")


class TestRun:
    def test_run_writes_csv(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        assert (out / "3.csv").exists()
        text = capsys.readouterr().out
        assert "terminal_error_m:" in text and "seed: 3" in text

    def test_numerical_failure_exit_3(self, tmp_path, monkeypatch):
        import gravnav.harness as harness

        def boom(problem):
            raise NumericalError("forced", iteration=1)

        monkeypatch.setattr(harness, "run_batch", boom)
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO)
        assert main(["run", "--config", cfg, "--seed", "0"]) == 3

    @pytest.mark.parametrize("fault, line, warning", [
        # The smoother gain stays singular after the jitter.
        ({"bias_psd": 1e300}, "", "regularized"),
        # The sigma-point spread overflows and the belief turns NaN.
        ({"alpha": 1e200}, "", "invalid value"),
        # The same with aiding off: the predict alone must fail the run.
        ({"alpha": 1e200}, "aiding = false\n", "invalid value"),
    ], ids=["bias_psd", "alpha", "alpha-unaided"])
    def test_numerical_fault_fails_the_run_exit_3(self, tmp_path, capsys, monkeypatch, fault,
                                                  line, warning):
        # validate() rejects these filter settings, so they are slipped in
        # past it: every predict and batch update of the run gets them.
        real_predict, real_apply = harness.ukf_predict, harness.apply_batch
        monkeypatch.setattr(harness, "ukf_predict", lambda belief, accels, dt, params, out:
                            real_predict(belief, accels, dt, replace(params, **fault), out=out))
        monkeypatch.setattr(harness, "apply_batch", lambda belief, rows, fixes, params:
                            real_apply(belief, rows, fixes, replace(params, **fault)))
        with open(DEMO_CFG, encoding="utf-8") as fh:
            cfg = write(tmp_path / "cfg.txt", fh.read() + line)
        with pytest.warns(RuntimeWarning) as got:
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert any(warning in str(w.message) for w in got)
        assert "diverged: true" in capsys.readouterr().out
        # A campaign counts each failed seed as diverged and writes its outputs.
        campaign = write(tmp_path / "campaign.txt",
                         (tmp_path / "cfg.txt").read_text() + "monte_carlo.runs = 3\n")
        out = tmp_path / "c"
        with pytest.warns(RuntimeWarning):
            assert main(["campaign", "--config", campaign, "--out", str(out)]) == 0
        assert "divergence_rate: 1\n" in capsys.readouterr().out
        assert (out / "summary.csv").exists() and len(list((out / "runs").iterdir())) == 3

    def test_measurement_covariance_fault_exit_3(self, tmp_path, capsys):
        with open(DEMO_CFG, encoding="utf-8") as fh:
            cfg = write(tmp_path / "cfg.txt", fh.read() + "pmht.grad_floor = 1e300\n")
        assert main(["run", "--config", cfg]) == 3
        assert "diverged: true" in capsys.readouterr().out

    def test_non_finite_grid_header_exit_2_names_line(self, tmp_path, capsys):
        grid = tmp_path / "g.asc"
        grid.write_text("ncols nan\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                        "nodata_value -9999\n1 2\n3 4\n", encoding="utf-8")
        scenario = TOY_SCENARIO.replace(TOY_MAP_KEYS, f"map.file = {grid}\n")
        cfg = write(tmp_path / "cfg.txt", scenario)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "line 1: ncols must be finite" in err and "Traceback" not in err

    def test_config_directory_exit_2_names_path(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Traceback" not in err

    def test_config_not_utf8_exit_2_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(TOY_SCENARIO.encode("utf-8") + b"# \xff\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "Traceback" not in err


def forbid_map_build(monkeypatch):
    """Make every map build, synthetic or from a file, fail the test."""
    def no_map(*args, **kwargs):
        raise AssertionError("an unaided run built the map")

    monkeypatch.setattr(harness, "gen_synthetic_map", no_map)
    monkeypatch.setattr(harness, "load_grid", no_map)


def toy_map_file(tmp_path, edit=None):
    """The toy map saved as a grid file, with ``edit(lines)`` applied to its
    lines, and the toy scenario on it, unaided."""
    path = tmp_path / "map.asc"
    save_grid(harness.build_grid(parse_config_text(TOY_MAP_KEYS)), path)
    if edit is not None:
        lines = path.read_text(encoding="utf-8").splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return TOY_SCENARIO.replace(TOY_MAP_KEYS, f"map.file = {path}\n") + "aiding = false\n"


COMMANDS = pytest.mark.parametrize("command", [
    ["run"], ["campaign", "--jobs", "1"], ["campaign", "--jobs", "2"],
], ids=["run", "campaign-j1", "campaign-j2"])


class TestNeverAided:
    """A run with aiding on that accepts no fix is reported, not passed off
    as aided: its errors are dead reckoning's."""

    def test_gate_that_admits_nothing_is_reported(self, tmp_path, capsys):
        # A gate of 0.001 sigma leaves every scan of both seeds empty.
        with open(DEMO_CFG, encoding="utf-8") as fh:
            cfg = write(tmp_path / "cfg.txt", fh.read() + "pmht.k_sig = 0.001\n")
        out = tmp_path / "o"
        assert main(["campaign", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr()
        assert "divergence_rate: 0\nnever_aided_runs: 2\n" in text.out
        assert text.err == "warning: 2 of 2 runs never aided: aiding is on but no fix was accepted\n"
        assert (out / "summary.csv").exists() and len(list((out / "runs").iterdir())) == 2
        assert main(["run", "--config", cfg]) == 0
        text = capsys.readouterr()
        assert "accepted_fixes: 0\n" in text.out
        assert text.err == "warning: the run never aided: aiding is on but no fix was accepted\n"

    @pytest.mark.parametrize("extra", ["", "aiding = false\n"], ids=["aided", "unaided"])
    def test_no_warning_when_every_run_aids_or_none_should(self, tmp_path, capsys, extra):
        with open(DEMO_CFG, encoding="utf-8") as fh:
            cfg = write(tmp_path / "cfg.txt", fh.read() + extra)
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        text = capsys.readouterr()
        assert "never_aided_runs: 0\n" in text.out and text.err == ""
        assert main(["run", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""


class TestUnaided:
    """An unaided run reads only the map's geometry: it builds no map."""

    @COMMANDS
    def test_builds_no_map_and_keeps_every_bit(self, tmp_path, monkeypatch, command):
        with open(DEMO_CFG, encoding="utf-8") as fh:
            text = fh.read() + "aiding = false\n"
        cfg = parse_config_text(text)
        seeds = [0] if command == ["run"] else [0, 1]
        expected = tmp_path / "expected"
        expected.mkdir()
        for report in harness.run_block(cfg, seeds, grid=harness.build_grid(cfg)):
            harness.write_run_csv(report, expected / f"{report.seed}.csv")
        forbid_map_build(monkeypatch)
        out = tmp_path / "o"
        assert main([command[0], "--config", write(tmp_path / "cfg.txt", text),
                     "--out", str(out), *command[1:]]) == 0
        runs = out if command == ["run"] else out / "runs"
        assert sorted(p.name for p in runs.iterdir()) == [f"{s}.csv" for s in seeds]
        for seed in seeds:
            assert sha(runs / f"{seed}.csv") == sha(expected / f"{seed}.csv")

    def test_corridor_unaided_digests_pinned(self, tmp_path, monkeypatch):
        # The benchmark's corridor-unaided-j2 workload at base seed 0, run
        # here at --jobs 1, writes the bits the benchmark recorded.
        with open(PERFBENCH_DIGESTS, encoding="utf-8") as fh:
            pinned = json.load(fh)["corridor-unaided-j2"]["0"]
        with open(CORRIDOR_CFG, encoding="utf-8") as fh:
            cfg = write(tmp_path / "cfg.txt",
                        fh.read() + "monte_carlo.runs = 4\naiding = false\n")
        forbid_map_build(monkeypatch)
        out = tmp_path / "o"
        assert main(["campaign", "--config", cfg, "--out", str(out), "--seed", "0",
                     "--jobs", "1"]) == 0
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*.csv"))
        assert written == sorted(pinned)
        assert {name: sha(out / name) for name in written} == pinned

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    @COMMANDS
    def test_route_off_the_map_exit_2_before_simulation(self, tmp_path, capsys, monkeypatch,
                                                        source, command):
        def no_simulation(*args, **kwargs):
            raise AssertionError("the truth was simulated before the route check")

        scenario = (TOY_SCENARIO + "aiding = false\n" if source == "synthetic"
                    else toy_map_file(tmp_path))
        forbid_map_build(monkeypatch)
        monkeypatch.setattr(harness, "simulate_truth", no_simulation)
        # The toy map is 15 km wide; the route ends 25.6 km east of it.
        cfg = write(tmp_path / "cfg.txt", scenario + "duration = 1800\n")
        out = tmp_path / "o"
        assert main([command[0], "--config", cfg, "--out", str(out), *command[1:]]) == 2
        assert "trajectory leaves the map extent" in capsys.readouterr().err
        assert not out.exists()

    @COMMANDS
    def test_bad_header_line_exit_2_names_it(self, tmp_path, capsys, monkeypatch, command):
        def bad_xllcorner(lines):
            lines[2] = "xllcorner zero"

        cfg = write(tmp_path / "cfg.txt", toy_map_file(tmp_path, bad_xllcorner))
        forbid_map_build(monkeypatch)
        out = tmp_path / "o"
        assert main([command[0], "--config", cfg, "--out", str(out), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "line 3: cannot parse value 'zero'" in err and "Traceback" not in err
        assert not out.exists()

    @COMMANDS
    def test_malformed_data_row_is_not_read(self, tmp_path, capsys, monkeypatch, command):
        # Declared: the data rows of a grid file are read only by an aided run.
        def bad_row(lines):
            lines[15] = "oops"

        unaided = toy_map_file(tmp_path, bad_row)
        aided = write(tmp_path / "aided.txt", unaided.replace("aiding = false\n", ""))
        out = tmp_path / "o"
        assert main([command[0], "--config", aided, "--out", str(out), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "line 16: expected 300 values, got 1" in err and not out.exists()
        forbid_map_build(monkeypatch)
        assert main([command[0], "--config", write(tmp_path / "cfg.txt", unaided),
                     "--out", str(out), *command[1:]]) == 0


@pytest.fixture(scope="module")
def corridor_map_file(tmp_path_factory):
    """The corridor map of ``configs/corridor.cfg``, saved once as a grid file."""
    path = tmp_path_factory.mktemp("corridor-map") / "map.asc"
    save_grid(harness.build_grid(parse_config(CORRIDOR_CFG)), path)
    return path


class TestCorridorMapFile:
    """The corridor map read from a grid file: the same bits, one map in memory."""

    def test_flies_the_synthetic_maps_bits(self, tmp_path, corridor_map_file):
        # The benchmark's corridor-std workload at base seed 0, on the map
        # file; summary.csv differs, as config_hash hashes map.file.
        with open(PERFBENCH_DIGESTS, encoding="utf-8") as fh:
            pinned = json.load(fh)["corridor-std"]["0"]
        with open(CORRIDOR_CFG, encoding="utf-8") as fh:
            keys = [line for line in fh.read().splitlines() if not line.startswith("map.")]
        cfg = write(tmp_path / "cfg.txt", "\n".join(
            keys + [f"map.file = {corridor_map_file}", "monte_carlo.runs = 1", ""]))
        out = tmp_path / "o"
        assert main(["campaign", "--config", cfg, "--out", str(out), "--seed", "0",
                     "--jobs", "1"]) == 0
        for name in ("campaign.csv", "runs/0.csv"):
            assert sha(out / name) == pinned[name]

    def test_load_peak_memory_below_1_5_maps(self, corridor_map_file):
        # Each data row is parsed straight into the map's array: besides it,
        # the loader holds one line of text and its tokens.
        tracemalloc.start()
        try:
            map_bytes = load_grid(corridor_map_file).values.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * map_bytes


class TestInspectMap:
    def make_map(self, tmp_path, extra=""):
        cfg = write(tmp_path / "cfg.txt", TOY_MAP_KEYS + extra)
        out = tmp_path / "m"
        assert main(["genmap", "--config", cfg, "--out", str(out)]) == 0
        return out / "map.asc"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_grid_file_exit_2(self, tmp_path, capsys, token):
        path = tmp_path / "g.asc"
        path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                        f"nodata_value -9999\n1 2\n3 {token}\n", encoding="utf-8")
        assert main(["inspect-map", str(path), "--point", "0.5,0.5"]) == 2
        err = capsys.readouterr().err
        assert "non-nodata values must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("line, key", enumerate(
        ["ncols", "nrows", "xllcorner", "yllcorner", "cellsize"], start=1))
    def test_non_finite_header_exit_2_names_line(self, tmp_path, capsys, line, key, token):
        header = {"ncols": "2", "nrows": "2", "xllcorner": "0", "yllcorner": "0",
                  "cellsize": "1", key: token}
        path = tmp_path / "g.asc"
        path.write_text("".join(f"{k} {v}\n" for k, v in header.items())
                        + "nodata_value -9999\n1 2\n3 4\n", encoding="utf-8")
        assert main(["inspect-map", str(path), "--point", "0.5,0.5"]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: {key} must be finite" in err and "Traceback" not in err

    def test_constant_map_zero_variability(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt",
                    "map.rows = 10\nmap.cols = 10\nmap.cell_size = 100\n"
                    "map.background = 9.79\nmap.noise_scale = 0\n")
        out = tmp_path / "m"
        assert main(["genmap", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect-map", str(out / "map.asc"), "--point", "500,500"]) == 0
        fields = dict(line.split(": ", 1)
                      for line in capsys.readouterr().out.strip().splitlines())
        assert float(fields["value"]) == pytest.approx(9.79)
        assert float(fields["variability_raw"]) == 0.0
        assert float(fields["gradient_mag"]) == 0.0

    def test_bump_center_value(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt",
                    "map.rows = 11\nmap.cols = 11\nmap.cell_size = 100\n"
                    "map.background = 9.79\nmap.noise_scale = 0\n"
                    "map.bumps = 550,550,2e-3,300\n")
        out = tmp_path / "m"
        assert main(["genmap", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect-map", str(out / "map.asc"), "--point", "550,550"]) == 0
        fields = dict(line.split(": ", 1)
                      for line in capsys.readouterr().out.strip().splitlines())
        assert float(fields["value"]) == pytest.approx(9.79 + 2e-3, abs=1e-9)
        assert float(fields["variability_raw"]) > 0.0

    def test_output_schema(self, tmp_path, capsys):
        path = self.make_map(tmp_path)
        capsys.readouterr()
        assert main(["inspect-map", str(path), "--point", "5000,1500"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        keys = [line.split(":")[0] for line in lines]
        assert keys == ["point", "cell", "value", "gradient_mag", "variability_raw"]

    @pytest.mark.parametrize("width", ["0", "-1"])
    def test_template_half_width_below_one_exit_2_names_flag(self, tmp_path, capsys, width):
        path = self.make_map(tmp_path)
        capsys.readouterr()
        assert main(["inspect-map", str(path), "--point", "5000,1500",
                     "--template-half-width", width]) == 2
        assert "--template-half-width" in capsys.readouterr().err

    def test_map_directory_exit_2_names_path(self, tmp_path, capsys):
        assert main(["inspect-map", str(tmp_path), "--point", "1,1"]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Traceback" not in err

    def test_map_not_utf8_exit_2_names_path(self, tmp_path, capsys):
        path = self.make_map(tmp_path)
        path.write_bytes(b"\xff" + path.read_bytes())
        capsys.readouterr()
        assert main(["inspect-map", str(path), "--point", "5000,1500"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_off_map_point_prints_plain_numbers(self, tmp_path, capsys):
        path = self.make_map(tmp_path)
        capsys.readouterr()
        assert main(["inspect-map", str(path), "--point", "1e9,1"]) == 2
        err = capsys.readouterr().err
        assert "np.float64" not in err
        assert "position (1000000000.0, 1.0) outside map extent (0.0, 15000.0, 0.0, 3000.0)" in err

    def test_off_map_point_exit_2(self, tmp_path, capsys):
        path = self.make_map(tmp_path)
        capsys.readouterr()
        assert main(["inspect-map", str(path), "--point", "999999,0"]) == 2


class TestExitCodes:
    def test_every_error_type_exits_with_its_tabled_code(self, monkeypatch, capsys):
        # A new exception type must land with a row in README's table.
        codes = tabled_exit_codes()
        types = list(error_types())
        assert sorted(t.__name__ for t in types) == sorted(codes)
        assert codes == {name: 3 if name == "NumericalError" else 2 for name in codes}
        for exc_type in types:
            def command(args, exc_type=exc_type):
                raise exc_type("forced")

            monkeypatch.setattr(cli, "_cmd_run", command)
            assert main(["run", "--config", "unused"]) == codes[exc_type.__name__]
            assert capsys.readouterr().err == "error: forced\n"
