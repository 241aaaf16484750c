import hashlib

import pytest

from gravnav.cli import main
from gravnav.errors import NumericalError
from gravnav.geomap import load_grid

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


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def test_malformed_key_exit_2_names_key(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.txt", TOY_MAP_KEYS + "map.rowz = 10\n")
        assert main(["genmap", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "map.rowz" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["genmap", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")]) == 2


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
                    "map.file = /definitely/not/here.asc\nduration = 60\n")
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

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

    @pytest.mark.parametrize("key", ["pmht.n_max", "pmht.max_iters", "pmht.gamma",
                                     "fusion.window_len"])
    def test_zero_setting_exit_2_names_key(self, tmp_path, capsys, key):
        cfg = write(tmp_path / "cfg.txt", TOY_SCENARIO + f"{key} = 0\n")
        assert main(["campaign", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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


class TestInspectMap:
    def make_map(self, tmp_path, extra=""):
        cfg = write(tmp_path / "cfg.txt", TOY_MAP_KEYS + extra)
        out = tmp_path / "m"
        assert main(["genmap", "--config", cfg, "--out", str(out)]) == 0
        return out / "map.asc"

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
        assert float(fields["variability_norm"]) == 0.0
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
        assert keys == ["point", "cell", "value", "gradient_mag",
                        "variability_raw", "variability_norm"]

    def test_off_map_point_exit_2(self, tmp_path, capsys):
        path = self.make_map(tmp_path)
        capsys.readouterr()
        assert main(["inspect-map", str(path), "--point", "999999,0"]) == 2
