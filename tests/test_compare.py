"""tools/compare.py on demo-sized campaigns: the working tree against
itself, against a config override, and against a committed revision."""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from gravnav.config import parse_config_text
from gravnav.harness import run_campaign

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools")
COMPARE = os.path.join(TOOLS, "compare.py")
ROOT = os.path.dirname(TOOLS)
DEMO = os.path.join(ROOT, "configs", "demo.cfg")


def compare(tmp_path, *args, cwd=ROOT):
    out = tmp_path / "report.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, COMPARE, "--config", DEMO, *args, "--out", str(out)],
                          cwd=cwd, env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    return proc.stdout, json.loads(out.read_text(encoding="utf-8"))


def test_working_tree_against_itself_is_byte_equal(tmp_path):
    stdout, report = compare(tmp_path, "--set", "monte_carlo.runs=3")
    files = report["files"]
    assert list(files) == ["campaign.csv", "summary.csv", "runs/0.csv", "runs/1.csv",
                           "runs/2.csv"]
    assert report["all_bytes_equal"] and report["base"] == "working tree"
    assert all(res["bytes_equal"] for res in files.values())
    assert all(delta == 0 for res in files.values() for delta in res["max_abs_delta"].values())
    assert list(files["runs/0.csv"]["max_abs_delta"]) == ["time_s", "error_m", "aided_flag"]
    assert "runs/2.csv error_m: max |delta| 0\n" in stdout


def test_change_arm_override_gives_the_in_process_differences(tmp_path):
    _, report = compare(tmp_path, "--set-change", "fusion.mode=retrodiction")
    with open(DEMO, encoding="utf-8") as fh:
        text = fh.read() + "\n"
    base = run_campaign(parse_config_text(text), jobs=1)
    change = run_campaign(parse_config_text(text + "fusion.mode = retrodiction\n"), jobs=1)
    assert not report["all_bytes_equal"]
    assert math.isinf(report["files"]["summary.csv"]["max_abs_delta"]["config_hash"])
    for b, c in zip(base.reports, change.reports):
        res = report["files"][f"runs/{b.seed}.csv"]
        want = np.abs(b.error_series - c.error_series).max()
        assert 0 < want < math.inf and res["max_abs_delta"]["error_m"] == want
        assert not res["bytes_equal"] and res["max_abs_delta"]["time_s"] == 0


def test_parent_arm_runs_the_committed_revision(tmp_path):
    # The working tree renames a column of the run files, so only its arm
    # writes the new header.
    repo = tmp_path / "repo"
    shutil.copytree(os.path.join(ROOT, "src", "gravnav"), repo / "src" / "gravnav",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + args, check=True, capture_output=True)
    harness = repo / "src" / "gravnav" / "harness.py"
    harness.write_text(harness.read_text(encoding="utf-8").replace(
        '"time_s,error_m,aided_flag\\n"', '"time_s,error_m,aided\\n"'), encoding="utf-8")
    _, report = compare(tmp_path, "--parent", "HEAD", cwd=repo)
    files = report["files"]
    assert files["campaign.csv"]["bytes_equal"] and files["summary.csv"]["bytes_equal"]
    deltas = files["runs/0.csv"]["max_abs_delta"]
    assert not files["runs/0.csv"]["bytes_equal"]
    assert deltas["time_s"] == deltas["error_m"] == 0
    assert math.isinf(deltas["aided_flag"]) and math.isinf(deltas["aided"])


def test_cell_delta_counts_nan_pairs_and_text(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    cell_delta = importlib.import_module("compare").cell_delta
    assert cell_delta("nan", "nan") == cell_delta("-0", "0") == cell_delta("inf", "inf") == 0
    assert cell_delta("nan", "1.5") == cell_delta("2", "nan") == cell_delta("ab", "cd") == math.inf
    assert cell_delta("1.25", "-0.5") == 1.75 and cell_delta("ab", "ab") == 0


def test_imports_nothing_from_perfbench():
    with open(COMPARE, encoding="utf-8") as fh:
        imports = [line for line in fh if line.startswith(("import ", "from "))]
    assert imports and not any("perfbench" in line or "measure" in line for line in imports)
