"""tools/ab.py, driven on a throwaway git repository whose benchmark is a
stub that prints a fixed result line, so no real benchmark runs here."""

import json
import os
import subprocess
import sys

AB = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ab.py")

BENCHMARK = {"end_to_end": [{"name": "campaign_s", "better": "lower"},
                            {"name": "path_len", "better": "lower"},
                            {"name": "score", "better": "higher"}]}

# Logs its side, its arguments and whether the untracked file reached its
# tree, fails when a cache reached its tree, and
# prints one result line: campaign_s is CAMPAIGN_S, path_len the length of
# its working directory's path.
STUB = """\
import json, os, sys
CAMPAIGN_S = {campaign_s}
with open({log!r}, "a", encoding="utf-8") as fh:
    fh.write(json.dumps([os.path.basename(os.getcwd()), sys.argv[1:],
                        os.path.exists("extra.txt")]) + "\\n")
if any(os.path.exists(c) for c in (".perfbench", ".hypothesis", ".pytest_cache")):
    sys.exit("a cache was exported")
print("benchmark output")
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0, "metrics": {{
    "campaign_s": {{"value": CAMPAIGN_S, "unit": "s"}},
    "path_len": {{"value": len(os.getcwd()), "unit": "chars"}},
    "score": {{"value": 1.0, "unit": "count"}}}}}}))
"""


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def test_pairs_alternate_and_count_wins(tmp_path):
    repo, log = tmp_path / "repo", tmp_path / "log.jsonl"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    stub = repo / "perfbench" / "run.py"
    stub.write_text(STUB.format(campaign_s=2.0, log=str(log)), encoding="utf-8")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    # The working tree: a faster stub, an untracked file and the caches.
    stub.write_text(STUB.format(campaign_s=1.5, log=str(log)), encoding="utf-8")
    (repo / "extra.txt").write_text("untracked\n", encoding="utf-8")
    for cache in (".perfbench", ".hypothesis", ".pytest_cache"):
        (repo / cache).mkdir()
        (repo / cache / "x").write_text("cached\n", encoding="utf-8")
    out = tmp_path / "ab.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, os.path.abspath(AB), "--parent", "HEAD",
                    "--workload", "w1", "--pairs", "3", "--seed", "7", "--out", str(out)],
                   cwd=repo, env=env, check=True, capture_output=True, text=True, timeout=120)

    runs = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [side for side, _, _ in runs] == ["parent", "change", "change", "parent",
                                             "parent", "change"]
    assert all(argv == ["--workload", "w1", "--seed", "7", "--trace", "0"]
               for _, argv, _ in runs)
    assert all(extra == (side == "change") for side, _, extra in runs)

    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["seed"] == 7
    w1 = result["workloads"]["w1"]
    assert w1["all_correct"] and w1["failed_runs"] == {"parent": 0, "change": 0}
    assert [p["first"] for p in w1["pairs"]] == ["parent", "change", "parent"]
    m = w1["metrics"]
    assert m["campaign_s"]["parent"]["values"] == [2.0] * 3
    assert m["campaign_s"]["change"]["median"] == 1.5
    assert m["campaign_s"]["change"]["q1"] == m["campaign_s"]["change"]["q3"] == 1.5
    assert (m["campaign_s"]["change_wins"], m["campaign_s"]["ties"]) == (3, 0)
    assert m["campaign_s"]["median_change_minus_parent"] == -0.5
    # Both trees' paths have the same length, so the sides tie.
    assert m["path_len"]["ties"] == 3 and m["path_len"]["change_wins"] == 0
    assert m["score"]["ties"] == 3


def test_imports_nothing_from_perfbench():
    with open(AB, encoding="utf-8") as fh:
        imports = [line for line in fh if line.startswith(("import ", "from "))]
    assert imports and not any("perfbench" in line or "measure" in line for line in imports)
