#!/usr/bin/env python3
"""A/B timing of a parent revision against the working tree.

Run from anywhere inside the git checkout:

    tools/ab.py --parent REV --workload W --pairs N --seed S --out FILE

``REV`` (through ``git archive``) and the working tree (its tracked and
untracked, not ignored files) are exported into two directories whose paths
have the same length, ``parent`` and ``change`` under one temporary
directory. Neither holds the ``.perfbench/``, ``.hypothesis/`` or
``.pytest_cache/`` caches: the directory a campaign runs from moves its peak
memory. Each pair runs ``python3 perfbench/run.py --workload W --seed S
--trace 0`` once in each directory, the parent first in even pairs and the
change first in odd ones, and reads the JSON object on the last line of its
stdout. ``--workload`` may be given more than once.

``FILE`` gets every run's end-to-end metrics (the ``end_to_end`` names of
the working tree's ``BENCHMARK.json``) and, per workload and metric, each
side's values, median and quartiles, and the number of pairs the change
won, tied and lost.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

CACHES = {".perfbench", ".hypothesis", ".pytest_cache"}
SIDES = ("parent", "change")


def _git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True).stdout


def export(root: str, rev: str, parent_dir: str, change_dir: str) -> None:
    """Write ``rev`` into ``parent_dir`` and the working tree into ``change_dir``."""
    with tarfile.open(fileobj=io.BytesIO(_git(root, "archive", rev))) as tar:
        tar.extractall(parent_dir, filter="data")
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        src = os.path.join(root, name)
        if CACHES & set(name.split("/")) or not os.path.isfile(src):
            continue  # a cache, or a tracked file deleted in the working tree
        dst = os.path.join(change_dir, name)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)


def run_side(tree: str, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``: the JSON object on its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of one side's values of a metric."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric, each side's spread and the pairs the change won, tied and lost."""
    out = {}
    for name, better in metrics.items():
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        signs = [(c > p) - (c < p) for p, c in zip(sides["parent"], sides["change"])]
        won = -1 if better == "lower" else 1
        parent, change = spread(sides["parent"]), spread(sides["change"])
        out[name] = {
            "better": better,
            "parent": parent,
            "change": change,
            "change_wins": signs.count(won),
            "ties": signs.count(0),
            "change_losses": signs.count(-won),
            "pairs": len(pairs),
            "median_change_minus_parent": change["median"] - parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        help="perfbench workload name; repeat for several")
    parser.add_argument("--pairs", type=int, required=True, help="runs per side and workload")
    parser.add_argument("--seed", type=int, required=True, help="campaign base seed")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = _git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    parent_rev = _git(root, "rev-parse", "--short", f"{args.parent}^{{commit}}").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    workloads = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        export(root, parent_rev, trees["parent"], trees["change"])
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"pair": i, "first": order[0]}
                for side in order:
                    pair[side] = run_side(trees[side], workload, args.seed)
                    print(f"{workload} pair {i} {side}: "
                          + ", ".join(f"{name} {pair[side]['metrics'][name]['value']:.6g}"
                                      for name in metrics), flush=True)
                pairs.append(pair)
            workloads[workload] = {
                "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
                "failed_runs": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
                "metrics": summarize(pairs, metrics),
                "pairs": pairs,
            }

    result = {
        "what": ("Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
                 f"--seed {args.seed} --trace 0`, each side in its own clean export of the "
                 "source tree (tools/ab.py). Medians and quartiles are over the runs of one "
                 "side; a change wins a pair when its value is better than the parent's."),
        "parent": parent_rev,
        "seed": args.seed,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for workload, res in workloads.items():
        for name, m in res["metrics"].items():
            print(f"{workload} {name}: parent median {m['parent']['median']:.6g}, change "
                  f"median {m['change']['median']:.6g}, change won {m['change_wins']} of "
                  f"{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
