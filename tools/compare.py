#!/usr/bin/env python3
"""Differential report of one campaign run in two arms.

Run from anywhere inside the git checkout:

    tools/compare.py --config FILE [--parent REV] [--set KEY=VALUE ...]
                     [--set-change KEY=VALUE ...] [--out FILE]

The change arm is the working tree. The base arm is ``REV``, exported with
the working tree as :func:`ab.export` does, or without ``--parent`` the
working tree again. Each arm runs ``gravnav campaign`` from its own ``src``
on the text of ``FILE`` with ``key = value`` lines appended: every
``--set`` in both arms, then every ``--set-change`` in the change arm only.

For ``campaign.csv``, ``summary.csv`` and each ``runs/<seed>.csv`` it
prints whether the two arms' bytes match, and per column the largest |Δ|
over the rows. Two NaNs or equal text count as 0; NaN against a number,
differing text, a column one arm lacks, or differing row counts as inf. A
file one arm lacks is reported as missing. ``--out`` gets the same report as
JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

from ab import _git, export

ARMS = ("base", "change")


def override_lines(pairs: list[str]) -> str:
    """``KEY=VALUE`` arguments as config lines."""
    lines = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"error: expected KEY=VALUE, got {pair!r}")
        lines.append(f"{key.strip()} = {value.strip()}\n")
    return "".join(lines)


def run_campaign(src: str, cfg_path: str, out_dir: str) -> None:
    """``gravnav campaign`` on ``cfg_path`` with the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "gravnav.cli", "campaign", "--config", cfg_path,
           "--out", out_dir]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} with {src} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")


def cell_delta(a: str, b: str) -> float:
    """|a - b| of two CSV cells (see the module docstring)."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    return 0.0 if x == y else abs(x - y)


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def compare_file(base: str, change: str) -> dict:
    """Whether two CSV files' bytes match, and each column's largest |Δ|."""
    with open(base, "rb") as fb, open(change, "rb") as fc:
        same = fb.read() == fc.read()
    (head_b, rows_b), (head_c, rows_c) = read_table(base), read_table(change)
    deltas = {}
    for col in head_b + [c for c in head_c if c not in head_b]:
        if col not in head_b or col not in head_c or len(rows_b) != len(rows_c):
            deltas[col] = math.inf
            continue
        i, j = head_b.index(col), head_c.index(col)
        deltas[col] = max((cell_delta(rb[i], rc[j]) for rb, rc in zip(rows_b, rows_c)),
                          default=0.0)
    return {"bytes_equal": same, "max_abs_delta": deltas}


def output_files(out_dirs: dict) -> list[str]:
    """``campaign.csv``, ``summary.csv`` and every ``runs/<seed>.csv`` of either arm."""
    seeds = set()
    for out in out_dirs.values():
        seeds.update(name for name in os.listdir(os.path.join(out, "runs"))
                     if name.endswith(".csv"))
    return ["campaign.csv", "summary.csv"] + [
        f"runs/{name}" for name in sorted(seeds, key=lambda n: int(n[:-4]))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="scenario config path")
    parser.add_argument("--parent", default=None,
                        help="git revision of the base arm (default: the working tree)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="config override for both arms; repeat for several")
    parser.add_argument("--set-change", action="append", default=[], metavar="KEY=VALUE",
                        help="config override for the change arm only; repeat for several")
    parser.add_argument("--out", default=None, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(args.config, encoding="utf-8") as fh:
        text = fh.read() + "\n" + override_lines(args.set)
    texts = {"base": text, "change": text + override_lines(args.set_change)}
    root = _git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    files = {}
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        if args.parent is None:
            base_rev, srcs = "working tree", dict.fromkeys(ARMS, os.path.join(root, "src"))
        else:
            base_rev = _git(root, "rev-parse", "--short",
                            f"{args.parent}^{{commit}}").decode().strip()
            trees = {arm: os.path.join(tmp, arm) for arm in ARMS}
            export(root, base_rev, trees["base"], trees["change"])
            srcs = {arm: os.path.join(tree, "src") for arm, tree in trees.items()}
        outs = {arm: os.path.join(tmp, f"{arm}-out") for arm in ARMS}
        for arm in ARMS:
            cfg_path = os.path.join(tmp, f"{arm}.cfg")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(texts[arm])
            run_campaign(srcs[arm], cfg_path, outs[arm])
        for name in output_files(outs):
            paths = [os.path.join(outs[arm], name) for arm in ARMS]
            files[name] = (compare_file(*paths) if all(map(os.path.exists, paths))
                           else {"bytes_equal": False, "max_abs_delta": {}})

    for name, res in files.items():
        print(f"{name}: bytes {'equal' if res['bytes_equal'] else 'differ'}"
              + ("" if res["max_abs_delta"] else ", missing in one arm"))
        for col, delta in res["max_abs_delta"].items():
            print(f"{name} {col}: max |delta| {delta:.6g}")
    if args.out:
        result = {"config": args.config, "base": base_rev, "set": args.set,
                  "set_change": args.set_change,
                  "all_bytes_equal": all(res["bytes_equal"] for res in files.values()),
                  "files": files}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
