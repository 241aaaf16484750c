"""Measurements of one workload: set-up, CLI campaigns and the traced run.

Untraced campaigns are real ``gravnav campaign`` processes, timed from
process start until exit and reaped with ``wait4``, so that the peak
resident memory covers the process and its pool workers. The traced run
calls the same CLI entry point inside this process at ``--jobs 1``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from gravnav import cli
from gravnav.config import parse_config
from gravnav.harness import build_grid

from spans import TRACED_MODULES, Tracer, span_totals


@dataclass
class Campaign:
    """Outcome of one campaign call."""

    wall_s: float
    runs: int
    failed_runs: int
    exit_code: int | None = None
    peak_rss_mb: float | None = None
    mean_error_m: float | None = None
    divergence_rate: float | None = None
    digests: dict[str, str] = field(default_factory=dict)


def time_setup(cfg_path: str) -> float:
    """Seconds of ``parse_config`` + ``validate`` + ``build_grid``."""
    t0 = time.perf_counter()
    cfg = parse_config(cfg_path)
    cfg.validate()
    build_grid(cfg)
    return time.perf_counter() - t0


def file_digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of campaign.csv, summary.csv and runs/*.csv that exist."""
    names = ["campaign.csv", "summary.csv"]
    runs_dir = os.path.join(out_dir, "runs")
    if os.path.isdir(runs_dir):
        names += [f"runs/{n}" for n in sorted(os.listdir(runs_dir)) if n.endswith(".csv")]
    digests = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def read_outputs(out_dir: str, runs: int, wall_s: float, exit_code: int | None) -> Campaign:
    """Score a finished campaign from the files it wrote.

    Every run counts as failed when the campaign exited non-zero or wrote no
    summary.csv; otherwise a run fails when its series holds a non-finite
    error (or its CSV is missing).
    """
    summary = os.path.join(out_dir, "summary.csv")
    if exit_code != 0 or not os.path.isfile(summary):
        return Campaign(wall_s, runs, runs, exit_code)
    with open(summary, encoding="utf-8") as fh:
        mean_error, divergence, _ = fh.read().splitlines()[1].split(",")
    runs_dir = os.path.join(out_dir, "runs")
    names = sorted(n for n in os.listdir(runs_dir) if n.endswith(".csv"))
    failed = runs - len(names)
    for name in names:
        with open(os.path.join(runs_dir, name), encoding="utf-8") as fh:
            next(fh)
            if not all(math.isfinite(float(line.split(",")[1])) for line in fh):
                failed += 1
    return Campaign(wall_s, runs, failed, exit_code, mean_error_m=float(mean_error),
                    divergence_rate=float(divergence), digests=file_digests(out_dir))


# Linux carries a process's peak RSS across exec from the memory it was
# spawned from, so a campaign spawned by this process would report at least
# this process's own peak. A small launcher process spawns, times and reaps
# the campaign instead, and prints its wait4 figures as JSON.
_LAUNCHER = """\
import json, os, subprocess, sys, time
with open(sys.argv[1], "w", encoding="utf-8") as log:
    t0 = time.perf_counter()
    proc = subprocess.Popen(sys.argv[2:], stdout=log, stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({"wall_s": wall, "exit_code": proc.returncode, "maxrss_kib": usage.ru_maxrss}))
"""


def _kill_session(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def run_cli_campaign(src_dir: str, cfg_path: str, out_dir: str, seed: int, jobs: int,
                     runs: int, timeout_s: float) -> Campaign:
    """Run ``gravnav campaign`` as a child process and score its outputs.

    The launcher and the campaign run in their own session, so that a
    campaign past ``timeout_s`` is killed together with its pool workers; it
    then counts as failed.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "gravnav.cli", "campaign", "--config", cfg_path,
           "--out", out_dir, "--seed", str(seed), "--jobs", str(jobs)]
    t0 = time.perf_counter()
    launcher = subprocess.Popen([sys.executable, "-c", _LAUNCHER, out_dir + ".log", *cmd],
                                stdout=subprocess.PIPE, env=env, text=True,
                                start_new_session=True)
    killer = threading.Timer(max(timeout_s, 0.0), _kill_session, (launcher.pid,))
    killer.start()
    try:
        report, _ = launcher.communicate()
    finally:
        killer.cancel()
    if launcher.returncode != 0:
        return Campaign(time.perf_counter() - t0, runs, runs, launcher.returncode)
    measured = json.loads(report)
    result = read_outputs(out_dir, runs, measured["wall_s"], measured["exit_code"])
    result.peak_rss_mb = measured["maxrss_kib"] / 1024.0
    return result


def measure_rounds(src_dir: str, cfg_path: str, out_dir: str, seed: int, jobs: int, runs: int,
                   seconds: float, min_rounds: int, deadline: float):
    """Alternate one set-up sample and one CLI campaign for about ``seconds``.

    Interleaving lets both sample the whole window rather than one phase of
    a machine whose speed drifts. A round that would end past ``seconds`` is
    not started once ``min_rounds`` are done; a failed campaign does not
    stop the rounds. Returns the set-up times and the campaigns.
    """
    setup, campaigns = [], []
    t0 = time.perf_counter()
    while time.perf_counter() < deadline:
        setup.append(time_setup(cfg_path))
        campaigns.append(run_cli_campaign(src_dir, cfg_path, out_dir, seed, jobs, runs,
                                          deadline - time.perf_counter()))
        elapsed = time.perf_counter() - t0
        if len(campaigns) >= min_rounds and elapsed * (1 + 1 / len(campaigns)) > seconds:
            break
    return setup, campaigns


@dataclass
class TracedRun:
    """A traced in-process campaign and its untraced twin."""

    campaign: Campaign
    untraced_s: float
    traced_s: float
    tracer: Tracer
    counters: Counter
    epochs: list


def _call_cli(argv: list[str]) -> tuple[float, int | None]:
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash counts every run as failed
            code = None
    return time.perf_counter() - t0, code


def traced_campaign(cfg_path: str, out_dir: str, seed: int, runs: int) -> TracedRun:
    """Run the campaign in-process at ``--jobs 1``, untraced and then traced.

    The untraced call is the baseline for the tracing overhead; the traced
    call's outputs are scored and digested.
    """
    counters: Counter = Counter()
    epochs: list = []

    def on_lookup(cs, *args, **kwargs):
        counters.update(scans=1, candidates=len(cs), nonempty_scans=int(len(cs) > 0))

    def on_batch(estimate, problem, *args, **kwargs):
        counters.update(batch_candidates=sum(len(cs) for cs in problem.scans))

    def on_campaign(report, *args, **kwargs):
        epochs.extend(e for r in report.reports for e in r.epochs)

    argv = ["campaign", "--config", cfg_path, "--out", out_dir, "--seed", str(seed),
            "--jobs", "1"]
    shutil.rmtree(out_dir, ignore_errors=True)
    untraced_s, _ = _call_cli(argv)
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = Tracer({"geomap.lookup_candidates": on_lookup, "pmht.run_batch": on_batch,
                     "harness.run_campaign": on_campaign})
    with tracer:
        traced_s, code = _call_cli(argv)
    campaign = read_outputs(out_dir, runs, traced_s, code)
    return TracedRun(campaign, untraced_s, traced_s, tracer, counters, epochs)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: TracedRun, out_dir: str, names) -> dict[str, float]:
    """Per-layer metrics of a traced run, for the given metric names.

    ``<module>.<function>.<calls|self_s>`` come from the spans and
    ``<module>.<calls|self_s>`` sum them per module; the rest are ratios of
    counts observed at the layer boundaries.
    """
    totals = span_totals(run.tracer.spans)
    c, epochs = run.counters, run.epochs
    accepted = sum(e.n_accepted for e in epochs)
    nis_rejected = sum(e.n_nis_rejected for e in epochs)
    output_bytes = sum(os.path.getsize(os.path.join(d, f))
                       for d, _, files in os.walk(out_dir) for f in files)
    derived = {
        "harness.output_bytes": output_bytes,
        "geomap.candidates_per_scan": _share(c["candidates"], c["scans"]),
        "geomap.nonempty_scan_share": _share(c["nonempty_scans"], c["scans"]),
        "assoc.noise_cov_rebuild_ratio": _share(
            totals.get("assoc.position_noise_cov", {}).get("calls", 0), c["batch_candidates"]),
        "pmht.em_iters_per_batch": _share(sum(e.iterations_used for e in epochs), len(epochs)),
        "pmht.converged_share": _share(sum(e.converged for e in epochs), len(epochs)),
        "fusion.fix_accept_share": _share(accepted, sum(len(e.fixes) for e in epochs)),
        "fusion.nis_reject_share": _share(nis_rejected, accepted + nis_rejected),
        "trace.overhead_s": run.traced_s - run.untraced_s,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        head, _, stat = name.rpartition(".")
        if head in TRACED_MODULES:
            out[name] = sum(row[stat] for span, row in totals.items()
                            if span.startswith(head + "."))
        else:
            out[name] = totals.get(head, {}).get(stat, 0)
    return out
