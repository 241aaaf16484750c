"""Corridor campaign benchmark for gravnav.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload corridor-std --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload corridor-std --seed 3 --record

One client runs one campaign at a time (closed loop). ``--trace 0`` times
set-up and repeated ``gravnav campaign`` processes for ``--seconds`` and
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs one
traced in-process campaign and reports the per-layer metrics. Both check
the SHA-256 digests of the campaign outputs against each other and against
``perfbench/digests.json``; ``--record`` stores the digests of one campaign
there instead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results files with
machine and version stamps go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_JSON = os.path.join(HERE, "digests.json")

MIN_ROUNDS = 5
# The statistic each end-to-end metric reports over a run's rounds. The host
# is shared, and other tenants' load only ever slows a round down, in bursts
# of seconds to minutes that reach up to 1.6x. The fastest round is therefore
# the steadiest estimate of the program's own cost; the median of a run
# still moved by 20% between runs. Memory does not drift, so it reports the
# median.
STATISTIC = {"campaign_s": "min", "setup_s": "min", "peak_rss_mb": "median"}
# Each measurement step (one workload, one mode) stops its campaigns by then,
# inside the 180 s that one driver invocation may take.
DEADLINE_S = 170.0


def _summary(values: list[float]) -> dict:
    """Minimum, median, quartiles and sample count of a list of measurements."""
    if not values:
        return {"min": None, "median": None, "q1": None, "q3": None, "n": 0,
                "samples": values}
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"min": min(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def machine_stamp() -> dict:
    """Commit, source digest, machine and library versions of this run."""
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "gravnav")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _digest_status(digests: dict, first: dict | None, reference: dict | None) -> tuple[str, str]:
    if not digests:
        return "no output", "no output"
    repeat = "match" if digests == first else "MISMATCH"
    if reference is None:
        return repeat, "unrecorded seed"
    return repeat, "match" if digests == reference else "MISMATCH"


def _campaign_line(label: str, c, repeat: str, ref: str) -> str:
    rss = f"{c.peak_rss_mb:.1f} MB" if c.peak_rss_mb is not None else "in-process"
    return (f"  {label}: {c.wall_s:.3f} s, peak {rss}, exit {c.exit_code}, "
            f"runs failed {c.failed_runs}/{c.runs}, digests: repeat {repeat}, "
            f"reference {ref}")


def _g(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _print_metrics(metrics: dict, spreads: dict | None = None) -> None:
    for name, m in metrics.items():
        line = f"  {name:<42} {_g(m['value']):>14} {m['unit']}"
        if spreads and name in spreads:
            s = spreads[name]
            line += (f"   ({STATISTIC[name]} of {s['n']}; median {_g(s['median'])}, "
                     f"q1 {_g(s['q1'])}, q3 {_g(s['q3'])})")
        print(line)


def run_untraced(wl, cfg_path: str, runs: int, seed: int, seconds: float, reference,
                 deadline: float, bench: dict) -> dict:
    """Set-up timing and repeated CLI campaigns for ``seconds``."""
    from measure import measure_rounds

    setup, campaigns = measure_rounds(SRC, cfg_path, os.path.join(WORK, wl.name, "campaign"),
                                      seed, wl.jobs, runs, seconds, MIN_ROUNDS, deadline)
    ok = [c for c in campaigns if c.digests]
    first = ok[0].digests if ok else None
    correct = bool(ok)
    print(f"== {wl.name}: seed {seed}, --jobs {wl.jobs}, {runs} runs per campaign, untraced ==")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    for i, c in enumerate(campaigns, 1):
        repeat, ref = _digest_status(c.digests, first, reference)
        print(_campaign_line(f"campaign {i}", c, repeat, ref))
        if c.digests:
            correct &= repeat == "match" and ref != "MISMATCH"
            correct &= math.isfinite(c.mean_error_m)

    spreads = {
        # A campaign that crashed early would be the fastest; time the ones
        # that completed, when any did.
        "campaign_s": _summary([c.wall_s for c in campaigns if c.exit_code == 0]
                               or [c.wall_s for c in campaigns]),
        "setup_s": _summary(setup),
        "peak_rss_mb": _summary([c.peak_rss_mb for c in campaigns
                                 if c.peak_rss_mb is not None]),
    }
    attempted = sum(c.runs for c in campaigns)
    failed = sum(c.failed_runs for c in campaigns)
    # Deterministic outputs of the campaign, reported beside the timed metrics.
    extra = {
        "mean_error_m": (ok[0].mean_error_m if ok else None, "m"),
        "divergence_rate": (ok[0].divergence_rate if ok else None, "fraction"),
        "failed_run_share": (failed / attempted, "fraction"),
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {name: {"value": spreads[name][STATISTIC[name]], "unit": unit}
               for name, unit in units.items()}
    _print_metrics(metrics, spreads)
    for name, (value, unit) in extra.items():
        print(f"  {name:<42} {value!s:>14} {unit}   (not timed)")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"spreads": spreads, "outputs": {k: v[0] for k, v in extra.items()},
                       "campaigns": [vars(c) for c in campaigns]}}


def run_traced(wl, cfg_path: str, runs: int, seed: int, reference, deadline: float,
               bench: dict) -> dict:
    """One untraced CLI campaign, then the traced in-process run."""
    from measure import layer_metrics, run_cli_campaign, traced_campaign

    cli_out = os.path.join(WORK, wl.name, "campaign")
    traced_out = os.path.join(WORK, wl.name, "traced")
    cli_run = run_cli_campaign(SRC, cfg_path, cli_out, seed, wl.jobs, runs,
                               deadline - time.perf_counter())
    traced = traced_campaign(cfg_path, traced_out, seed, runs)
    traced.tracer.write(os.path.join(WORK, wl.name, "spans.csv"))

    print(f"== {wl.name}: seed {seed}, traced in-process at --jobs 1, {runs} runs ==")
    first = cli_run.digests or None
    rows = [("untraced CLI campaign", cli_run), ("traced campaign", traced.campaign)]
    correct = bool(first)
    for label, c in rows:
        repeat, ref = _digest_status(c.digests, first, reference)
        print(_campaign_line(label, c, repeat, ref))
        correct &= repeat == "match" and ref != "MISMATCH"
    print(f"  untraced in-process campaign: {traced.untraced_s:.3f} s")

    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    values = layer_metrics(traced, traced_out, list(units))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    _print_metrics(metrics)
    attempted = cli_run.runs + traced.campaign.runs
    failed = cli_run.failed_runs + traced.campaign.failed_runs
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"campaigns": [vars(cli_run), vars(traced.campaign)],
                       "untraced_inprocess_s": traced.untraced_s,
                       "spans": len(traced.tracer.spans)}}


def _shape_checks(layers: dict) -> None:
    """Cross-workload checks of the traced shares, printed in the full run."""
    std = layers.get("corridor-std")
    retro = layers.get("corridor-retro")
    unaided = layers.get("corridor-unaided-j2")
    checks = []
    if unaided:
        names = [n for n in unaided if n == "geomap.lookup_candidates.calls"
                 or (n.endswith(".calls") and n.split(".")[0] in ("assoc", "pmht"))]
        checks.append(("unaided-j2 records no lookup/assoc/pmht calls",
                       all(unaided[n]["value"] == 0 for n in names)))
    if std:
        modules = ("config", "geomap", "assoc", "pmht", "fusion", "inertial", "harness")
        own = {m: std[f"{m}.self_s"]["value"] for m in modules}
        em = own.pop("pmht") + own.pop("assoc")
        checks.append(("std: pmht + assoc is the largest module self time",
                       em > max(own.values())))
    if std and retro:
        checks.append(("retro ukf_update calls > 10x std",
                       retro["fusion.ukf_update.calls"]["value"]
                       > 10 * std["fusion.ukf_update.calls"]["value"]))
    for label, ok in checks:
        print(f"[check] {label}: {'PASS' if ok else 'FAIL'}")


def _record(wl, cfg_path: str, runs: int, seed: int, deadline: float) -> int:
    from measure import run_cli_campaign

    c = run_cli_campaign(SRC, cfg_path, os.path.join(WORK, wl.name, "campaign"), seed,
                         wl.jobs, runs, deadline - time.perf_counter())
    if not c.digests or c.failed_runs:
        print(f"error: {wl.name} seed {seed} did not complete; nothing recorded",
              file=sys.stderr)
        return 1
    table = _load_json(DIGESTS_JSON) if os.path.exists(DIGESTS_JSON) else {}
    table.setdefault(wl.name, {})[str(seed)] = c.digests
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    with open(DIGESTS_JSON, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {wl.name} seed {seed}: {len(c.digests)} files")
    return 0


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=0, help="campaign base seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: traced per-layer metrics "
                             "(default: 0 for one workload, both for 'all')")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests in perfbench/digests.json")
    args = parser.parse_args(argv)

    needed = [BENCHMARK_JSON, os.path.join(SRC, "gravnav", "cli.py"),
              os.path.join(ROOT, "configs", "corridor.cfg")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a gravnav checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from gravnav.config import serialize_config
    from workloads import WORKLOADS, workload_config

    bench = _load_json(BENCHMARK_JSON)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    modes = [args.trace] if args.trace is not None else ([0, 1] if len(names) > 1 else [0])
    references = _load_json(DIGESTS_JSON) if os.path.exists(DIGESTS_JSON) else {}
    stamp = machine_stamp()

    results, layers = {}, {}
    for name in names:
        wl = WORKLOADS[name]
        cfg = workload_config(ROOT, wl)
        os.makedirs(os.path.join(WORK, name), exist_ok=True)
        cfg_path = os.path.join(WORK, name, "campaign.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(serialize_config(cfg))
        runs = cfg.monte_carlo.runs
        if args.record:
            code = _record(wl, cfg_path, runs, args.seed, time.perf_counter() + DEADLINE_S)
            if code:
                return code
            continue
        reference = references.get(name, {}).get(str(args.seed))
        for mode in modes:
            deadline = time.perf_counter() + DEADLINE_S
            if mode == 0:
                res = run_untraced(wl, cfg_path, runs, args.seed, seconds, reference,
                                   deadline, bench)
            else:
                res = run_traced(wl, cfg_path, runs, args.seed, reference, deadline, bench)
                layers[name] = res["metrics"]
            results[(name, mode)] = res
            os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
            path = os.path.join(WORK, "results", f"{name}-seed{args.seed}-trace{mode}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "seed": args.seed, "trace": mode,
                           "seconds": seconds, "stamp": stamp, **res}, fh, indent=1)
            print(f"  results: {os.path.relpath(path, ROOT)}")
    if args.record:
        return 0
    if len(names) > 1:
        _shape_checks(layers)

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{name}/{m}": v for (name, _), res in results.items()
                   for m, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
