"""Command-line entry point: map generation, runs, campaigns, map inspection.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical failure.
All file outputs are deterministic for a given config and seed; the only
timestamp ever emitted is a single ``generated_at:`` line on stdout.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

import numpy as np

from .config import FusionParams, ScenarioConfig, parse_config
from .errors import ConfigError, GravNavError, NumericalError
from .geomap import (
    feature_variability,
    gradient_at,
    load_grid,
    normalize_variability,
    save_grid,
    value_at,
    variability_field,
)
from .harness import build_grid, run_campaign, run_scenario, write_campaign_outputs, write_run_csv

__all__ = ["main"]


def _stamp() -> None:
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    print(f"generated_at: {now}")


def _load_config(path: str) -> ScenarioConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = parse_config(path)
    return cfg


def _cmd_genmap(args) -> int:
    cfg = _load_config(args.config)
    if cfg.map.gen is None:
        raise ConfigError("genmap needs synthetic map parameters (map.rows, map.cols, ...)")
    cfg.validate()
    grid = build_grid(cfg)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "map.asc")
    save_grid(grid, out_path)
    _stamp()
    print(f"map: {out_path}")
    print(f"rows: {grid.n_rows}")
    print(f"cols: {grid.n_cols}")
    print(f"cell_size_m: {grid.cell_size:.17g}")
    print(f"value_min: {grid.values.min():.17g}")
    print(f"value_max: {grid.values.max():.17g}")
    cvar = variability_field(grid, cfg.fusion.template_half_width)
    for pct in (10, 50, 90):
        print(f"variability_p{pct}: {np.percentile(cvar, pct):.6g}")
    return 0


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")


def _cmd_run(args) -> int:
    _check_seed(args.seed)
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.monte_carlo.base_seed
    report = run_scenario(cfg, seed)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_run_csv(report, os.path.join(args.out, f"{report.seed}.csv"))
    _stamp()
    print(f"seed: {report.seed}")
    print(f"terminal_error_m: {report.terminal_error:.17g}")
    print(f"diverged: {str(report.diverged).lower()}")
    print(f"aiding_epochs: {len(report.epochs)}")
    print(f"accepted_fixes: {sum(e.n_accepted for e in report.epochs)}")
    if report.failed:
        return 3
    return 0


def _cmd_campaign(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    _check_seed(args.seed)
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.monte_carlo.base_seed = args.seed
    report = run_campaign(cfg, jobs=args.jobs)
    write_campaign_outputs(report, args.out)
    _stamp()
    print(f"out: {args.out}")
    print(f"runs: {len(report.seeds)}")
    print(f"mean_error_m: {report.mean_error:.17g}")
    print(f"divergence_rate: {report.divergence_rate:.17g}")
    print(f"config_hash: {report.config_digest}")
    return 0


def _cmd_inspect_map(args) -> int:
    if args.template_half_width < 1:
        raise ConfigError(
            f"--template-half-width must be at least 1, got {args.template_half_width}")
    grid = load_grid(args.map)
    try:
        x, y = (float(p) for p in args.point.split(","))
    except ValueError:
        raise ConfigError(f"--point expects 'x,y', got {args.point!r}") from None
    pos = np.array([x, y])
    value = value_at(grid, pos)
    grad = gradient_at(grid, pos)
    cell = grid.cell_of(pos)
    raw = feature_variability(grid, cell, args.template_half_width)
    norm = normalize_variability([raw], 1)
    print(f"point: {x:.17g},{y:.17g}")
    print(f"cell: {cell[0]},{cell[1]}")
    print(f"value: {value:.17g}")
    print(f"gradient_mag: {float(np.hypot(*grad)):.17g}")
    print(f"variability_raw: {raw:.17g}")
    print(f"variability_norm: {norm:.17g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gravnav",
        description="Map-matching aided inertial navigation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("genmap", help="generate a synthetic map file")
    p_gen.add_argument("--config", required=True, help="scenario config path")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_genmap)

    p_run = sub.add_parser("run", help="run a single seeded scenario")
    p_run.add_argument("--config", required=True, help="scenario config path")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.add_argument("--out", default=None, help="output directory for the run CSV")
    p_run.set_defaults(func=_cmd_run)

    p_camp = sub.add_parser("campaign", help="run a Monte Carlo campaign")
    p_camp.add_argument("--config", required=True, help="scenario config path")
    p_camp.add_argument("--out", required=True, help="output directory")
    p_camp.add_argument("--seed", type=int, default=None, help="base seed override")
    p_camp.add_argument("--jobs", type=int, default=1,
                        help="worker processes, at most one per run and per usable CPU; "
                             "the seeds go out in contiguous blocks, one per worker, "
                             "each run in lock-step")
    p_camp.set_defaults(func=_cmd_campaign)

    p_ins = sub.add_parser("inspect-map", help="print field diagnostics at a point")
    p_ins.add_argument("map", help="ASCII grid file")
    p_ins.add_argument("--point", required=True, help="query position as 'x,y' meters")
    p_ins.add_argument("--template-half-width", type=int,
                       default=FusionParams.template_half_width, dest="template_half_width")
    p_ins.set_defaults(func=_cmd_inspect_map)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GravNavError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
