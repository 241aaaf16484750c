"""Corridor campaign workloads of the benchmark.

Each workload is ``configs/corridor.cfg`` plus a few named key overrides and
the ``--jobs`` value the campaign runs with. The map seed is part of the
corridor config and stays fixed; the benchmark seed becomes the campaign's
base seed on the command line. Why each workload exists is recorded in
BENCHMARK.json and perfbench/METRICS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from gravnav.config import ScenarioConfig, parse_config_text

CORRIDOR_CFG = os.path.join("configs", "corridor.cfg")


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[tuple[str, str], ...]
    jobs: int


# Every workload cuts the campaign to a few runs, so that several campaigns
# fit in one measured window; each run keeps the full two-hour corridor.
# corridor-unaided-j2 needs at least 2 runs: a one-seed campaign skips the pool.
WORKLOADS = {
    w.name: w for w in (
        Workload("corridor-std", (("monte_carlo.runs", "1"),), 1),
        Workload("corridor-retro",
                 (("monte_carlo.runs", "1"), ("fusion.mode", "retrodiction")), 1),
        Workload("corridor-unaided-j2",
                 (("monte_carlo.runs", "4"), ("aiding", "false")), 2),
    )
}


def workload_config(root: str, workload: Workload) -> ScenarioConfig:
    """The corridor config with the workload's overrides applied last."""
    with open(os.path.join(root, CORRIDOR_CFG), encoding="utf-8") as fh:
        text = fh.read()
    extra = "".join(f"{key} = {value}\n" for key, value in workload.overrides)
    return parse_config_text(text + "\n" + extra)
