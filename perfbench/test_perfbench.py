"""Tests of the benchmark's own logic, on demo-sized inputs (seconds in total)."""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

import numpy as np

import gravnav.harness as harness
import gravnav.pmht as pmht
from gravnav.config import MapSource, parse_config, serialize_config
from gravnav.geomap import save_grid
from measure import layer_metrics, measure_rounds, run_cli_campaign, traced_campaign
from spans import span_totals
from workloads import CORRIDOR_CFG, WORKLOADS, workload_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEMO = os.path.join(ROOT, "configs", "demo.cfg")


def _keyed(cfg) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in serialize_config(cfg).splitlines())


def test_workload_configs_differ_from_corridor_only_in_overrides():
    base = _keyed(parse_config(os.path.join(ROOT, CORRIDOR_CFG)))
    for wl in WORKLOADS.values():
        got = _keyed(workload_config(ROOT, wl))
        changed = {k for k in base.keys() | got.keys() if base.get(k) != got.get(k)}
        assert changed == {key for key, _ in wl.overrides}, wl.name


def test_failed_campaign_counts_every_run_and_rounds_go_on(tmp_path):
    # A nodata hole under the route: sampling the map there raises
    # NodataError, which today ends the whole campaign with a non-zero exit.
    cfg = parse_config(DEMO)
    grid = harness.build_grid(cfg)
    row, col = grid.cell_of(np.asarray(cfg.start) + np.array([2000.0, 0.0]))
    values = grid.values.copy()
    values[row - 2:row + 3, col - 2:col + 3] = grid.nodata
    save_grid(replace(grid, values=values), tmp_path / "holed.asc")
    cfg.map = MapSource(file=str(tmp_path / "holed.asc"))
    cfg_path = tmp_path / "holed.cfg"
    cfg_path.write_text(serialize_config(cfg))

    setup, campaigns = measure_rounds(SRC, str(cfg_path), str(tmp_path / "out"), seed=0,
                                      jobs=1, runs=cfg.monte_carlo.runs, seconds=0,
                                      min_rounds=2, deadline=time.perf_counter() + 120)
    assert len(setup) == len(campaigns) == 2
    for c in campaigns:
        assert c.exit_code != 0
        assert c.failed_runs == c.runs == 2
        assert c.digests == {}


def test_campaign_past_its_deadline_is_killed_and_fails(tmp_path):
    c = run_cli_campaign(SRC, DEMO, str(tmp_path / "out"), seed=0, jobs=2, runs=2,
                         timeout_s=0.05)
    assert c.exit_code != 0
    assert c.failed_runs == c.runs == 2
    assert c.peak_rss_mb is None


def test_repeated_campaigns_write_identical_outputs(tmp_path):
    _, campaigns = measure_rounds(SRC, DEMO, str(tmp_path / "out"), seed=3, jobs=1, runs=2,
                                  seconds=0, min_rounds=2, deadline=time.perf_counter() + 120)
    first, second = campaigns
    assert first.exit_code == second.exit_code == 0
    assert first.failed_runs == second.failed_runs == 0
    assert set(first.digests) == {"campaign.csv", "summary.csv", "runs/3.csv", "runs/4.csv"}
    assert first.digests == second.digests
    assert first.peak_rss_mb > 0


def test_self_time_subtracts_direct_children():
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0], ["b", 0, 5.0, 6.0]]
    totals = span_totals(spans)
    assert totals["a"] == {"calls": 1, "self_s": 6.0}
    assert totals["b"] == {"calls": 2, "self_s": 3.0}
    assert totals["c"] == {"calls": 1, "self_s": 1.0}


def test_traced_run_reports_every_layer_metric_and_keeps_outputs(tmp_path):
    originals = (harness.lookup_candidates, pmht.candidate_weights, harness.run_scenario)
    run = traced_campaign(DEMO, str(tmp_path / "traced"), seed=0, runs=2)
    assert (harness.lookup_candidates, pmht.candidate_weights, harness.run_scenario) == originals

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    values = layer_metrics(run, str(tmp_path / "traced"), names)
    assert set(values) == set(names)
    # Lookups that raise (a window off the map) call no observer.
    assert 0 < run.counters["scans"] <= values["geomap.lookup_candidates.calls"]
    assert values["pmht.run_batch.calls"] > 0
    assert values["pmht.em_step.calls"] >= values["pmht.run_batch.calls"]
    assert values["assoc.noise_cov_rebuild_ratio"] >= 1.0
    assert values["harness.output_bytes"] > 0
    assert all(np.isfinite(v) for v in values.values())

    # Tracing at --jobs 1 leaves the outputs byte-identical to a --jobs 2 process.
    pooled = run_cli_campaign(SRC, DEMO, str(tmp_path / "pooled"), seed=0, jobs=2, runs=2,
                              timeout_s=120)
    assert run.campaign.digests and run.campaign.digests == pooled.digests
