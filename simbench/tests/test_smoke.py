"""Tiny-scale smoke test of the benchmark.

Every workload must complete with no failed cell, a traced pass's self
times must fit inside its wall, the work counters must repeat across
traced passes, and BENCHMARK.json must name exactly the metrics and
workloads the harness reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from simbench import cells, harness, run, spans

ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.01


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(cells.WORKLOADS))
def test_workload_completes_without_failures(name, tmp_path):
    report = harness.measure(cells.WORKLOADS[name], seed=0, seconds=0, workdir=tmp_path,
                             scale=SCALE)
    assert report.attempted > 0
    assert report.failed == 0, [p.failures for p in report.passes]
    assert report.correct, report.problems
    assert set(report.metrics) == set(harness.E2E_UNITS)
    assert all(v > 0 for v in report.metrics.values()), report.metrics
    assert not list(tmp_path.iterdir()), "a pass left files behind"


@pytest.mark.parametrize("name", sorted(cells.WORKLOADS))
def test_traced_self_times_fit_inside_the_wall(name, tmp_path):
    rec = spans.SpanRecorder()
    inst = spans.install(rec)
    try:
        p, _ = harness.run_pass(cells.WORKLOADS[name], 0, SCALE, tmp_path, recorder=rec)
    finally:
        inst.uninstall()
    assert not p.failures
    assert not inst.missing
    self_t = rec.self_times()
    assert (self_t >= -1e-9).all()
    assert self_t.sum() <= p.raw_wall_s
    assert len(rec.names) > len(harness.LAYER_UNITS) // 2


def test_uninstall_restores_every_entry_point(tmp_path):
    from repro.parallel import resharding

    import repro.core.engine as core_engine

    before = (resharding.plan_reshard, core_engine.plan_reshard,
              vars(core_engine.SeesawEngine)["_replica_loop"])
    inst = spans.install(spans.SpanRecorder())
    assert core_engine.plan_reshard is not before[1]
    inst.uninstall()
    after = (resharding.plan_reshard, core_engine.plan_reshard,
             vars(core_engine.SeesawEngine)["_replica_loop"])
    assert after == before


def test_trace_counters_repeat_and_map_to_end_to_end_metrics(tmp_path):
    report = harness.trace(cells.WORKLOADS["online-fleet"], seed=0, seconds=0,
                           workdir=tmp_path, scale=SCALE)
    assert report.correct, report.problems
    assert set(report.metrics) == set(harness.LAYER_UNITS)
    assert report.metrics["cluster.inject_calls"] > 0
    assert report.metrics["obs.overhead_ratio"] > 0


def test_benchmark_json_matches_the_harness():
    bench = _benchmark_json()
    spec = json.loads((ROOT / "simbench" / "spec.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(cells.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(cells.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == harness.LAYER_UNITS
    assert set(spec["layer_map"]) == set(harness.LAYER_UNITS)
    for entry in spec["layer_map"].values():
        for metric, workload in entry["moves"] + entry.get("no_change", []):
            assert metric in harness.E2E_UNITS and workload in cells.WORKLOADS


def test_run_without_the_simulator_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "simbench", tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = _benchmark_json()["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "offline-seesaw", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
