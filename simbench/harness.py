"""Timed passes over a workload, and the metrics the benchmark reports.

A *pass* sets a workload up (timed: ``setup_s``), runs each of its cells
(timed, one wall per cell) and verifies every simulation the cells
resolved (untimed). :func:`measure` repeats passes for the run's
seconds, at least :data:`MIN_PASSES` times, and reports the median of
each end-to-end metric. :func:`trace` alternates untraced and traced
passes and reports the per-layer metrics; the work counters among them
must repeat exactly across its traced passes.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from simbench import check, spans
from simbench.cells import Sim, Workload
from simbench.clock import Stopwatch, now

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SPEC = Path(__file__).with_name("spec.json")

E2E_UNITS = {
    "setup_s": "s",
    "sim_req_per_s": "req/s",
    "sim_iter_per_s": "iter/s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "workloads.gen_s": "s",
    "costmodel.calls": "count",
    "costmodel.self_s": "s",
    "parallel.calls": "count",
    "parallel.self_s": "s",
    "runtime.self_s": "s",
    "runtime.kv_ops": "count",
    "runtime.cpu_buffer_ops": "count",
    "runtime.channel_submits": "count",
    "runtime.latency_build_s": "s",
    "core.self_s": "s",
    "core.transitions": "count",
    "core.swapped_tokens": "count",
    "engines.self_s": "s",
    "engines.iterations": "count",
    "engines.preemptions": "count",
    "routing.self_s": "s",
    "routing.dispatches": "count",
    "routing.queries": "count",
    "routing.records_visited": "count",
    "routing.redispatch_ratio": "ratio",
    "cluster.self_s": "s",
    "cluster.advance_calls": "count",
    "cluster.inject_calls": "count",
    "cluster.fluid_self_s": "s",
    "obs.self_s": "s",
    "obs.overhead_ratio": "ratio",
    "exec.self_s": "s",
    "exec.pool_s": "s",
    "exec.cache_hit_ratio": "ratio",
    "exec.cache_get_s": "s",
    "exec.cache_put_s": "s",
    "autotuner.self_s": "s",
    "autotuner.rank_calls": "count",
}

# Deterministic work counters: exactly equal across traced passes.
COUNTERS = tuple(
    name for name, unit in LAYER_UNITS.items() if unit == "count"
) + ("routing.redispatch_ratio", "exec.cache_hit_ratio")


@dataclass
class Pass:
    """What one pass over a workload measured and found. Times are in
    calibrated seconds (see :mod:`simbench.clock`), with the raw walls
    kept beside them. The simulations themselves are not kept, so memory
    does not grow with the pass count."""

    setup_s: float = 0.0
    raw_setup_s: float = 0.0
    walls: dict[str, float] = field(default_factory=dict)
    raw_walls: dict[str, float] = field(default_factory=dict)
    obs_twins: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    requests: int = 0
    events: int = 0
    cells: int = 0
    digest: str = ""
    notes: list[str] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(self.walls.values())

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.timed_s

    @property
    def raw_wall_s(self) -> float:
        return self.raw_setup_s + sum(self.raw_walls.values())

    def rates(self, raw: bool = False) -> dict[str, float]:
        t = sum(self.raw_walls.values()) if raw else self.timed_s
        return {
            "sim_req_per_s": self.requests / t,
            "sim_iter_per_s": self.events / t,
            "cells_per_s": self.cells / t,
        }

    def obs_overhead(self) -> float:
        on = sum(self.walls[c] for c in self.obs_twins)
        off = sum(self.walls[t] for t in self.obs_twins.values())
        return on / off if off > 0 else 0.0


def _root(recorder: spans.SpanRecorder | None, cell: str, kind: str = "cell"):
    return recorder.root(cell, kind) if recorder is not None else nullcontext()


def run_pass(workload: Workload, seed: int, scale: float, workdir: Path,
             recorder: spans.SpanRecorder | None = None) -> tuple[Pass, list[Sim]]:
    """Set ``workload`` up, time each of its cells, verify their output.

    Returns the pass's record and the simulations it resolved."""
    result = Pass()
    by_cell: dict[str, list[Sim]] = {}
    gc.collect()
    clock = Stopwatch()
    clock.start()
    try:
        with _root(recorder, "setup", kind="setup"):
            prepared = workload.setup(seed, scale, workdir)
    except Exception:
        result.raw_setup_s, result.setup_s = clock.stop()
        result.attempted += 1
        result.failures.append(f"setup raised:\n{traceback.format_exc()}")
        return result, []
    result.raw_setup_s, result.setup_s = clock.stop()
    try:
        for cell in prepared.cells:
            clock.start()
            try:
                with _root(recorder, cell.name):
                    sims = cell.run()
            except Exception:
                sims = None
                result.attempted += 1
                result.failures.append(f"{cell.name} raised:\n{traceback.format_exc()}")
            result.raw_walls[cell.name], result.walls[cell.name] = clock.stop()
            if sims is None:
                continue
            by_cell[cell.name] = sims
            if cell.obs_twin is not None:
                result.obs_twins[cell.name] = cell.obs_twin
            for i, sim in enumerate(sims):
                result.attempted += 1
                problems = list(sim.problems) + check.verify(
                    sim.workload, sim.result, sim.expect_transition
                )
                if problems:
                    result.failures.append(f"{cell.name}[{i}]: {'; '.join(problems)}")
    finally:
        prepared.cleanup()
    sims = [s for cell_sims in by_cell.values() for s in cell_sims]
    result.requests = sum(s.result.num_requests for s in sims)
    result.events = sum(s.events for s in sims)
    result.cells = len(sims)
    result.digest = check.digest([s.result for s in sims])
    if workload.notes is not None:
        result.notes = workload.notes(by_cell)
    return result, sims


def peak_rss_mb() -> float:
    """Highest RSS of this process and of its waited-for children (the
    executor's workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Report:
    workload: str
    passes: list[Pass]
    metrics: dict[str, float]
    units: dict[str, str]
    lines: list[str]
    problems: list[str]

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failures) for p in self.passes)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def _common_lines(passes: list[Pass], problems: list[str]) -> list[str]:
    """fail_ratio, the digest check and the workload's notes; failures go
    to stderr."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    lines = [f"fail_ratio        {failed}/{attempted} = {failed / max(attempted, 1):.4f} ratio"]
    digests = [p.digest for p in passes]
    if len(set(digests)) == 1:
        lines.append(f"sim_digest        {digests[0]} (identical across {len(passes)} passes)")
    else:
        problems.append(f"sim_digest differs across passes: {digests}")
        lines.append(f"sim_digest        DIFFERS across passes: {', '.join(digests)}")
    lines += passes[-1].notes
    for p in passes:
        for failure in p.failures:
            print(f"simbench: FAILED {failure}", file=sys.stderr)
    return lines


def measure(workload: Workload, seed: int, seconds: float, workdir: Path,
            import_s: tuple[float, float] = (0.0, 0.0), scale: float = 1.0) -> Report:
    """End-to-end metrics: medians over passes repeated for ``seconds``.

    ``import_s`` is the (raw, calibrated) time the process took to import
    the simulator; it is part of ``setup_s``."""
    passes: list[Pass] = []
    start = now()
    while len(passes) < MIN_PASSES or now() - start < seconds:
        passes.append(run_pass(workload, seed, scale, workdir)[0])
    timed = [p for p in passes if p.timed_s > 0 and p.cells]
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    metrics["setup_s"] = import_s[1] + statistics.median(p.setup_s for p in passes)
    raw["setup_s"] = import_s[0] + statistics.median(p.raw_setup_s for p in passes)
    for name in ("sim_req_per_s", "sim_iter_per_s", "cells_per_s"):
        metrics[name] = statistics.median(p.rates()[name] for p in timed) if timed else 0.0
        raw[name] = statistics.median(p.rates(raw=True)[name] for p in timed) if timed else 0.0
    metrics["peak_rss_mb"] = peak_rss_mb()
    problems: list[str] = []
    lines = [
        f"simbench {workload.name} seed={seed}: {len(passes)} passes in "
        f"{now() - start:.1f} s (end-to-end, untraced; medians over passes; times "
        "in calibrated seconds, raw medians beside them)"
    ]
    for name, value in metrics.items():
        line = f"{name:<17s} {value:<12.6g} {E2E_UNITS[name]}"
        if name in raw:
            line += f"  (raw {raw[name]:.6g})"
        lines.append(line)
    lines[1] += (f"  (import {import_s[1]:.4f} s + median setup "
                 f"{statistics.median(p.setup_s for p in passes):.4f} s)")
    lines += _common_lines(passes, problems)
    return Report(workload.name, passes, metrics, E2E_UNITS, lines, problems)


def layer_metrics(rec: spans.SpanRecorder, p: Pass, sims: list[Sim]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (overhead ratios excluded)."""
    self_t = rec.self_times()
    ids = rec.arrays()["name_id"]
    n = len(rec.names)
    self_by = np.bincount(ids, weights=self_t, minlength=n)
    calls_by = np.bincount(ids, minlength=n)

    def pick(pred) -> list[int]:
        return [i for i, name in enumerate(rec.names) if pred(name)]

    def self_s(pred) -> float:
        return float(sum(self_by[i] for i in pick(pred)))

    def calls(pred) -> int:
        return int(sum(calls_by[i] for i in pick(pred)))

    def layer(name: str):
        return lambda span: span.split(".", 1)[0] == name

    seesaw = [s.result for s in sims if s.result.engine == "seesaw"]
    routed = [s.result for s in sims if s.result.router is not None]
    via_exec = [s for s in sims if s.cached is not None]
    return {
        "trace.wall_s": p.raw_wall_s,
        "unattributed_s": self_s(layer(spans.ROOT_LAYER)),
        "workloads.gen_s": self_s(layer("workloads")),
        "costmodel.calls": calls(layer("costmodel")),
        "costmodel.self_s": self_s(layer("costmodel")),
        "parallel.calls": calls(layer("parallel")),
        "parallel.self_s": self_s(layer("parallel")),
        "runtime.self_s": self_s(layer("runtime")),
        "runtime.kv_ops": calls(lambda s: s.startswith("runtime.KVCacheManager.")),
        "runtime.cpu_buffer_ops": calls(lambda s: s.startswith("runtime.CPUKVBuffer.")),
        "runtime.channel_submits": calls(lambda s: s == "runtime.TransferChannel.submit"),
        "runtime.latency_build_s": self_s(
            lambda s: s.startswith(("runtime.RequestLatency.", "runtime.LatencyStats."))
        ),
        "core.self_s": self_s(layer("core")),
        "core.transitions": sum(r.transitions for r in seesaw),
        "core.swapped_tokens": sum(r.swapped_in_tokens + r.swapped_out_tokens
                                   for r in seesaw),
        "engines.self_s": self_s(layer("engines")),
        "engines.iterations": sum(s.result.iterations for s in sims),
        "engines.preemptions": sum(s.result.latency.total_preemptions for s in sims
                                   if s.result.latency is not None),
        "routing.self_s": self_s(layer("routing")),
        "routing.dispatches": calls(
            lambda s: s.startswith("routing.") and s.endswith(".select")
        ),
        "routing.queries": calls(lambda s: s in spans.LEDGER_QUERIES),
        "routing.records_visited": sum(rec.records_visited.values()),
        "routing.redispatch_ratio": (
            sum(r.router.redispatched_requests for r in routed)
            / sum(r.num_requests for r in routed) if routed else 0.0
        ),
        "cluster.self_s": self_s(layer("cluster")),
        "cluster.advance_calls": calls(lambda s: s == "cluster.ReplicaSim.advance"),
        "cluster.inject_calls": calls(lambda s: s == "cluster.ReplicaSim.inject"),
        "cluster.fluid_self_s": self_s(lambda s: s == "cluster.FluidSimulator.run"),
        "obs.self_s": self_s(layer("obs")),
        "exec.self_s": self_s(layer("exec")),
        "exec.pool_s": self_s(lambda s: s == "exec.CellExecutor._run_pooled"),
        "exec.cache_hit_ratio": (
            sum(1 for s in via_exec if s.cached) / len(via_exec) if via_exec else 0.0
        ),
        "exec.cache_get_s": self_s(lambda s: s == "exec.ResultCache.get"),
        "exec.cache_put_s": self_s(lambda s: s == "exec.ResultCache.put"),
        "autotuner.self_s": self_s(layer("autotuner")),
        "autotuner.rank_calls": calls(lambda s: s.startswith("autotuner.rank_")),
    }


def cell_lines(rec: spans.SpanRecorder) -> list[str]:
    """Per-cell wall beside the routing layer's share of it, and the
    layers that took most of the rest."""
    a = rec.arrays()
    self_t = rec.self_times()
    layers = sorted({name.split(".", 1)[0] for name in rec.names})
    layer_of = np.array([layers.index(name.split(".", 1)[0]) for name in rec.names])
    span_layer = layer_of[a["name_id"]]
    roots = np.flatnonzero(a["parent"] < 0)
    lines = [f"{'cell':<34s} {'wall_s':>8s} {'routing.self_s':>14s} "
             f"{'routing.records_visited':>23s}  top layers by self time"]
    for idx in roots:
        c = int(a["cell_id"][idx])
        in_cell = a["cell_id"] == c
        by_layer = np.bincount(span_layer[in_cell], weights=self_t[in_cell],
                               minlength=len(layers))
        top = [i for i in np.argsort(-by_layer, kind="stable")[:3] if by_layer[i] > 0]
        lines.append(
            f"{rec.cells[c]:<34s} {a['end'][idx] - a['start'][idx]:8.4f} "
            f"{by_layer[layers.index('routing')] if 'routing' in layers else 0.0:14.4f} "
            f"{rec.records_visited.get(c, 0):23d}  "
            + ", ".join(f"{layers[i]}={by_layer[i]:.3f}" for i in top)
        )
    return lines


def _arrows(entry: dict) -> str:
    """The end-to-end metrics a layer metric should move, per spec.json."""
    moves = ", ".join(f"{m}@{w}" for m, w in entry.get("moves", []))
    same = ", ".join(f"{m}@{w}" for m, w in entry.get("no_change", []))
    return (f"-> {moves}" if moves else "") + (f"; no change: {same}" if same else "")


def trace(workload: Workload, seed: int, seconds: float, workdir: Path,
          scale: float = 1.0, spans_out: Path | None = None) -> Report:
    """Per-layer metrics from traced passes, interleaved with untraced ones.

    Time metrics are medians over traced passes; the work counters must
    be identical across them. ``trace.overhead_ratio`` is the median
    traced pass wall over the median untraced one; ``obs.overhead_ratio``
    comes from the untraced passes.
    """
    # The first pass pays lazy imports and allocator growth; it is
    # verified and digested but kept out of the timing medians.
    warmup = run_pass(workload, seed, scale, workdir)[0]
    untraced: list[Pass] = []
    traced: list[tuple[Pass, dict[str, float]]] = []
    last: spans.SpanRecorder | None = None
    missing: list[str] = []
    start = now()
    while (len(traced) < MIN_TRACED_PASSES or not untraced
           or now() - start < seconds):
        if len(traced) > len(untraced):
            untraced.append(run_pass(workload, seed, scale, workdir)[0])
            continue
        rec = spans.SpanRecorder()
        inst = spans.install(rec)
        try:
            p, sims = run_pass(workload, seed, scale, workdir, recorder=rec)
        finally:
            inst.uninstall()
        missing = inst.missing
        traced.append((p, layer_metrics(rec, p, sims)))
        last = rec
    problems: list[str] = []
    metrics: dict[str, float] = {}
    for name in LAYER_UNITS:
        if name == "trace.overhead_ratio":
            base = statistics.median(p.wall_s for p in untraced)
            metrics[name] = statistics.median(p.wall_s for p, _ in traced) / base
        elif name == "obs.overhead_ratio":
            metrics[name] = statistics.median(p.obs_overhead() for p in untraced)
        elif name in COUNTERS:
            values = [m[name] for _, m in traced]
            if len(set(values)) != 1:
                problems.append(f"work counter {name} differs across traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(m[name] for _, m in traced)
    passes = [warmup, *untraced, *(p for p, _ in traced)]
    lines = [
        f"simbench {workload.name} seed={seed}: {len(traced)} traced + "
        f"{len(untraced)} untraced passes after a warm-up pass, in "
        f"{now() - start:.1f} s (per-layer)"
    ]
    layer_map = json.loads(SPEC.read_text())["layer_map"]
    for name, value in metrics.items():
        tag = " exact" if name in COUNTERS else ""
        lines.append(f"{name:<26s} {value:<12.6g} {LAYER_UNITS[name]:<6s}{tag:<6s} "
                     f"{_arrows(layer_map.get(name, {}))}")
    if missing:
        lines.append(f"entry points not found (not traced): {', '.join(missing)}")
    if last is not None:
        lines += cell_lines(last)
        if spans_out is not None:
            last.save(spans_out)
            lines.append(f"spans of the last traced pass written to {spans_out}")
    lines += _common_lines(passes, problems)
    return Report(workload.name, passes, metrics, LAYER_UNITS, lines, problems)
