"""Host-time spans around the public entry points of each ``repro`` layer.

A layer is a package under ``src/repro/``. :data:`ENTRY_POINTS` lists,
per layer, the calls other layers (or users) make into it. For a traced
pass, :func:`install` replaces each one — on its class, or in every
module that bound the function by name — with a wrapper that records a
span (name, start, end, parent span, cell) into a :class:`SpanRecorder`;
:meth:`Installation.uninstall` puts the originals back. Nothing under ``src/`` is
edited: the wrappers live here.

Engine event loops are generators that other layers resume (the
decoupled path iterates them, the coupled cluster steps them), so the
wrapper of a generator records one span per resumption: the time a loop
runs lands on the engine's layer, not on whichever layer resumed it.

Spans stay in memory in flat typed arrays and are written out once, by
:meth:`SpanRecorder.save`. A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over
its spans. The harness opens a root span per setup and per cell (layer
``bench``), so the self times of a pass add up to its wall.

Forked executor workers inherit the wrappers; an at-fork hook removes
them in the child, so only the parent side of a pooled sweep is traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from simbench.clock import now

_LEDGER_QUERY_METHODS = (
    "queued_prefill_tokens",
    "outstanding_tokens",
    "resident_kv_tokens",
    "work_seconds",
    "predicted_ttft",
    "would_preempt",
)

# layer -> entry points, as "module:function" or "module:Class.method".
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "workloads": (
        "repro.workloads.datasets:sharegpt_workload",
        "repro.workloads.datasets:arxiv_workload",
        "repro.workloads.datasets:sample_dataset",
        "repro.workloads.synthetic:constant_workload",
        "repro.workloads.synthetic:uniform_workload",
        "repro.workloads.synthetic:ratio_workload",
        "repro.workloads.synthetic:bimodal_workload",
        "repro.workloads.arrivals:poisson_arrivals",
        "repro.workloads.arrivals:bursty_arrivals",
        "repro.workloads.arrivals:diurnal_arrivals",
        "repro.workloads.arrivals:trace_arrivals",
        "repro.workloads.arrivals:make_arrivals",
        "repro.workloads.arrivals:stamp_arrivals",
        "repro.workloads.spec:WorkloadSpec.subset",
    ),
    "costmodel": tuple(
        f"repro.costmodel.step:StepCostModel.{m}"
        for m in (
            "prefill_stage_time",
            "prefill_pass_time",
            "decode_stage_time",
            "decode_iteration_time",
            "mixed_iteration_time",
            "kv_swap_time",
            "reshard_time",
        )
    ),
    "parallel": (
        "repro.parallel.resharding:plan_reshard",
        "repro.parallel.memory:kv_capacity_tokens",
        "repro.parallel.enumerate:feasible_configs",
    ),
    "runtime": (
        *(
            f"repro.runtime.kvcache:KVCacheManager.{m}"
            for m in (
                "blocks_for",
                "can_allocate",
                "allocate",
                "grow",
                "grow_one_block",
                "free",
                "holds",
                "reserve",
                "cancel_reservation",
            )
        ),
        *(
            f"repro.runtime.cpu_buffer:CPUKVBuffer.{m}"
            for m in ("fits", "push", "peek", "pop", "remove")
        ),
        "repro.runtime.channel:TransferChannel.submit",
        "repro.runtime.channel:TransferChannel.idle_until",
        "repro.runtime.latency:RequestLatency.__init__",
        "repro.runtime.latency:RequestLatency.from_sequence",
        "repro.runtime.latency:LatencyStats.__init__",
        "repro.runtime.latency:LatencyStats.from_sequences",
        "repro.runtime.latency:LatencyStats.merged",
    ),
    # The engines' per-replica event loops are private generators, but
    # they are where an engine's time goes on both the decoupled and the
    # coupled path.
    "core": (
        "repro.core.engine:SeesawEngine._replica_loop",
        "repro.core.engine:SeesawEngine.preempt",
        "repro.core.state:SeesawState.park_in_cpu",
        "repro.core.state:SeesawState.pop_cpu_head",
        "repro.core.state:SeesawState.arrived_inflight",
    ),
    "engines": (
        "repro.engines.vllm_like:VllmLikeEngine._replica_loop",
        *(
            f"repro.engines.base:BaseEngine.{m}"
            for m in (
                "run",
                "start_replica",
                "make_router",
                "router_context",
                "make_costs",
                "make_kv",
                "result_from",
                "idle_advance",
                "form_prefill_microbatches",
                "prefill_time",
                "decode_step",
                "preempt",
            )
        ),
    ),
    "routing": (
        "repro.routing.policies:make_router",
        "repro.routing.policies:Router.route",
        *(
            f"repro.routing.policies:{cls}.select"
            for cls in ("StaticRouter", "JSQRouter", "LeastWorkRouter", "Po2Router",
                        "SLORouter")
        ),
        *(f"repro.routing.load:ReplicaLoad.{m}"
          for m in ("advance", "dispatch", "steal_queued", *_LEDGER_QUERY_METHODS)),
    ),
    "cluster": (
        "repro.cluster.simulator:ClusterSimulator.run",
        "repro.cluster.fluid:FluidSimulator.run",
        *(f"repro.cluster.replica:ReplicaSim.{m}"
          for m in ("advance", "finish", "inject", "steal_pending")),
        *(f"repro.cluster.replica:ObservedLoad.{m}"
          for m in ("queued_prefill_tokens", "outstanding_tokens", "work_seconds",
                    "predicted_ttft", "would_preempt")),
        *(f"repro.cluster.fleet:ReplicaFleet.{m}"
          for m in ("poll", "reap_drained", "scale_up", "scale_down", "resize_to",
                    "stats")),
        "repro.cluster.autoscaler:Autoscaler.decide",
    ),
    "obs": (
        *(f"repro.obs.telemetry:Telemetry.{m}"
          for m in ("counter", "gauge", "histogram", "point", "set_series", "event",
                    "probe", "boundaries", "fold_result")),
        "repro.obs.telemetry:ReplicaProbe.tick",
        *(f"repro.obs.tracing:Tracer.{m}"
          for m in ("note_dispatch", "note_withdraw", "note_redispatch",
                    "note_preempt", "note_resume", "note_handoff",
                    "set_warming_windows", "finalize")),
    ),
    "exec": (
        "repro.exec.executor:CellExecutor.run",
        "repro.exec.executor:CellExecutor.run_outcomes",
        # Private, but the one place the parent waits on its workers.
        "repro.exec.executor:CellExecutor._run_pooled",
        "repro.exec.cache:ResultCache.get",
        "repro.exec.cache:ResultCache.put",
        "repro.exec.spec:CellSpec.execute",
    ),
    "autotuner": (
        "repro.autotuner.search:best_static_config",
        "repro.autotuner.search:best_seesaw_pair",
        "repro.autotuner.search:tune_chunk_size",
        "repro.autotuner.search:rank_static_configs",
        "repro.autotuner.search:rank_seesaw_pairs",
        "repro.autotuner.predictor:predict_request_rate",
        "repro.autotuner.predictor:predict_prefill_rate",
        "repro.autotuner.predictor:predict_decode_rate",
        "repro.autotuner.objective:ServingObjective.predict",
        "repro.autotuner.objective:ServingObjective.rank_key",
        "repro.autotuner.objective:ServingObjective.result_key",
    ),
}

# ReplicaLoad queries walk the ledger's records: count what each visits.
LEDGER_QUERIES = frozenset(f"routing.ReplicaLoad.{m}" for m in _LEDGER_QUERY_METHODS)

ROOT_LAYER = "bench"


class SpanRecorder:
    """In-memory spans of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cells: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.cell_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.cell = -1
        # cell id -> ledger records visited by ReplicaLoad queries
        self.records_visited: dict[int, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.cell_id.append(self.cell)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = now()
        self.stack.pop()

    @contextmanager
    def root(self, cell: str, kind: str = "cell"):
        """A ``bench.<kind>`` span around one setup or cell, tagging every
        span opened inside it with ``cell``."""
        self.cell = len(self.cells)
        self.cells.append(cell)
        idx = self.open(self.intern(f"{ROOT_LAYER}.{kind}"))
        try:
            yield
        finally:
            self.close(idx)
            self.cell = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "cell_id": np.frombuffer(self.cell_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][child], weights=duration[child], minlength=len(duration)
        )
        return duration - covered

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), cells=np.array(self.cells),
                 **self.arrays())


def _span_function(rec: SpanRecorder, fn, name_id: int):
    open_, close = rec.open, rec.close

    def traced(*args, **kwargs):
        idx = open_(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            close(idx)

    return functools.update_wrapper(traced, fn)


def _span_ledger_query(rec: SpanRecorder, fn, name_id: int):
    open_, close, visited = rec.open, rec.close, rec.records_visited

    def traced(load, *args, **kwargs):
        visited[rec.cell] = visited.get(rec.cell, 0) + len(load.records)
        idx = open_(name_id)
        try:
            return fn(load, *args, **kwargs)
        finally:
            close(idx)

    return functools.update_wrapper(traced, fn)


def _span_generator(rec: SpanRecorder, fn, name_id: int):
    open_, close = rec.open, rec.close

    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        sent = None
        while True:
            idx = open_(name_id)
            try:
                item = gen.send(sent)
            except StopIteration as stop:
                return stop.value
            finally:
                close(idx)
            sent = yield item

    return functools.update_wrapper(traced, fn)


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        if attr not in vars(owner):
            raise AttributeError(f"{cls_name} defines no {attr}")
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


class Installation:
    """The wrappers :func:`install` put in place, and how to undo them."""

    def __init__(self) -> None:
        self.undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def uninstall(self) -> None:
        while self.undo:
            owner, attr, original = self.undo.pop()
            setattr(owner, attr, original)


def install(rec: SpanRecorder) -> Installation:
    """Wrap every entry point in :data:`ENTRY_POINTS` to record into ``rec``.

    Methods are replaced on their class. Functions are replaced on their
    defining module — so a module imported later binds the wrapper — and
    under every name any loaded ``repro`` or ``simbench`` module bound
    them by. Entry points that no longer exist are skipped and listed in
    ``Installation.missing``.
    """
    inst = Installation()
    functions: dict[int, tuple] = {}
    for layer, targets in ENTRY_POINTS.items():
        for target in targets:
            try:
                owner, attr, raw = _resolve(target)
            except (ImportError, AttributeError):
                inst.missing.append(target)
                continue
            name_id = rec.intern(f"{layer}.{target.partition(':')[2]}")
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if inspect.isgeneratorfunction(fn):
                wrapped = _span_generator(rec, fn, name_id)
            elif rec.names[name_id] in LEDGER_QUERIES:
                wrapped = _span_ledger_query(rec, fn, name_id)
            else:
                wrapped = _span_function(rec, fn, name_id)
            if kind:
                wrapped = kind(wrapped)
            if isinstance(owner, type):
                inst.undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            else:
                functions[id(raw)] = (raw, wrapped)
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] not in ("repro", "simbench"):
            continue
        for attr, value in list(vars(module).items()):
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                inst.undo.append((module, attr, value))
                setattr(module, attr, hit[1])
    os.register_at_fork(after_in_child=inst.uninstall)
    return inst
