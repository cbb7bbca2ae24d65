"""The benchmark's four workloads, built from a seed through repro's public API.

A workload's ``setup(seed, scale, workdir)`` is what ``setup_s`` times:
workload generation through :mod:`repro.workloads` plus engine (or
executor) construction — the work a user pays on every ``repro run``.
It returns a :class:`Prepared` whose cells the harness times one by one.
A cell returns one :class:`Sim` per simulation it resolved; the harness
verifies each and counts its requests and events.

``scale`` shrinks every workload for the smoke test; the benchmark
itself always runs at scale 1.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import (
    EngineOptions,
    SeesawEngine,
    SeesawOptions,
    VllmLikeEngine,
    best_seesaw_pair,
    best_static_config,
    get_model,
    make_cluster,
    parse_config,
    parse_transition,
    sample_dataset,
    sharegpt_workload,
)
from repro.exec import CellExecutor, CellOutcome, ResultCache
from repro.obs import Telemetry, Tracer
from repro.runtime.metrics import EngineResult
from repro.workloads import poisson_arrivals
from repro.workloads.arrivals import diurnal_arrivals
from repro.workloads.spec import WorkloadSpec

# Generators are looked up by name at call time, so a traced pass sees
# the wrapped entry points (a tuple of functions would pin the originals).
DATASETS = ("sharegpt", "arxiv")

# The paper's offline headline: Seesaw over the best vLLM configuration.
PAPER_SPEEDUP_AVG = 1.36
PAPER_SPEEDUP_BEST = 1.78


@dataclass(frozen=True)
class Sim:
    """One resolved simulation: its input, its output, and what to expect."""

    workload: WorkloadSpec
    result: EngineResult
    expect_transition: bool = False
    # The fluid path processes one event per arrival and reports no
    # engine iterations, so its events are its requests.
    fluid: bool = False
    # Executor cells only: whether the result cache served the result.
    cached: bool | None = None
    # Cross-cell checks the workload itself found failing.
    problems: tuple[str, ...] = ()

    @property
    def events(self) -> int:
        return self.result.num_requests if self.fluid else self.result.iterations


@dataclass(frozen=True)
class Cell:
    """One timed unit of a pass."""

    name: str
    run: Callable[[], list[Sim]]
    # For an obs-on cell, the name of its obs-off twin.
    obs_twin: str | None = None


def _no_cleanup() -> None:
    return None


@dataclass(frozen=True)
class Prepared:
    cells: list[Cell]
    cleanup: Callable[[], None] = _no_cleanup


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, float, Path], Prepared]
    # Extra report lines from one pass's sims, keyed by cell name.
    notes: Callable[[dict[str, list[Sim]]], list[str]] | None = None


def _scaled(base: int, scale: float, floor: int = 16) -> int:
    return max(floor, round(base * scale))


def _engine_cell(name, engine, workload, *, expect_transition=False, fluid=False,
                 obs_twin=None) -> Cell:
    def run() -> list[Sim]:
        return [Sim(workload, engine.run(workload), expect_transition, fluid)]

    return Cell(name, run, obs_twin)


# --------------------------------------------------------------------- #
# offline-seesaw
# --------------------------------------------------------------------- #


def offline_seesaw(seed: int, scale: float, workdir: Path) -> Prepared:
    """34b on 8xA10, offline backlog: Seesaw P8->T4P2 vs vLLM T4P2 on
    ShareGPT and arXiv (the paper's headline setting)."""
    n = _scaled(2000, scale)
    model, cluster = get_model("34b"), make_cluster("A10", 8)
    cells = []
    for dataset in DATASETS:
        workload = sample_dataset(dataset, n, seed=seed)
        seesaw = SeesawEngine(model, cluster, parse_config("P8"), parse_config("T4P2"))
        vllm = VllmLikeEngine(model, cluster, parse_config("T4P2"))
        cells.append(
            _engine_cell(f"{dataset}/seesaw:P8->T4P2", seesaw, workload,
                         expect_transition=True)
        )
        cells.append(_engine_cell(f"{dataset}/vllm:T4P2", vllm, workload))
    return Prepared(cells)


def throughput_ratio_notes(sims: dict[str, list[Sim]]) -> list[str]:
    lines = [
        "simulated Seesaw/vLLM throughput — UNVALIDATED (no hardware "
        f"reference in this repo; paper: {PAPER_SPEEDUP_AVG}x average, "
        f"{PAPER_SPEEDUP_BEST}x best):"
    ]
    for dataset in DATASETS:
        seesaw = sims.get(f"{dataset}/seesaw:P8->T4P2")
        vllm = sims.get(f"{dataset}/vllm:T4P2")
        if seesaw and vllm:
            ratio = seesaw[0].result.throughput_rps / vllm[0].result.throughput_rps
            lines.append(f"  {dataset:<10s} {ratio:.2f}x")
    return lines


# --------------------------------------------------------------------- #
# online-fleet
# --------------------------------------------------------------------- #


def _obs_hooks(obs: bool) -> dict:
    if not obs:
        return {}
    return {"telemetry": Telemetry(), "tracing": Tracer("p99_exemplars")}


def online_fleet(seed: int, scale: float, workdir: Path) -> Prepared:
    """15b on 8xA10 on the event-coupled shared clock: Seesaw D2P4->D2T4
    with JSQ under Poisson 3 rps, and vLLM D4T2 with JSQ and the threshold
    autoscaler under diurnal 6 rps; each once with obs off and once on."""
    n = _scaled(2000, scale)
    model, cluster = get_model("15b"), make_cluster("A10", 8)
    poisson = poisson_arrivals(sharegpt_workload(n, seed=seed), rate_rps=3.0, seed=seed)
    diurnal = diurnal_arrivals(
        sharegpt_workload(n, seed=seed), rate_rps=6.0, period_s=240.0, seed=seed
    )
    cells = []
    for obs in (False, True):
        suffix = "+obs" if obs else ""
        seesaw = SeesawEngine(
            model, cluster, parse_config("D2P4"), parse_config("D2T4"),
            SeesawOptions(router="jsq", coupled=True, **_obs_hooks(obs)),
        )
        vllm = VllmLikeEngine(
            model, cluster, parse_config("D4T2"),
            EngineOptions(router="jsq", coupled=True, autoscaler="threshold",
                          min_dp=1, max_dp=4, **_obs_hooks(obs)),
        )
        seesaw_name = "poisson/seesaw:D2P4->D2T4"
        vllm_name = "diurnal/vllm:D4T2+threshold"
        cells.append(
            _engine_cell(seesaw_name + suffix, seesaw, poisson, expect_transition=True,
                         obs_twin=seesaw_name if obs else None)
        )
        cells.append(
            _engine_cell(vllm_name + suffix, vllm, diurnal,
                         obs_twin=vllm_name if obs else None)
        )
    return Prepared(cells)


# --------------------------------------------------------------------- #
# fluid-day
# --------------------------------------------------------------------- #


def fluid_day(seed: int, scale: float, workdir: Path) -> Prepared:
    """A fluid-fidelity diurnal day (8640 s period) of ~250k ShareGPT
    requests on a 200-replica 15b fleet with the threshold autoscaler."""
    n = _scaled(250_000, scale, floor=1000)
    workload = diurnal_arrivals(
        sharegpt_workload(n, seed=seed),
        rate_rps=35.0 * n / 250_000,
        period_s=8640.0,
        seed=seed,
    )
    engine = VllmLikeEngine(
        get_model("15b"), make_cluster("A10", 400), parse_config("D200T2"),
        EngineOptions(router="jsq", coupled=True, fidelity="fluid",
                      autoscaler="threshold", min_dp=20, max_dp=200),
    )
    return Prepared([_engine_cell("diurnal/vllm:D200T2/fluid", engine, workload,
                                  fluid=True)])


# --------------------------------------------------------------------- #
# tune-sweep
# --------------------------------------------------------------------- #


class _RecordingExecutor(CellExecutor):
    """A :class:`CellExecutor` that keeps every outcome it resolves."""

    def __init__(self, jobs: int, cache: ResultCache) -> None:
        super().__init__(jobs=jobs, cache=cache)
        self.outcomes: list[CellOutcome] = []

    def run_outcomes(self, specs):
        outcomes = super().run_outcomes(specs)
        self.outcomes.extend(outcomes)
        return outcomes


def _executor_sim(outcome: CellOutcome, problems: tuple[str, ...] = ()) -> Sim:
    spec = outcome.spec
    expect = False
    if spec.engine == "seesaw":
        prefill, decode = parse_transition(spec.config)
        expect = prefill != decode
    return Sim(spec.workload, outcome.result, expect, cached=outcome.cached,
               problems=problems)


def tune_sweep(seed: int, scale: float, workdir: Path) -> Prepared:
    """best_seesaw_pair and best_static_config with simulate_top over
    {13b, 15b, 34b} x {ShareGPT, arXiv} on 8xA10, through
    CellExecutor(jobs=2) and a fresh ResultCache: cold, then warm."""
    n = _scaled(2000, scale)
    # 256-request samples: with the default 64, the iterations a cell
    # takes swing about 2x from seed to seed with a few long outputs.
    top = max(2, round(4 * scale))
    sample = _scaled(256, scale, floor=8)
    cluster = make_cluster("A10", 8)
    grid = [
        (get_model(name), sample_dataset(dataset, n, seed=seed))
        for name in ("13b", "15b", "34b")
        for dataset in DATASETS
    ]
    cache_dir = tempfile.mkdtemp(prefix="tune-cache-", dir=workdir)
    cache = ResultCache(cache_dir)
    cold: list = []  # the cold pass's (picks, outcomes)

    def sweep() -> tuple[list, list[CellOutcome]]:
        executor = _RecordingExecutor(jobs=2, cache=cache)
        picks = []
        for model, workload in grid:
            picks.append(best_seesaw_pair(model, cluster, workload, simulate_top=top,
                                          sample_requests=sample, executor=executor))
            picks.append(best_static_config(model, cluster, workload, simulate_top=top,
                                            sample_requests=sample, executor=executor))
        return picks, executor.outcomes

    def run_cold() -> list[Sim]:
        cold[:] = sweep()
        return [_executor_sim(o) for o in cold[1]]

    def run_warm() -> list[Sim]:
        return _compare_warm(cold, *sweep())

    return Prepared(
        [Cell("cold", run_cold), Cell("warm", run_warm)],
        cleanup=lambda: shutil.rmtree(cache_dir, ignore_errors=True),
    )


def _compare_warm(cold: list, picks: list, outcomes: list[CellOutcome]) -> list[Sim]:
    """Warm sims, each carrying the ways it disagrees with the cold pass."""
    cold_picks, cold_outcomes = cold if cold else (None, [])
    cold_results = [o.result for o in cold_outcomes]
    shared = []
    if picks != cold_picks:
        shared.append("warm picks differ from the cold pass's")
    if len(outcomes) != len(cold_results):
        shared.append(f"warm pass resolved {len(outcomes)} cells, cold {len(cold_results)}")
    sims = []
    for i, outcome in enumerate(outcomes):
        problems = list(shared)
        if i >= len(cold_results) or cold_results[i] != outcome.result:
            problems.append("warm result differs from the cold one")
        if not outcome.cached:
            problems.append("warm cell missed the result cache")
        sims.append(_executor_sim(outcome, tuple(problems)))
    return sims


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("offline-seesaw", offline_seesaw, throughput_ratio_notes),
        Workload("online-fleet", online_fleet),
        Workload("fluid-day", fluid_day),
        Workload("tune-sweep", tune_sweep),
    )
}
