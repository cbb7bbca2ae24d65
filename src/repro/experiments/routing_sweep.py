"""Routing-policy comparison under Poisson vs. bursty arrivals.

The paper partitions requests across DP replicas once, at t=0; PR 2's
routing subsystem replaces that with arrival-time dispatch. This
experiment quantifies what the dispatch policy is worth: the same
workload is stamped with a Poisson and a bursty (Gamma-modulated)
arrival process at the *same offered rate* and served under every
routing policy on a data-parallel configuration.

The default workload is bimodal (long prompts on one submission-index
parity) — the adversarial-but-realistic shape for static round-robin,
which deals every long prompt to the same replica. Expected result:
under Poisson arrivals the policies are close (round-robin is a fine
balancer for memoryless traffic), while under bursty arrivals ``jsq``
and ``least-work`` hold p99 TTFT well below ``static`` because they
steer arrivals away from the replica still digesting the long-prompt
backlog; ``po2`` lands between (with two replicas it degenerates to
JSQ exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.base import EngineOptions
from repro.errors import ConfigurationError
from repro.exec import CellExecutor, CellSpec
from repro.hardware.cluster import ClusterSpec, make_cluster
from repro.models.config import ModelConfig
from repro.models.registry import get_model
from repro.parallel.config import ParallelConfig, parse_config
from repro.routing import ROUTER_POLICIES
from repro.runtime.metrics import EngineResult
from repro.utils.tables import ascii_table
from repro.workloads.arrivals import make_arrivals
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthetic import bimodal_workload

ARRIVALS = ("poisson", "bursty")


@dataclass(frozen=True)
class RoutingSweepPoint:
    """One (arrival process, routing policy) cell."""

    arrival: str
    policy: str
    result: EngineResult


@dataclass(frozen=True)
class RoutingSweepResult:
    rate_rps: float
    burstiness: float
    points: tuple[RoutingSweepPoint, ...]

    def result(self, arrival: str, policy: str) -> EngineResult:
        for p in self.points:
            if p.arrival == arrival and p.policy == policy:
                return p.result
        raise ConfigurationError(f"no sweep point ({arrival}, {policy})")

    def ttft_p99(self, arrival: str, policy: str) -> float:
        r = self.result(arrival, policy)
        assert r.latency is not None
        return r.latency.ttft.p99


def run_routing_sweep(
    model: ModelConfig | None = None,
    cluster: ClusterSpec | None = None,
    workload: WorkloadSpec | None = None,
    *,
    config: ParallelConfig | None = None,
    policies: tuple[str, ...] = ROUTER_POLICIES,
    rate_rps: float | None = None,
    burstiness: float = 8.0,
    num_requests: int = 48,
    seed: int = 0,
    executor: CellExecutor | None = None,
) -> RoutingSweepResult:
    """Serve one workload under every (arrival process, policy) pair.

    ``rate_rps=None`` drives the cluster at its own offline throughput —
    the knee of the load-latency curve, where dispatch quality matters —
    measured with one untimed offline run of the same configuration.
    ``executor`` (default: an inline :class:`~repro.exec.CellExecutor`)
    runs the capacity probe and the sweep cells; its worker count and
    cache never change the results.
    """
    model = model or get_model("13b")
    cluster = cluster or make_cluster("A10", 8)
    config = config or parse_config("D4T2")
    workload = workload or bimodal_workload(num_requests)
    if config.dp < 2:
        raise ConfigurationError("routing sweep needs a data-parallel config")
    executor = executor or CellExecutor()

    def cell(opts: EngineOptions, wl) -> CellSpec:
        return CellSpec(
            engine="vllm", model=model, cluster=cluster,
            config=config.label(), options=opts, workload=wl, seed=seed,
        )

    if rate_rps is None:
        (offline,) = executor.run([cell(EngineOptions(), workload)])
        rate_rps = offline.throughput_rps
    cells = [
        (arrival, policy, online)
        for arrival in ARRIVALS
        for online in (
            make_arrivals(
                workload, arrival, rate_rps, burstiness=burstiness, seed=seed
            ),
        )
        for policy in policies
    ]
    results = executor.run(
        cell(EngineOptions(router=policy, router_seed=seed), online)
        for _, policy, online in cells
    )
    points = [
        RoutingSweepPoint(arrival=arrival, policy=policy, result=result)
        for (arrival, policy, _), result in zip(cells, results, strict=True)
    ]
    return RoutingSweepResult(
        rate_rps=rate_rps, burstiness=burstiness, points=tuple(points)
    )


def render_routing_sweep(result: RoutingSweepResult | None = None) -> str:
    result = result if result is not None else run_routing_sweep()
    rows = []
    for p in result.points:
        r = p.result
        lat, stats = r.latency, r.router
        assert lat is not None and stats is not None
        rows.append(
            [
                p.arrival,
                p.policy,
                f"{r.throughput_rps:.3f}",
                f"{lat.ttft.p50:.3f}",
                f"{lat.ttft.p99:.3f}",
                f"{lat.queue_delay.mean:.3f}",
                f"{stats.token_imbalance:.2f}",
                f"{stats.peak_queue_imbalance:.2f}",
                str(stats.rebalanced_requests),
            ]
        )
    return ascii_table(
        [
            "arrival",
            "policy",
            "req/s",
            "ttft-p50",
            "ttft-p99",
            "queue(s)",
            "tok-imbal",
            "queue-imbal",
            "rebalanced",
        ],
        rows,
        title=(
            f"Routing policies at {result.rate_rps:.2f} req/s "
            f"(bursty cv2={result.burstiness:g})"
        ),
    )
