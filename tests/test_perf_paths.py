"""The fast shared-clock core, pinned against its reference paths.

Contracts:

1. **Heap == linear scan** — the lazy min-heap event loop of
   :class:`ClusterSimulator` produces bit-identical
   :class:`EngineResult`s to the exhaustive next-event scan
   (``use_heap=False``), across engines, routers and autoscalers: the
   heap is pure dispatch mechanics, never policy.
2. **Vector == scalar** — the numpy decode-slot path
   (``EngineOptions.vectorize``) is bit-identical to the object path on
   online coupled cells, including preemption-heavy ones, and on offline
   backlogs where admissions extend live slots.
3. **Fluid calibration** — the mean-field fast path tracks the event
   path on the calibration cells: p99 TTFT within 10%, makespan within
   10% on the fixed fleet; on the autoscaled cell the scale decisions
   match exactly and billed replica-seconds stay within 15%.
4. **Auto fidelity** — ``fidelity=auto`` picks the event path below the
   work-volume threshold (small cells keep full fidelity).
5. **Bench harness** — the perf cells run scaled-down and the
   regression check normalizes by the calibration spin.
6. **Linear offline backlog** — ledger records visited and
   ``remaining_prefill`` reads grow linearly with the backlog (counted,
   not timed, so a quadratic regression fails on any machine).
7. **Array-native workload generation** — a diurnal workload builds
   each ``Request`` once and runs its bisection in a fixed number of
   array passes, whatever the request count (counted, not timed).
8. **Columnar latency** — a fluid run hands its stamps over as
   ``LatencyStats`` columns and builds no ``RequestLatency``; the
   records are materialized once, on first access (counted).
9. **Observed-load log == rescan** — every coupled dispatch probe
   answered from the prefill-completion log equals the live-sequence
   rescan it replaced (hypothesis, engines x routers x autoscaler, plus
   a KV-tight recompute cell), and the log entries probes visit grow
   linearly with the request count (counted).
10. **Fluid engine guard** — only vllm-like engines run on the fluid
    path; ``auto`` keeps every other engine on the event path.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.fluid as fluid_mod
import repro.cluster.replica as replica_mod
import repro.routing.load as load_mod
import repro.runtime.latency as latency_mod
from repro.bench import CELLS, check_measurement, run_cell
from repro.cluster import ClusterSimulator
from repro.cluster.fluid import AUTO_FLUID_WORK_ITEMS
from repro.cluster.replica import ReplicaSim
from repro.core.engine import SeesawEngine
from repro.core.options import SeesawOptions
from repro.engines.base import BaseEngine, EngineOptions
from repro.engines.decode_prioritized import DecodePrioritizedEngine
from repro.engines.slots import DecodeSlots
from repro.engines.vllm_like import VllmLikeEngine
from repro.errors import ConfigurationError, SimulationError
from repro.hardware.cluster import make_cluster
from repro.models.registry import get_model
from repro.obs import Telemetry
from repro.parallel.config import ParallelConfig, parse_config, parse_transition
from repro.runtime.kvcache import KVCacheManager
from repro.runtime.latency import RequestLatency
from repro.runtime.request import Request, Sequence
from repro.workloads.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)
from repro.workloads.datasets import sharegpt_workload


def assert_bit_identical(a, b) -> None:
    """Full EngineResult equality, with readable failures first."""
    assert a.total_time == b.total_time
    assert a.iterations == b.iterations
    assert a.phase_time == b.phase_time
    if a.latency is not None:
        assert a.latency.records == b.latency.records
    if a.router is not None:
        assert a.router == b.router
    assert a == b


class TestHeapEventLoop:
    """Heap-driven dispatch == exhaustive next-event scan, bit for bit."""

    def run_pair(self, make_engine, workload):
        reqs = list(workload.requests)
        linear = ClusterSimulator(make_engine(), reqs, use_heap=False).run()
        heap = ClusterSimulator(make_engine(), reqs, use_heap=True).run()
        return linear, heap

    def test_vllm_jsq_poisson(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(120, seed=3), 6.0, seed=3)
        linear, heap = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(router="jsq", coupled=True),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_vllm_least_work_bursty(self, tiny_model, cluster_a10_4):
        wl = bursty_arrivals(sharegpt_workload(100, seed=5), 8.0, burstiness=6.0, seed=5)
        linear, heap = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(router="least-work", coupled=True),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_decode_prioritized_po2(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(80, seed=9), 6.0, seed=9)
        linear, heap = self.run_pair(
            lambda: DecodePrioritizedEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(router="po2", router_seed=9, coupled=True),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_seesaw_jsq(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(60, seed=13), 4.0, seed=13)
        cp, cd = parse_transition("D2P2->D2T2")
        linear, heap = self.run_pair(
            lambda: SeesawEngine(
                tiny_model,
                cluster_a10_4,
                cp,
                cd,
                SeesawOptions(router="jsq", coupled=True),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_vllm_threshold_autoscaled(self, tiny_model, cluster_a10_4):
        wl = diurnal_arrivals(
            sharegpt_workload(120, seed=17), rate_rps=5.0, period_s=20.0, seed=17
        )
        linear, heap = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(
                    router="jsq",
                    coupled=True,
                    autoscaler="threshold",
                    min_dp=1,
                    max_dp=2,
                ),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)

    def test_vllm_predictive_autoscaled(self, tiny_model, cluster_a10_4):
        wl = diurnal_arrivals(
            sharegpt_workload(120, seed=19), rate_rps=5.0, period_s=20.0, seed=19
        )
        linear, heap = self.run_pair(
            lambda: VllmLikeEngine(
                tiny_model,
                cluster_a10_4,
                parse_config("D2T2"),
                EngineOptions(
                    router="jsq",
                    coupled=True,
                    autoscaler="predictive",
                    min_dp=1,
                    max_dp=2,
                    ttft_slo=5.0,
                ),
            ),
            wl,
        )
        assert_bit_identical(linear, heap)


class TestScalarVectorEquivalence:
    """The numpy decode-slot path never changes a single result."""

    def run_pair(self, make_engine, workload):
        scalar = make_engine(EngineOptions(router="jsq", coupled=True, vectorize=False))
        vector = make_engine(EngineOptions(router="jsq", coupled=True, vectorize=True))
        return scalar.run(workload), vector.run(workload)

    def test_vllm_online(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(150, seed=7), 8.0, seed=7)
        scalar, vector = self.run_pair(
            lambda o: VllmLikeEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"), o
            ),
            wl,
        )
        assert_bit_identical(scalar, vector)

    def test_vllm_preemption_heavy(self, tiny_model):
        # A single cramped replica: bursts overflow KV and force the
        # grow/preempt fallback; the slot path must hand over and return
        # without drifting a counter.
        cluster = make_cluster("A10", 1)
        wl = bursty_arrivals(
            sharegpt_workload(120, seed=23), 12.0, burstiness=8.0, seed=23
        )
        scalar, vector = self.run_pair(
            lambda o: VllmLikeEngine(tiny_model, cluster, parse_config("T1"), o),
            wl,
        )
        if scalar.router is not None:
            assert scalar.router.observed_preemptions == (
                vector.router.observed_preemptions
            )
        assert_bit_identical(scalar, vector)

    def test_seesaw_online(self, tiny_model, cluster_a10_4):
        wl = poisson_arrivals(sharegpt_workload(80, seed=29), 6.0, seed=29)
        cp, cd = parse_transition("D2P2->D2T2")
        mk = lambda vec: SeesawEngine(
            tiny_model,
            cluster_a10_4,
            cp,
            cd,
            SeesawOptions(router="jsq", coupled=True, vectorize=vec),
        )
        assert_bit_identical(mk(False).run(wl), mk(True).run(wl))

    def test_admission_scan_offline(self, tiny_model, cluster_a10_4):
        # Offline deal: the waiting queue is deep from t=0, so the
        # cumulative-sum admission scan is on the hot path every wave.
        wl = sharegpt_workload(120, seed=13)
        mk = lambda vec: VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2P2"),
            EngineOptions(vectorize=vec),
        )
        assert_bit_identical(mk(False).run(wl), mk(True).run(wl))

    def test_admission_scan_budget_and_kv_breaks(self, tiny_model):
        # A cramped single replica exercises every break arm of the
        # scalar scan: seq cap, budget overflow (first prompt exempt),
        # and KV-block exhaustion mid-window.
        cluster = make_cluster("A10", 1)
        wl = bursty_arrivals(
            sharegpt_workload(100, seed=31), 16.0, burstiness=8.0, seed=31
        )
        mk = lambda vec: VllmLikeEngine(
            tiny_model,
            cluster,
            parse_config("T1"),
            EngineOptions(vectorize=vec, max_num_seqs=24, max_batched_tokens=2048),
        )
        assert_bit_identical(mk(False).run(wl), mk(True).run(wl))

    def test_admission_scan_below_window_uses_scalar(self, tiny_model, cluster_a10_4):
        # Tiny queues stay on the scalar path (VECTORIZE_MIN_SEQS gate)
        # and still match a forced-scalar run.
        from repro.workloads.synthetic import constant_workload

        wl = constant_workload(3, 256, 16)
        mk = lambda vec: VllmLikeEngine(
            tiny_model,
            cluster_a10_4,
            parse_config("T2P2"),
            EngineOptions(vectorize=vec),
        )
        assert_bit_identical(mk(False).run(wl), mk(True).run(wl))


class TestSlotsSurviveAdmission:
    """Admission appends to live decode slots instead of dropping them
    (offline 34b backlogs on 4xA10 T2P2 keep KV under pressure, so
    admissions land between decode iterations). Every run is checked
    against the object path, and the slot events seen by the vectorized
    run prove the append path was taken."""

    @pytest.fixture
    def events(self, monkeypatch):
        log = []
        append, advance, preempt = (
            DecodeSlots.append,
            DecodeSlots.try_advance,
            BaseEngine.preempt,
        )

        def spy_append(slots, seq, kv):
            log.append(("append", seq.request.output_len))
            append(slots, seq, kv)

        def spy_advance(slots, kv):
            ok = advance(slots, kv)
            if not ok:
                log.append(("fallback", None))
            return ok

        def spy_preempt(engine, *args):
            log.append(("preempt", None))
            preempt(engine, *args)

        monkeypatch.setattr(DecodeSlots, "append", spy_append)
        monkeypatch.setattr(DecodeSlots, "try_advance", spy_advance)
        monkeypatch.setattr(BaseEngine, "preempt", spy_preempt)
        return log

    def run_pair(self, make_engine, workload, events):
        vector = make_engine(True).run(workload)
        seen = list(events)
        assert_bit_identical(make_engine(False).run(workload), vector)
        return seen

    def vllm(self, model, cluster):
        return lambda vec: VllmLikeEngine(
            model, cluster, parse_config("T2P2"), EngineOptions(vectorize=vec)
        )

    def test_pp_offline_backlog(self, model_34b, cluster_a10_4, events):
        seen = self.run_pair(
            self.vllm(model_34b, cluster_a10_4), sharegpt_workload(400, seed=3), events
        )
        assert any(kind == "append" for kind, _ in seen)

    def test_seesaw_swap_in_resumes(self, model_34b, cluster_a10_4, events):
        # Every admission into the decode batch of P4->T2P2 is a swap-in
        # resume from the CPU pool.
        cp, cd = parse_transition("P4->T2P2")
        seen = self.run_pair(
            lambda vec: SeesawEngine(
                model_34b, cluster_a10_4, cp, cd, SeesawOptions(vectorize=vec)
            ),
            sharegpt_workload(400, seed=3),
            events,
        )
        assert any(kind == "append" for kind, _ in seen)

    def test_single_token_output_admitted_on_live_slots(
        self, model_34b, cluster_a10_4, events
    ):
        # output_len == 1 finishes at its prefill, inside the same
        # iteration that appended it to the slots.
        reqs = [
            Request(i, 300, 1) if i % 3 == 0 else Request(i, 600, 150)
            for i in range(400)
        ]
        seen = self.run_pair(self.vllm(model_34b, cluster_a10_4), reqs, events)
        assert ("append", 1) in seen

    def test_append_then_kv_fallback_and_preemption(
        self, model_34b, cluster_a10_4, events
    ):
        vector_events = self.run_pair(
            self.vllm(model_34b, cluster_a10_4), sharegpt_workload(300, seed=4), events
        )
        seen = [kind for kind, _ in vector_events]
        first = seen.index("append")
        fallback = seen.index("fallback", first)
        assert "preempt" in seen[fallback:]


class TestLinearBacklog:
    """Work counters of an offline static backlog at N and 2N requests.

    34b on 4xA10 T2P2 with max_num_seqs=32 keeps a deep waiting queue
    behind a KV-bound running batch for most of the run, so every
    per-iteration queue scan and every per-dispatch ledger scan would
    show as ~4x growth here."""

    def counted_run(self, model, cluster, n, monkeypatch):
        # A ledger scan prorates every record it visits through _remaining.
        counts = {"records": 0, "remaining_prefill": 0}
        remaining = load_mod._remaining
        fget = Sequence.remaining_prefill.fget

        def count_record(*args):
            counts["records"] += 1
            return remaining(*args)

        def count_read(seq):
            counts["remaining_prefill"] += 1
            return fget(seq)

        with monkeypatch.context() as m:
            m.setattr(load_mod, "_remaining", count_record)
            m.setattr(Sequence, "remaining_prefill", property(count_read))
            VllmLikeEngine(
                model, cluster, parse_config("T2P2"), EngineOptions(max_num_seqs=32)
            ).run([Request(i, 1024, 64) for i in range(n)])
        return counts

    def test_work_grows_linearly(self, model_34b, cluster_a10_4, monkeypatch):
        small = self.counted_run(model_34b, cluster_a10_4, 300, monkeypatch)
        large = self.counted_run(model_34b, cluster_a10_4, 600, monkeypatch)
        for name in small:
            assert small[name] > 0
            assert large[name] <= 2.2 * small[name], (name, small[name], large[name])


class TightKVVllm(VllmLikeEngine):
    """Caps every replica's KV cache so decode growth must evict (the
    tiny model never fills a 24 GiB GPU on its own)."""

    def make_kv(self, config=None, reserve_tokens=0):
        return KVCacheManager(capacity_tokens=6144, block_size=16)


def rescan_unstarted(state) -> int:
    """Reference: remaining prompt tokens over both queues."""
    return sum(s.remaining_prefill for q in (state.pending, state.waiting) for s in q)


def rescan_queued_prefill_tokens(sim, now: float) -> float:
    """Reference observed-load answer: the full live-sequence rescan the
    completion log replaced — unstarted prompts plus every completed
    prefill whose end lies past ``now``."""
    state = sim.run.state
    inflight = sum(
        s.prefill_target
        for s in state.live_sequences()
        if s.is_prefill_complete and s.prefill_end_time > now + 1e-12
    )
    return float(rescan_unstarted(state) + inflight)


def checked_run(engine, reqs):
    """Run ``engine`` on the coupled clock with every observed-load probe
    asserted equal to the rescan oracle; returns (result, stats)."""
    fast = ReplicaSim.queued_prefill_tokens
    stats = {"probes": 0, "inflight": 0, "retargeted": 0}

    def checked(sim, now=None):
        got = fast(sim, now)
        at = sim.clock if now is None else now
        assert got == rescan_queued_prefill_tokens(sim, at), (sim.replica_id, at)
        assert sim.unstarted_prefill_tokens() == rescan_unstarted(sim.run.state)
        stats["probes"] += 1
        for end, seq in sim.run.state.completions:
            if end > at + 1e-12:
                stats["inflight"] += 1
                if not seq.is_prefill_complete:
                    stats["retargeted"] += 1
        return got

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ReplicaSim, "queued_prefill_tokens", checked)
        result = engine.run(reqs)
    return result, stats


def observed_engine(kind, model, cluster, router, autoscaled):
    opts = dict(router=router, router_seed=3, coupled=True, ttft_slo=2.0)
    if autoscaled:
        # Telemetry samples look back to grid boundaries the autoscaler's
        # probe of the same arrival already passed.
        opts.update(
            autoscaler="threshold", min_dp=1, max_dp=2,
            telemetry=Telemetry(interval_s=0.25),
        )
    if kind == "seesaw":
        cp, cd = parse_transition("D2P2->D2T2")
        return SeesawEngine(model, cluster, cp, cd, SeesawOptions(**opts))
    cls = VllmLikeEngine if kind == "vllm" else DecodePrioritizedEngine
    return cls(model, cluster, parse_config("D2T2"), EngineOptions(**opts))


class TestObservedLoadLog:
    """Observed-load probes read the prefill-completion log and answer
    exactly what the full live-sequence rescan answered."""

    @pytest.mark.parametrize("autoscaled", [False, True])
    @pytest.mark.parametrize("router", ["jsq", "least-work", "slo", "po2"])
    @pytest.mark.parametrize("kind", ["vllm", "seesaw", "decode-prio"])
    @given(
        n=st.integers(8, 60),
        seed=st.integers(0, 10_000),
        rate=st.floats(2.0, 40.0),
        bursty=st.booleans(),
    )
    @settings(max_examples=5, deadline=None)
    def test_probes_match_rescan(
        self, cluster_a10_4, kind, router, autoscaled, n, seed, rate, bursty
    ):
        # 15b iterations are long enough that committed prefills often
        # overshoot the next arrival, so the in-flight walk has work.
        wl = sharegpt_workload(n, seed=seed)
        reqs = (
            bursty_arrivals(wl, rate, burstiness=6.0, seed=seed)
            if bursty
            else poisson_arrivals(wl, rate, seed=seed)
        )
        engine = observed_engine(kind, get_model("15b"), cluster_a10_4, router, autoscaled)
        result, stats = checked_run(engine, reqs)
        assert result.num_requests == n
        assert stats["probes"] > 0

    def test_kv_tight_recompute_retargets(self, tiny_model, cluster_a10_4):
        """Recompute preemptions re-target completed prefills still in
        the log; the probe must skip them exactly as the rescan does."""
        reqs = bursty_arrivals(
            sharegpt_workload(120, seed=23), 16.0, burstiness=8.0, seed=23
        )
        engine = TightKVVllm(
            tiny_model, cluster_a10_4, parse_config("D2T2"),
            EngineOptions(router="jsq", coupled=True),
        )
        result, stats = checked_run(engine, reqs)
        assert sum(result.router.observed_preemptions) > 0
        assert stats["inflight"] > 0
        assert stats["retargeted"] > 0

    def test_recompleted_prefill_counts_once(self, tiny_model, cluster_a10_4):
        """A recompute before the first decode step re-completes the same
        prompt: only the latest log entry may count."""
        sim = ReplicaSim(
            VllmLikeEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"),
                EngineOptions(router="jsq", coupled=True),
            ),
            0,
        )
        state = sim.run.state
        seq = Sequence(Request(0, 100, 10))
        state.running.append(seq)
        seq.advance_prefill(100)
        state.complete_prefill(seq, 1.0)
        seq.preempt_recompute()
        seq.advance_prefill(100)
        state.complete_prefill(seq, 2.0)
        for now in (0.5, 1.5, 2.5):
            expected = rescan_queued_prefill_tokens(sim, now)
            assert sim.queued_prefill_tokens(now) == expected
        assert expected == 0.0 and rescan_queued_prefill_tokens(sim, 0.5) == 100.0

    def test_log_absent_off_the_coupled_path(self, tiny_model, cluster_a10_4):
        engine = VllmLikeEngine(tiny_model, cluster_a10_4, parse_config("T2"))
        run = engine._replica_setup([Request(0, 64, 4)], 0)
        assert run.state.completions is None

    def test_backward_probe_refused(self, tiny_model, cluster_a10_4):
        sim = ReplicaSim(
            VllmLikeEngine(
                tiny_model, cluster_a10_4, parse_config("D2T2"),
                EngineOptions(router="jsq", coupled=True),
            ),
            0,
        )
        sim.queued_prefill_tokens(4.0)
        sim.queued_prefill_tokens(5.0)
        # A telemetry boundary may look back past the latest probe ...
        sim.queued_prefill_tokens(4.5)
        sim.queued_prefill_tokens(4.0 - 1e-13)  # (within the epsilon)
        # ... but never behind the one before it.
        with pytest.raises(SimulationError, match="probe"):
            sim.queued_prefill_tokens(3.0)


class TestLinearObservedProbes:
    """Completion-log entries visited by observed-load probes in a coupled
    Seesaw JSQ run at N and 2N requests (counted, not timed): a probe
    walks only the prefills still in flight at its instant, and each
    entry is trimmed once."""

    def counted_run(self, model, cluster, n):
        counts = {"visited": 0, "trimmed": 0}

        class CountingLog(deque):
            def __reversed__(self):
                for item in deque.__reversed__(self):
                    counts["visited"] += 1
                    yield item

            def popleft(self):
                counts["trimmed"] += 1
                return deque.popleft(self)

        reqs = poisson_arrivals(sharegpt_workload(n, seed=31), 6.0, seed=31)
        cp, cd = parse_transition("D2P2->D2T2")
        with pytest.MonkeyPatch.context() as m:
            m.setattr(replica_mod, "deque", CountingLog)
            SeesawEngine(
                model, cluster, cp, cd, SeesawOptions(router="jsq", coupled=True)
            ).run(reqs)
        return counts

    def test_visits_grow_linearly(self, tiny_model, cluster_a10_4):
        small = self.counted_run(tiny_model, cluster_a10_4, 150)
        large = self.counted_run(tiny_model, cluster_a10_4, 300)
        for name in small:
            assert small[name] > 0
            assert large[name] <= 2.2 * small[name], (name, small[name], large[name])


class TestArrayNativeWorkloads:
    """Work counters of ``diurnal_arrivals`` at 1k and 10k requests."""

    def counted_diurnal(self, n, monkeypatch):
        counts = {"post_init": 0, "cos": 0}
        post_init, cos = Request.__post_init__, np.cos

        def count_post_init(req):
            counts["post_init"] += 1
            post_init(req)

        def count_cos(x):
            counts["cos"] += 1
            return cos(x)

        wl = sharegpt_workload(n, seed=0)
        with monkeypatch.context() as m:
            m.setattr(Request, "__post_init__", count_post_init)
            m.setattr(np, "cos", count_cos)
            diurnal_arrivals(wl, rate_rps=35.0, period_s=8640.0, seed=0)
        return counts

    def test_requests_built_once_and_passes_fixed(self, monkeypatch):
        small = self.counted_diurnal(1_000, monkeypatch)
        large = self.counted_diurnal(10_000, monkeypatch)
        assert small["post_init"] == 1_000
        assert large["post_init"] == 10_000
        # One period-extension check plus at most 80 bisection steps. The
        # same seed and rate make the 1k stream a prefix of the 10k one,
        # and the earliest arrivals take the most steps to converge.
        assert 0 < small["cos"] == large["cos"] <= 81


class TestColumnarLatency:
    """Record objects built by a fluid run of n requests, at 1k and 10k."""

    def counted_fluid(self, n, monkeypatch):
        counts = {"init": 0, "build": 0}
        init, build = RequestLatency.__init__, latency_mod._build_records

        def count_init(self, *args, **kwargs):
            counts["init"] += 1
            init(self, *args, **kwargs)

        def count_build(columns):
            counts["build"] += 1
            return build(columns)

        reqs = poisson_arrivals(sharegpt_workload(n, seed=0), 40.0, seed=0)
        eng = VllmLikeEngine(
            get_model("15b"),
            make_cluster("A10", 8),
            ParallelConfig(dp=4, tp=2, pp=1),
            EngineOptions(router="jsq", coupled=True, fidelity="fluid"),
        )
        with monkeypatch.context() as m:
            m.setattr(RequestLatency, "__init__", count_init)
            m.setattr(latency_mod, "_build_records", count_build)
            latency = eng.run(reqs).latency
            at_return = dict(counts)
            records = latency.records
            assert latency.records is records
        assert len(records) == n
        return at_return, counts

    def test_no_record_objects_until_asked(self, monkeypatch):
        for n in (1_000, 10_000):
            at_return, after = self.counted_fluid(n, monkeypatch)
            assert at_return == {"init": 0, "build": 0}
            assert after == {"init": 0, "build": 1}


class TestFluidCalibration:
    """The fluid fast path against the event path on the fixed
    calibration cells (the tolerances are the published fidelity
    contract — see README 'Performance & fidelity tiers')."""

    def _run(self, fidelity, reqs, **opts):
        eng = VllmLikeEngine(
            get_model("15b"),
            make_cluster("A10", 8),
            ParallelConfig(dp=4, tp=2, pp=1),
            EngineOptions(router="jsq", coupled=True, fidelity=fidelity, **opts),
        )
        return eng.run(reqs)

    def test_fixed_fleet_poisson(self):
        reqs = poisson_arrivals(sharegpt_workload(2000, seed=7), 8.0, seed=7)
        event = self._run("event", reqs)
        fluid = self._run("fluid", reqs)
        ttft_ratio = fluid.latency.ttft.p99 / event.latency.ttft.p99
        assert abs(ttft_ratio - 1.0) <= 0.10
        assert abs(fluid.total_time / event.total_time - 1.0) <= 0.10

    def test_autoscaled_diurnal_predictive(self):
        reqs = diurnal_arrivals(
            sharegpt_workload(2000, seed=11), rate_rps=6.0, period_s=240.0, seed=11
        )
        kw = dict(autoscaler="predictive", min_dp=1, max_dp=4, ttft_slo=2.0)
        event = self._run("event", reqs, **kw)
        fluid = self._run("fluid", reqs, **kw)
        ttft_ratio = fluid.latency.ttft.p99 / event.latency.ttft.p99
        assert abs(ttft_ratio - 1.0) <= 0.10
        ev_fleet, fl_fleet = event.router.fleet, fluid.router.fleet
        assert fl_fleet.scale_ups == ev_fleet.scale_ups
        assert fl_fleet.scale_downs == ev_fleet.scale_downs
        assert abs(fl_fleet.replica_seconds / ev_fleet.replica_seconds - 1.0) <= 0.15

    def test_auto_picks_event_below_threshold(self):
        reqs = poisson_arrivals(sharegpt_workload(200, seed=7), 8.0, seed=7)
        assert len(reqs.requests) * 1 < AUTO_FLUID_WORK_ITEMS
        event = self._run("event", reqs)
        auto = self._run("auto", reqs)
        assert auto.iterations == event.iterations
        assert auto.latency.records == event.latency.records



class TestFluidEngineGuard:
    """The fluid path models only vllm-like replicas: an explicit
    ``fidelity="fluid"`` refuses every other engine, and ``auto`` keeps
    them on the event path whatever the work volume."""

    REQS = poisson_arrivals(sharegpt_workload(40, seed=5), 4.0, seed=5)

    def engines(self, fidelity):
        model, cluster = get_model("15b"), make_cluster("A10", 8)
        opts = dict(router="jsq", coupled=True, fidelity=fidelity)
        cp, cd = parse_transition("D2P4->D2T4")
        return {
            "seesaw": SeesawEngine(model, cluster, cp, cd, SeesawOptions(**opts)),
            "decode-prio": DecodePrioritizedEngine(
                model, cluster, parse_config("D2T4"), EngineOptions(**opts)
            ),
            "vllm": VllmLikeEngine(
                model, cluster, parse_config("D2T4"), EngineOptions(**opts)
            ),
        }

    @pytest.mark.parametrize("kind", ["seesaw", "decode-prio"])
    def test_fluid_refuses_uncalibrated_engines(self, kind):
        with pytest.raises(ConfigurationError, match="fluid fidelity models only"):
            self.engines("fluid")[kind].run(self.REQS)

    @pytest.mark.parametrize("kind", ["seesaw", "decode-prio", "vllm"])
    def test_auto_above_threshold(self, kind, monkeypatch):
        monkeypatch.setattr(fluid_mod, "AUTO_FLUID_WORK_ITEMS", 1)
        auto = self.engines("auto")[kind].run(self.REQS)
        # vllm-like still switches to fluid; every other engine falls
        # back to the event path, so Seesaw still re-shards.
        expected = "fluid" if kind == "vllm" else "event"
        same = self.engines(expected)[kind].run(self.REQS)
        assert auto == same
        if kind == "seesaw":
            assert auto.transitions > 0


class TestBenchHarness:
    def test_cells_registry(self):
        assert set(CELLS) == {
            "offline_static",
            "coupled_jsq",
            "autoscaled_diurnal",
            "fluid_million",
            "sweep_parallel",
        }

    def test_sweep_parallel_cell_asserts_bit_exactness(self):
        record = run_cell("sweep_parallel", scale=0.05, jobs=2)
        assert record["cell"] == "sweep_parallel"
        assert record["work_kind"] == "cells"
        assert record["work_items"] == 8
        assert record["jobs"] == 2
        assert record["serial_wall_s"] > 0 and record["wall_s"] > 0
        assert record["speedup"] > 0
        assert record["child_peak_rss_mb"] > 0  # workers reported their RSS

    def test_scaled_cell_runs(self):
        record = run_cell("coupled_jsq", scale=0.02)
        assert record["cell"] == "coupled_jsq"
        assert record["work_kind"] == "iterations"
        assert record["work_items"] > 0
        assert record["wall_s"] > 0
        assert record["peak_rss_mb"] > 0

    def test_check_normalizes_by_spin(self):
        baseline = {"wall_s": 1.0, "calib_s": 0.1}
        # Same machine speed, 20% slower run: inside the 25% budget.
        ok, _ = check_measurement({"wall_s": 1.2}, baseline, calib_s=0.1)
        assert ok
        # Same machine speed, 30% slower run: regression.
        ok, _ = check_measurement({"wall_s": 1.3}, baseline, calib_s=0.1)
        assert not ok
        # Machine half as fast (spin doubled): the budget doubles too.
        ok, _ = check_measurement({"wall_s": 2.4}, baseline, calib_s=0.2)
        assert ok
