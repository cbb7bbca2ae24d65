"""Per-request latency records and aggregate statistics."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.breakdown import Breakdown
from repro.errors import SimulationError
from repro.runtime.latency import LatencyStats, RequestLatency
from repro.runtime.metrics import EngineResult
from repro.runtime.request import Request, Sequence
from repro.utils.stats import Summary, summarize


def rec(
    rid=0,
    arrival=0.0,
    sched=1.0,
    first=2.0,
    finish=6.0,
    out=5,
    preempts=0,
) -> RequestLatency:
    return RequestLatency(
        request_id=rid,
        arrival_time=arrival,
        first_schedule_time=sched,
        first_token_time=first,
        finish_time=finish,
        output_len=out,
        num_preemptions=preempts,
    )


class TestRequestLatency:
    def test_derived_metrics_hand_computed(self):
        r = rec(arrival=1.0, sched=1.5, first=3.0, finish=7.0, out=5)
        assert r.queue_delay == pytest.approx(0.5)
        assert r.ttft == pytest.approx(2.0)
        assert r.e2e == pytest.approx(6.0)
        # 4 decode tokens over 4 seconds.
        assert r.tpot == pytest.approx(1.0)

    def test_single_token_request_has_undefined_tpot(self):
        """Regression: TPOT used to be 0.0 for output_len <= 1, so
        single-token requests trivially satisfied any TPOT SLO."""
        r = rec(first=2.0, finish=2.0, out=1)
        assert r.tpot is None
        assert not r.has_decode_phase
        assert r.ttft == pytest.approx(2.0)

    def test_rejects_unset_timestamps(self):
        with pytest.raises(SimulationError):
            rec(finish=float("nan"))

    def test_rejects_non_monotone_lifecycle(self):
        with pytest.raises(SimulationError):
            rec(arrival=5.0, sched=1.0)

    def test_from_sequence(self):
        seq = Sequence(Request(request_id=7, prompt_len=10, output_len=3, arrival_time=2.0))
        seq.mark_scheduled(3.0)
        seq.mark_first_token(4.0)
        seq.mark_finished(6.0)
        r = RequestLatency.from_sequence(seq)
        assert r.request_id == 7
        assert r.queue_delay == pytest.approx(1.0)
        assert r.ttft == pytest.approx(2.0)
        assert r.tpot == pytest.approx(1.0)

    def test_sticky_marks_survive_preemption(self):
        seq = Sequence(Request(request_id=0, prompt_len=10, output_len=4, arrival_time=0.0))
        seq.mark_scheduled(1.0)
        seq.mark_first_token(2.0)
        seq.preempt_recompute()
        seq.num_preemptions += 1
        seq.mark_scheduled(9.0)  # re-admission must not move the stamp
        seq.mark_first_token(10.0)
        seq.mark_finished(12.0)
        r = RequestLatency.from_sequence(seq)
        assert r.first_schedule_time == pytest.approx(1.0)
        assert r.first_token_time == pytest.approx(2.0)
        assert r.num_preemptions == 1

    def test_finish_backfills_first_token(self):
        seq = Sequence(Request(request_id=0, prompt_len=10, output_len=1))
        seq.mark_scheduled(0.5)
        seq.mark_finished(1.5)
        assert seq.first_token_time == pytest.approx(1.5)


class TestLatencyStats:
    def stats(self) -> LatencyStats:
        # TTFTs 1, 2, 3; TPOTs 0.25, 0.5, 0.75 (4 decode tokens each).
        return LatencyStats(
            records=tuple(
                rec(rid=i, sched=float(i + 1), first=float(i + 1), finish=float(i + 1) + (i + 1), out=5)
                for i in range(3)
            )
        )

    def test_percentiles_hand_computed(self):
        s = self.stats()
        assert s.num_requests == 3
        assert s.ttft.p50 == pytest.approx(2.0)
        assert s.ttft.mean == pytest.approx(2.0)
        assert s.ttft.p99 == pytest.approx(2.98)
        assert s.tpot.p50 == pytest.approx(0.5)
        assert s.e2e.p50 == pytest.approx(4.0)
        assert s.queue_delay.mean == pytest.approx(2.0)

    def test_slo_attainment(self):
        s = self.stats()
        assert s.slo_attainment() == 1.0
        assert s.slo_attainment(ttft_slo=2.5) == pytest.approx(2 / 3)
        assert s.slo_attainment(ttft_slo=2.5, tpot_slo=0.3) == pytest.approx(1 / 3)
        assert s.slo_attainment(e2e_slo=0.1) == 0.0
        with pytest.raises(SimulationError):
            s.slo_attainment(ttft_slo=-1.0)

    def test_single_token_requests_do_not_inflate_tpot_attainment(self):
        """Regression: a no-decode-phase record must not count as meeting
        a TPOT SLO it was never subject to."""
        s = LatencyStats(
            records=(
                rec(rid=0, first=2.0, finish=2.0, out=1),  # no decode phase
                rec(rid=1, first=2.0, finish=6.0, out=5),  # tpot = 1.0
            )
        )
        # Only a TPOT bound: the single-token record is excluded from the
        # population entirely (old behaviour scored this 1/2).
        assert s.slo_attainment(tpot_slo=0.5) == 0.0
        assert s.slo_attainment(tpot_slo=2.0) == 1.0
        # Combined bounds: the single-token record is judged on TTFT only.
        assert s.slo_attainment(ttft_slo=3.0, tpot_slo=0.5) == pytest.approx(0.5)
        assert s.slo_attainment(ttft_slo=1.0, tpot_slo=2.0) == 0.0

    def test_all_single_token_population_is_vacuous(self):
        s = LatencyStats(records=(rec(rid=0, first=2.0, finish=2.0, out=1),))
        assert s.slo_attainment(tpot_slo=0.001) == 1.0  # vacuously met
        assert s.tpot.count == 0
        assert s.tpot.p99 == 0.0

    def test_tpot_summary_skips_undefined_records(self):
        s = LatencyStats(
            records=(
                rec(rid=0, first=2.0, finish=2.0, out=1),
                rec(rid=1, first=2.0, finish=6.0, out=5),
            )
        )
        assert s.tpot.count == 1
        assert s.tpot.p50 == pytest.approx(1.0)  # not dragged toward 0

    def test_merge_is_exact_union(self):
        a = LatencyStats(records=(rec(rid=0, first=1.0, finish=5.0),))
        b = LatencyStats(records=(rec(rid=1, first=9.0, finish=13.0),))
        m = LatencyStats.merged([a, b])
        assert m.num_requests == 2
        # Percentiles over the union, not an average of summaries.
        assert m.ttft.p50 == pytest.approx(5.0)
        with pytest.raises(SimulationError):
            LatencyStats.merged([])

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            LatencyStats(records=())

    def test_describe_mentions_metrics(self):
        out = self.stats().describe()
        assert "ttft" in out and "tpot" in out and "e2e" in out


class TestColumns:
    def test_columns_are_read_only(self):
        s = LatencyStats(records=(rec(rid=0), rec(rid=1)))
        with pytest.raises(ValueError):
            s.arrival_time[0] = 1.0

    def test_records_or_columns_not_both(self):
        with pytest.raises(TypeError):
            LatencyStats(records=(rec(),), request_id=[0])
        with pytest.raises(TypeError):
            LatencyStats(request_id=[0], arrival_time=[0.0])

    def test_unequal_columns_rejected(self):
        with pytest.raises(SimulationError):
            LatencyStats(
                request_id=[0, 1], arrival_time=[0.0], first_schedule_time=[0.0],
                first_token_time=[0.0], finish_time=[0.0], output_len=[1],
            )


# --------------------------------------------------------------------- #
# Differential test: columnar LatencyStats == the tuple-of-records class
# --------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class RecordStats:
    """The tuple-of-records ``LatencyStats`` the columnar class replaced,
    kept verbatim as the oracle."""

    records: tuple[RequestLatency, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise SimulationError("LatencyStats needs at least one record")

    @property
    def ttft(self) -> Summary:
        return summarize([r.ttft for r in self.records])

    @property
    def tpot(self) -> Summary:
        values = [r.tpot for r in self.records if r.tpot is not None]
        if not values:
            return Summary(
                count=0, mean=0.0, std=0.0, minimum=0.0,
                p50=0.0, p90=0.0, p99=0.0, maximum=0.0,
            )
        return summarize(values)

    @property
    def e2e(self) -> Summary:
        return summarize([r.e2e for r in self.records])

    @property
    def queue_delay(self) -> Summary:
        return summarize([r.queue_delay for r in self.records])

    @property
    def total_preemptions(self) -> int:
        return sum(r.num_preemptions for r in self.records)

    def slo_attainment(self, ttft_slo=None, tpot_slo=None, e2e_slo=None) -> float:
        for name, slo in (("ttft", ttft_slo), ("tpot", tpot_slo), ("e2e", e2e_slo)):
            if slo is not None and slo <= 0:
                raise SimulationError(f"{name} SLO must be positive")
        met = 0
        judged = 0
        for r in self.records:
            tpot_applies = tpot_slo is not None and r.tpot is not None
            if ttft_slo is None and e2e_slo is None and tpot_slo is not None:
                if not tpot_applies:
                    continue
            judged += 1
            if ttft_slo is not None and r.ttft > ttft_slo:
                continue
            if tpot_applies and r.tpot > tpot_slo:
                continue
            if e2e_slo is not None and r.e2e > e2e_slo:
                continue
            met += 1
        if judged == 0:
            return 1.0
        return met / judged

    @classmethod
    def merged(cls, parts):
        if not parts:
            raise SimulationError("no latency stats to merge")
        records = []
        for p in parts:
            records.extend(p.records)
        records.sort(key=lambda r: r.request_id)
        seen = set()
        for r in records:
            if r.request_id in seen:
                raise SimulationError(
                    f"request {r.request_id} finished on two replicas "
                    "(duplicate record in DP latency merge)"
                )
            seen.add(r.request_id)
        return cls(records=tuple(records))


@dataclasses.dataclass(frozen=True)
class UncheckedRequest(Request):
    """A Request that skips validation, so a sequence can carry an
    invalid ``output_len`` into its latency record."""

    def __post_init__(self) -> None:
        pass


# Steps between consecutive stamps. Zero steps and -0.0 stamps exercise
# the clamp (``max(0.0, -0.0)`` is 0.0); -5e-10 is inside the admission
# epsilon, -2e-9 outside it, and NaN is an unset stamp.
VALID_STEPS = st.floats(min_value=0.0, max_value=50.0) | st.sampled_from(
    [0.0, -0.0, -5e-10]
)
INVALID_STEPS = VALID_STEPS | st.sampled_from([-2e-9, -1.0, math.nan])


@st.composite
def latency_rows(draw, steps=VALID_STEPS, output_lens=st.integers(1, 6), max_size=25):
    """RequestLatency field tuples; ids repeat so merges can collide."""
    rows = []
    for _ in range(draw(st.integers(1, max_size))):
        t = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e4))
        stamps = [t]
        for _ in range(3):
            t = t + draw(steps)
            if t == 0.0:
                t = draw(st.sampled_from([0.0, -0.0]))
            stamps.append(t)
        rows.append((
            draw(st.integers(0, 30)),
            *stamps,
            draw(output_lens | st.just(1)),
            draw(st.integers(0, 3)),
        ))
    return rows


def columns_of(rows) -> dict[str, np.ndarray]:
    names = [f.name for f in dataclasses.fields(RequestLatency)]
    return {
        name: np.array(values, dtype=np.float64 if "time" in name else np.int64)
        for name, values in zip(names, zip(*rows))
    }


def oracle_of(rows) -> RecordStats:
    return RecordStats(records=tuple(RequestLatency(*row) for row in rows))


def hexed(summary: Summary) -> tuple:
    return tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(summary)
    )


def outcome(build):
    """The built value, or the message of the SimulationError it raised."""
    try:
        return build()
    except SimulationError as exc:
        return f"error: {exc}"


def slo_bound(draw, values):
    """None, a random bound, a record's own value (the ``>`` boundary) or
    a non-positive bound (rejected)."""
    choice = draw(st.sampled_from(["none", "random", "own", "bad"]))
    if choice == "none":
        return None
    if choice == "random":
        return draw(st.floats(min_value=1e-6, max_value=200.0))
    if choice == "bad":
        return draw(st.sampled_from([0.0, -1.0]))
    own = [v for v in values if v is not None and v > 0]
    return draw(st.sampled_from(own)) if own else None


class TestColumnarMatchesRecordOracle:
    @settings(max_examples=150, deadline=None)
    @given(rows=latency_rows())
    def test_summaries_equality_and_pickling(self, rows):
        oracle = oracle_of(rows)
        stats = LatencyStats(**columns_of(rows))
        for metric in ("ttft", "tpot", "e2e", "queue_delay"):
            assert hexed(getattr(stats, metric)) == hexed(getattr(oracle, metric))
        assert stats.num_requests == len(oracle.records)
        assert stats.total_preemptions == oracle.total_preemptions
        assert stats.records == oracle.records
        assert stats.records is stats.records

        from_records = LatencyStats(records=oracle.records)
        assert from_records == stats and hash(from_records) == hash(stats)
        if len(rows) > 1:
            assert LatencyStats(**columns_of(rows[1:])) != stats

        # Pickling carries the columns only, never the cached records.
        fresh = LatencyStats(**columns_of(rows))
        blob = pickle.dumps(fresh)
        assert pickle.dumps(stats) == blob
        back = pickle.loads(blob)
        assert back == stats and back.records == oracle.records
        result = EngineResult(
            engine="vllm", label="T1", num_requests=len(rows), total_time=1.0,
            input_tokens=len(rows), output_tokens=len(rows), phase_time={},
            breakdown=Breakdown(), iterations=0, transitions=0, latency=stats,
        )
        assert pickle.loads(pickle.dumps(result)) == result
        for r in oracle.records:
            assert pickle.loads(pickle.dumps(r)) == r
            req = Request(r.request_id, 3, r.output_len, abs(r.arrival_time))
            assert pickle.loads(pickle.dumps(req)) == req

    @settings(max_examples=150, deadline=None)
    @given(rows=latency_rows(), data=st.data())
    def test_slo_attainment(self, rows, data):
        oracle = oracle_of(rows)
        stats = LatencyStats(**columns_of(rows))
        recs = oracle.records
        bounds = (
            slo_bound(data.draw, [r.ttft for r in recs]),
            slo_bound(data.draw, [r.tpot for r in recs]),
            slo_bound(data.draw, [r.e2e for r in recs]),
        )
        expected = outcome(lambda: oracle.slo_attainment(*bounds))
        got = outcome(lambda: stats.slo_attainment(*bounds))
        assert got == expected
        assert type(got) is type(expected)

    @settings(max_examples=150, deadline=None)
    @given(rows=latency_rows(max_size=12), data=st.data())
    def test_merged(self, rows, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
        bounds = [0, *cuts, len(rows)]
        chunks = [rows[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
        expected = outcome(lambda: RecordStats.merged([oracle_of(c) for c in chunks]))
        got = outcome(
            lambda: LatencyStats.merged([LatencyStats(**columns_of(c)) for c in chunks])
        )
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.records == expected.records
            assert got == LatencyStats(records=expected.records)

    @settings(max_examples=200, deadline=None)
    @given(rows=latency_rows(steps=INVALID_STEPS, output_lens=st.integers(-1, 4)))
    def test_validation_messages(self, rows):
        expected = outcome(lambda: oracle_of(rows).records)
        got = outcome(lambda: LatencyStats(**columns_of(rows)).records)
        assert got == expected

        # The event engines' path, from sequences with Python stamps.
        seqs = []
        for rid, arrival, sched, first, finish, out, pre in rows:
            seq = Sequence(UncheckedRequest(rid, 1, out, arrival))
            seq.first_schedule_time = sched
            seq.first_token_time = first
            seq.finish_time = finish
            seq.num_preemptions = pre
            seqs.append(seq)
        expected = outcome(
            lambda: tuple(RequestLatency.from_sequence(s) for s in seqs)
        )
        got = outcome(lambda: LatencyStats.from_sequences(seqs).records)
        assert got == expected
