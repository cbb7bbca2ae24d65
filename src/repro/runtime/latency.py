"""Per-request latency records and aggregate serving statistics.

Offline throughput (the paper's headline metric) collapses a run into one
number; online serving is judged by the latency each request observed.
This module holds the two records that carry that information out of the
engines:

- :class:`RequestLatency` — the timestamps of one request's life cycle
  (arrival, first schedule, first token, finish) and the standard derived
  metrics: queue delay, TTFT (time-to-first-token), TPOT (time-per-output-
  token) and E2E latency.
- :class:`LatencyStats` — the same stamps for a whole run, held as numpy
  columns, with the aggregate views reports need (mean/p50/p90/p99 per
  metric, SLO attainment) and a merge operation for data-parallel runs.
  Per-request :class:`RequestLatency` objects are built from the columns
  only when a consumer asks for :attr:`LatencyStats.records`.

Engines populate timestamps on :class:`~repro.runtime.request.Sequence`
as they schedule, and convert finished sequences into columns via
:meth:`LatencyStats.from_sequences`; the fluid tier hands its stamp
arrays over directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence as TypingSequence

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import SimulationError
from repro.utils.stats import Summary, summarize

# Each life-cycle comparison tolerates the admission epsilon: engines
# admit arrivals within 1e-12 of the clock, so a stamp can precede the
# arrival by that much without the life cycle being wrong.
_LIFECYCLE_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class RequestLatency:
    """Life-cycle timestamps and derived latencies of one served request.

    All times are on the engine's virtual clock, in seconds. ``finish_time``
    is when the last output token was produced; ``first_token_time`` is when
    the prefill pass that produced the first output token completed.
    """

    request_id: int
    arrival_time: float
    first_schedule_time: float
    first_token_time: float
    finish_time: float
    output_len: int
    num_preemptions: int = 0

    def __post_init__(self) -> None:
        stamps = (
            self.arrival_time,
            self.first_schedule_time,
            self.first_token_time,
            self.finish_time,
        )
        if any(math.isnan(t) for t in stamps):
            raise SimulationError(
                f"request {self.request_id}: latency record has unset timestamps"
            )
        eps = _LIFECYCLE_EPS
        if not (
            self.arrival_time <= self.first_schedule_time + eps
            and self.first_schedule_time <= self.first_token_time + eps
            and self.first_token_time <= self.finish_time + eps
        ):
            raise SimulationError(
                f"request {self.request_id}: non-monotone life cycle "
                f"({self.arrival_time} -> {self.first_schedule_time} -> "
                f"{self.first_token_time} -> {self.finish_time})"
            )
        if self.output_len < 1:
            raise SimulationError(
                f"request {self.request_id}: output_len must be >= 1"
            )

    @classmethod
    def from_sequence(cls, seq: "object") -> "RequestLatency":
        """Build a record from a finished engine sequence (duck-typed to
        avoid a circular import with :mod:`repro.runtime.request`)."""
        return cls(
            request_id=seq.seq_id,
            arrival_time=seq.request.arrival_time,
            first_schedule_time=seq.first_schedule_time,
            first_token_time=seq.first_token_time,
            finish_time=seq.finish_time,
            output_len=seq.request.output_len,
            num_preemptions=seq.num_preemptions,
        )

    @property
    def queue_delay(self) -> float:
        """Arrival to first being scheduled (pure queueing). Clamped at 0
        to absorb the admission epsilon."""
        return max(0.0, self.first_schedule_time - self.arrival_time)

    @property
    def ttft(self) -> float:
        """Arrival to first output token (queueing + prefill)."""
        return max(0.0, self.first_token_time - self.arrival_time)

    @property
    def e2e(self) -> float:
        """Arrival to last output token."""
        return max(0.0, self.finish_time - self.arrival_time)

    @property
    def has_decode_phase(self) -> bool:
        """Whether any token was produced by decode (not just prefill)."""
        return self.output_len > 1

    @property
    def tpot(self) -> float | None:
        """Mean inter-token time over the decode phase. A request whose
        only token came from prefill has no decode phase, so its TPOT is
        undefined (``None``) — not 0, which would trivially satisfy any
        TPOT SLO and inflate attainment."""
        if not self.has_decode_phase:
            return None
        return max(
            0.0, (self.finish_time - self.first_token_time) / (self.output_len - 1)
        )


# Column names and dtypes of LatencyStats, in RequestLatency field order.
_FIELDS = (
    "request_id",
    "arrival_time",
    "first_schedule_time",
    "first_token_time",
    "finish_time",
    "output_len",
    "num_preemptions",
)
_DTYPES = (
    np.int64, np.float64, np.float64, np.float64, np.float64, np.int64, np.int64,
)
_record_fields = attrgetter(*_FIELDS)
# Rows converted to Python values at a time while building records: the
# per-column lists stay small instead of growing with the run.
_BUILD_CHUNK = 4096


def _clamped(delta: np.ndarray) -> np.ndarray:
    """Elementwise ``max(0.0, d)``; ``np.maximum(0.0, d)`` keeps ``-0.0``."""
    return np.where(delta > 0.0, delta, 0.0)


def _build_records(columns: tuple[np.ndarray, ...]) -> tuple[RequestLatency, ...]:
    """RequestLatency objects for already-validated columns.

    Skips ``__init__`` (and its per-record validation): each record is
    allocated with ``object.__new__`` and filled through the slot
    descriptors, which a frozen dataclass's ``__setattr__`` cannot block.
    """
    new = object.__new__
    slots = vars(RequestLatency)
    s_id, s_arr, s_sched, s_first, s_fin, s_out, s_pre = (
        slots[name].__set__ for name in _FIELDS
    )
    records = []
    for lo in range(0, len(columns[0]), _BUILD_CHUNK):
        chunk = (c[lo : lo + _BUILD_CHUNK].tolist() for c in columns)
        for rid, arr, sched, first, fin, out, pre in zip(*chunk, strict=True):
            r = new(RequestLatency)
            s_id(r, rid)
            s_arr(r, arr)
            s_sched(r, sched)
            s_first(r, first)
            s_fin(r, fin)
            s_out(r, out)
            s_pre(r, pre)
            records.append(r)
    return tuple(records)


def _validate(columns: tuple[np.ndarray, ...], raw: TypingSequence) -> None:
    """RequestLatency's checks over whole columns. NaN stamps fail the
    monotone comparisons too; the first offender is rebuilt as a record
    from its ``raw`` values, so it raises with the record's own message."""
    _, arrival, sched, first, finish, output_len, _ = columns
    eps = _LIFECYCLE_EPS
    ok = (
        (arrival <= sched + eps)
        & (sched <= first + eps)
        & (first <= finish + eps)
        & (output_len >= 1)
    )
    if ok.all():
        return
    i = int(ok.argmin())
    RequestLatency(*(c[i] for c in raw))
    raise SimulationError(f"request {raw[0][i]}: invalid latency record")


class LatencyStats:
    """Aggregate latency view over a set of request records.

    Holding the raw per-request stamps (rather than pre-reduced summaries)
    keeps the data-parallel merge exact: percentiles over the union of
    replicas are computed from the union, not approximated from
    per-replica summaries.

    The stamps are stored as read-only columns, one entry per record and
    named like the :class:`RequestLatency` fields: int64 ``request_id``,
    ``output_len`` and ``num_preemptions``, float64 ``arrival_time``,
    ``first_schedule_time``, ``first_token_time`` and ``finish_time``.
    Build it from records (``LatencyStats(records)``) or from the columns
    as keyword arguments (arrays are taken over, not copied;
    ``num_preemptions`` defaults to zeros). Either way the columns are
    validated in one vectorized pass with :class:`RequestLatency`'s rules,
    and an invalid entry raises that record's own error.

    Every aggregate is computed on the columns and is bit-identical to
    the per-record properties. :attr:`records` materializes the
    :class:`RequestLatency` objects on first use and caches them;
    equality, hashing and pickling use the columns only.
    """

    __slots__ = (*_FIELDS, "_records")

    def __init__(
        self,
        records: Iterable[RequestLatency] | None = None,
        *,
        request_id: ArrayLike | None = None,
        arrival_time: ArrayLike | None = None,
        first_schedule_time: ArrayLike | None = None,
        first_token_time: ArrayLike | None = None,
        finish_time: ArrayLike | None = None,
        output_len: ArrayLike | None = None,
        num_preemptions: ArrayLike | None = None,
    ) -> None:
        given = (
            request_id, arrival_time, first_schedule_time, first_token_time,
            finish_time, output_len,
        )
        if records is not None:
            if any(c is not None for c in (*given, num_preemptions)):
                raise TypeError("pass LatencyStats records or columns, not both")
            records = tuple(records)
            if not records:
                raise SimulationError("LatencyStats needs at least one record")
            raw = tuple(zip(*map(_record_fields, records), strict=True))
        elif any(c is None for c in given):
            raise TypeError("LatencyStats needs records or every stamp column")
        else:
            if num_preemptions is None:
                num_preemptions = np.zeros(len(request_id), dtype=np.int64)
            raw = (*given, num_preemptions)
        columns = tuple(
            np.asarray(c, dtype=t) for c, t in zip(raw, _DTYPES, strict=True)
        )
        n = columns[0].size
        if n == 0:
            raise SimulationError("LatencyStats needs at least one record")
        if any(c.shape != (n,) for c in columns):
            raise SimulationError("latency columns must be 1-D and of equal length")
        _validate(columns, raw)
        self._set_columns(columns)
        self._records = records

    def _set_columns(self, columns: tuple[np.ndarray, ...]) -> None:
        for name, column in zip(_FIELDS, columns, strict=True):
            column.flags.writeable = False
            setattr(self, name, column)

    @property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """The seven columns, in :class:`RequestLatency` field order."""
        return tuple(getattr(self, name) for name in _FIELDS)

    @property
    def records(self) -> tuple[RequestLatency, ...]:
        """The per-request records, built on first access and cached."""
        if self._records is None:
            self._records = _build_records(self._columns)
        return self._records

    @property
    def num_requests(self) -> int:
        return len(self.request_id)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = zip(self._columns, other._columns, strict=True)
        return all(np.array_equal(a, b) for a, b in pairs)

    def __hash__(self) -> int:
        # Ids only: equal stats have equal ids, and -0.0 == 0.0 stamps
        # would hash apart by bytes.
        return hash(self.request_id.tobytes())

    def __getstate__(self) -> tuple[np.ndarray, ...]:
        return self._columns

    def __setstate__(self, columns: tuple[np.ndarray, ...]) -> None:
        self._set_columns(columns)
        self._records = None

    def __repr__(self) -> str:
        return f"LatencyStats(num_requests={self.num_requests})"

    # ------------------------------------------------------------------ #
    # Per-metric summaries (mean / p50 / p90 / p99 via utils.stats)
    # ------------------------------------------------------------------ #

    def _tpot_values(self) -> np.ndarray:
        """TPOT of each record with a decode phase, in record order."""
        decode = self.output_len > 1
        return _clamped(
            (self.finish_time[decode] - self.first_token_time[decode])
            / (self.output_len[decode] - 1)
        )

    @property
    def ttft(self) -> Summary:
        return summarize(_clamped(self.first_token_time - self.arrival_time))

    @property
    def tpot(self) -> Summary:
        """Summary over records that have a decode phase (single-token
        requests have no TPOT and would drag every percentile toward 0).
        All-prefill runs yield an empty (all-zero, count=0) summary."""
        values = self._tpot_values()
        if not values.size:
            return Summary(
                count=0, mean=0.0, std=0.0, minimum=0.0,
                p50=0.0, p90=0.0, p99=0.0, maximum=0.0,
            )
        return summarize(values)

    @property
    def e2e(self) -> Summary:
        return summarize(_clamped(self.finish_time - self.arrival_time))

    @property
    def queue_delay(self) -> Summary:
        return summarize(_clamped(self.first_schedule_time - self.arrival_time))

    @property
    def total_preemptions(self) -> int:
        return int(self.num_preemptions.sum())

    # ------------------------------------------------------------------ #

    def slo_attainment(
        self,
        ttft_slo: float | None = None,
        tpot_slo: float | None = None,
        e2e_slo: float | None = None,
    ) -> float:
        """Fraction of requests meeting every given SLO (in [0, 1]).

        ``None`` bounds are not enforced; with no bounds at all, attainment
        is trivially 1.0. The TPOT bound only applies to records with a
        decode phase: a single-token request has no TPOT, so it is judged
        on the remaining bounds — and excluded from the population entirely
        when the TPOT bound is the only one given (rather than counted as
        trivially meeting it). An all-excluded population is vacuously 1.0.
        """
        for name, slo in (("ttft", ttft_slo), ("tpot", tpot_slo), ("e2e", e2e_slo)):
            if slo is not None and slo <= 0:
                raise SimulationError(f"{name} SLO must be positive")
        missed = np.zeros(self.num_requests, dtype=bool)
        if ttft_slo is not None:
            missed |= _clamped(self.first_token_time - self.arrival_time) > ttft_slo
        decode = self.output_len > 1
        if tpot_slo is not None:
            missed[decode] |= self._tpot_values() > tpot_slo
        if e2e_slo is not None:
            missed |= _clamped(self.finish_time - self.arrival_time) > e2e_slo
        if ttft_slo is None and e2e_slo is None and tpot_slo is not None:
            missed = missed[decode]  # no applicable bound for the rest
        judged = len(missed)
        if judged == 0:
            return 1.0
        return (judged - int(np.count_nonzero(missed))) / judged

    @classmethod
    def from_sequences(cls, seqs: Iterable[object]) -> "LatencyStats":
        """Stats of finished engine sequences (duck-typed, like
        :meth:`RequestLatency.from_sequence`)."""
        seqs = tuple(seqs)
        return cls(
            request_id=[s.seq_id for s in seqs],
            arrival_time=[s.request.arrival_time for s in seqs],
            first_schedule_time=[s.first_schedule_time for s in seqs],
            first_token_time=[s.first_token_time for s in seqs],
            finish_time=[s.finish_time for s in seqs],
            output_len=[s.request.output_len for s in seqs],
            num_preemptions=[s.num_preemptions for s in seqs],
        )

    @classmethod
    def merged(cls, parts: TypingSequence["LatencyStats"]) -> "LatencyStats":
        """Exact union of several replicas' records (DP merge), sorted by
        request id (stable, so equal ids keep their part order).

        Replicas own disjoint request partitions — including elastic
        fleets, where a request re-dispatched away from a draining or
        storming replica must finish on exactly one survivor — so a
        request id appearing twice means some replica double-counted a
        request it no longer owned; that is rejected rather than silently
        skewing every percentile.
        """
        if not parts:
            raise SimulationError("no latency stats to merge")
        columns = [
            np.concatenate(c) for c in zip(*(p._columns for p in parts), strict=True)
        ]
        order = np.argsort(columns[0], kind="stable")
        columns = [c[order] for c in columns]
        ids = columns[0]
        dup = np.flatnonzero(ids[1:] == ids[:-1])
        if dup.size:
            raise SimulationError(
                f"request {int(ids[dup[0] + 1])} finished on two replicas "
                "(duplicate record in DP latency merge)"
            )
        return cls(**dict(zip(_FIELDS, columns, strict=True)))

    def describe(self) -> str:
        t, p, e, q = self.ttft, self.tpot, self.e2e, self.queue_delay
        return (
            f"ttft p50={t.p50:.3f}s p99={t.p99:.3f}s | "
            f"tpot p50={p.p50 * 1e3:.1f}ms p99={p.p99 * 1e3:.1f}ms | "
            f"e2e p50={e.p50:.3f}s p99={e.p99:.3f}s | "
            f"queue mean={q.mean:.3f}s"
        )

