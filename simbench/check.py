"""Output verification and the simulated-statistics digest.

Every simulation the benchmark times is checked here, outside the timed
region: a faster simulator that returns a wrong answer must not read as
a gain. The simulated statistics of a whole pass are folded into one
digest that must repeat exactly across the passes of a run; a change
that only makes the simulator faster leaves it unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.runtime.metrics import EngineResult
from repro.workloads.spec import WorkloadSpec


def verify(
    workload: WorkloadSpec, result: EngineResult, expect_transition: bool
) -> list[str]:
    """Problems with one simulation's output (empty when it is right).

    Checks that every request finished exactly once, that the input and
    output token totals equal the workload's, that no request's TTFT
    exceeds its end-to-end latency, and that a Seesaw run whose prefill
    and decode configurations differ re-sharded at least once.
    """
    problems = []
    n = workload.num_requests
    if result.num_requests != n:
        problems.append(f"{result.num_requests} of {n} requests finished")
    if result.input_tokens != workload.total_input_tokens:
        problems.append(
            f"input tokens {result.input_tokens} != workload's "
            f"{workload.total_input_tokens}"
        )
    if result.output_tokens != workload.total_output_tokens:
        problems.append(
            f"output tokens {result.output_tokens} != workload's "
            f"{workload.total_output_tokens}"
        )
    latency = result.latency
    if latency is None:
        problems.append("no per-request latency records")
    else:
        ids = sorted(r.request_id for r in latency.records)
        if ids != sorted(r.request_id for r in workload.requests):
            problems.append("latency records do not cover each request exactly once")
        late = sum(1 for r in latency.records if not r.ttft <= r.e2e)
        if late:
            problems.append(f"{late} requests have TTFT > E2E")
    if expect_transition and result.transitions < 1:
        problems.append("Seesaw run with distinct prefill/decode configs never re-sharded")
    return problems


def digest(results: list[EngineResult]) -> str:
    """Short hex digest of the simulated statistics of ``results``, in order."""
    h = hashlib.sha256()
    for r in results:
        h.update(
            repr(
                (
                    r.engine,
                    r.label,
                    r.num_requests,
                    r.total_time,
                    r.input_tokens,
                    r.output_tokens,
                    r.iterations,
                    r.transitions,
                    r.swapped_in_tokens,
                    r.swapped_out_tokens,
                    sorted(r.phase_time.items()),
                    r.breakdown,
                    r.router,
                )
            ).encode()
        )
        if r.latency is not None:
            stamps = [
                (rec.request_id, rec.first_schedule_time, rec.first_token_time,
                 rec.finish_time, rec.num_preemptions)
                for rec in r.latency.records
            ]
            h.update(np.asarray(stamps, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]
