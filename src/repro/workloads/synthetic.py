"""Synthetic workloads for controlled sweeps.

``ratio_workload`` reproduces the Fig. 13 setup: uniform input length
(3000 in the paper) with the output length chosen to hit a target D:P
ratio; ``constant_workload`` and ``uniform_workload`` are general-purpose
building blocks used throughout the tests.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.runtime.request import Request
from repro.utils.rng import make_rng
from repro.workloads.spec import WorkloadSpec


def constant_workload(
    num_requests: int,
    prompt_len: int,
    output_len: int,
    name: str | None = None,
) -> WorkloadSpec:
    """All requests identical — the paper's 'constant-length' workloads."""
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    reqs = tuple(
        Request(request_id=i, prompt_len=prompt_len, output_len=output_len)
        for i in range(num_requests)
    )
    return WorkloadSpec(
        name=name or f"const(p={prompt_len},d={output_len})", requests=reqs
    )


def uniform_workload(
    num_requests: int,
    prompt_range: tuple[int, int],
    output_range: tuple[int, int],
    seed: int | None = None,
    name: str | None = None,
) -> WorkloadSpec:
    """Independent uniform prompt/output lengths."""
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    lo_p, hi_p = prompt_range
    lo_o, hi_o = output_range
    if lo_p < 1 or lo_p > hi_p or lo_o < 1 or lo_o > hi_o:
        raise ConfigurationError("invalid length ranges")
    rng = make_rng(seed)
    prompts = rng.integers(lo_p, hi_p + 1, size=num_requests).tolist()
    outputs = rng.integers(lo_o, hi_o + 1, size=num_requests).tolist()
    reqs = tuple(
        Request(request_id=i, prompt_len=p, output_len=o)
        for i, (p, o) in enumerate(zip(prompts, outputs, strict=True))
    )
    return WorkloadSpec(name=name or "uniform", requests=reqs)


def bimodal_workload(
    num_requests: int,
    long_prompt: int = 6144,
    short_prompt: int = 256,
    output_len: int = 16,
    period: int = 2,
    name: str | None = None,
) -> WorkloadSpec:
    """Long prompts every ``period``-th request, short ones otherwise.

    The adversarial shape for static round-robin DP partitioning: with the
    default ``period=2`` every long prompt has the same submission-index
    parity, so a 2-replica round-robin deal sends *all* of them to one
    replica while the other idles — the load-imbalance failure mode the
    routing subsystem's dynamic policies exist to fix.
    """
    if num_requests < 1:
        raise ConfigurationError("num_requests must be >= 1")
    if period < 1:
        raise ConfigurationError("period must be >= 1")
    if long_prompt < 1 or short_prompt < 1 or output_len < 1:
        raise ConfigurationError("lengths must be >= 1")
    reqs = tuple(
        Request(
            request_id=i,
            prompt_len=long_prompt if i % period == 0 else short_prompt,
            output_len=output_len,
        )
        for i in range(num_requests)
    )
    return WorkloadSpec(
        name=name or f"bimodal(p={long_prompt}|{short_prompt},d={output_len})",
        requests=reqs,
    )


def ratio_workload(
    num_requests: int,
    dp_ratio: float,
    prompt_len: int = 3000,
    name: str | None = None,
) -> WorkloadSpec:
    """Fixed prompt length, output length = ratio * prompt (Fig. 13).

    The paper fixes input at 3000 tokens and sweeps the output length; a
    ratio of 0 degenerates to prefill-only (output_len 1, the first token
    produced by the prefill pass).
    """
    if dp_ratio < 0:
        raise ConfigurationError("dp_ratio must be >= 0")
    output_len = max(1, int(round(dp_ratio * prompt_len)))
    return constant_workload(
        num_requests,
        prompt_len,
        output_len,
        name=name or f"ratio(D:P={dp_ratio:g})",
    )


def poisson_arrival_workload(
    base: WorkloadSpec,
    rate_rps: float,
    seed: int | None = None,
) -> WorkloadSpec:
    """Attach Poisson arrival times to an existing workload.

    Kept as an alias of :func:`repro.workloads.arrivals.poisson_arrivals`
    for callers that predate the arrivals module.
    """
    from repro.workloads.arrivals import poisson_arrivals

    return poisson_arrivals(base, rate_rps, seed=seed)
