"""Rendered-output pins for every multi-run caller of the cell executor.

Each caller (the five experiment sweeps, the Fig. 11 head-to-head,
``compare``, ``sweep`` and ``check goldens``) simulates its cells through
:class:`~repro.exec.CellExecutor`. The digests below are
``sha256(stdout)[:16]`` of small invocations, recorded from the serial
loops these callers used before the executor became their only path. They
must hold inline (``--jobs 1``, the default) and pooled (``--jobs 2``).
"""

from __future__ import annotations

import hashlib

import pytest

from repro import experiments as ex
from repro.cli import main
from repro.exec import CellExecutor

SWEEP_PINS = {
    "latency": (
        lambda executor: ex.render_latency_sweep(
            ex.run_latency_sweep(num_requests=12, rates=(0.05, 0.2), executor=executor)
        ),
        "6a4487c25b098a2b",
    ),
    "routing": (
        lambda executor: ex.render_routing_sweep(
            ex.run_routing_sweep(num_requests=24, executor=executor)
        ),
        "49794161a41dd9a2",
    ),
    "coupled": (
        lambda executor: ex.render_coupled_sweep(
            ex.run_coupled_sweep(
                policies=("slo",), load_fractions=(1.1,), num_requests=40,
                executor=executor,
            )
        ),
        "e40d1b0dc5413ba8",
    ),
    "slo": (
        lambda executor: ex.render_slo_sweep(
            ex.run_slo_sweep(
                num_requests=24, load_fractions=(0.3, 0.6), executor=executor
            )
        ),
        "6cf72b19e5bfe500",
    ),
    "autoscale": (
        lambda executor: ex.render_autoscale_sweep(
            ex.run_autoscale_sweep(num_requests=160, executor=executor)
        ),
        "2e6b30d7dca95b3e",
    ),
    "fig11": (
        lambda executor: ex.render_fig11(
            ex.run_fig11(
                num_arxiv=8, num_sharegpt=16, simulate_top=2, executor=executor
            )
        ),
        "7dd8f6c1dc53a8d0",
    ),
}

COUPLED_JSQ = [
    "--model", "15b", "--num-gpus", "4", "--dataset", "const:512x64",
    "--num-requests", "12", "--request-rate", "1.0", "--router", "jsq",
    "--coupled",
]

CLI_PINS = {
    "compare-slo": (
        [
            "compare", "--model", "15b", "--num-gpus", "4",
            "--dataset", "const:512x64", "--num-requests", "12",
            "--request-rate", "1.0", "--objective", "slo",
            "--ttft-slo", "30", "--tpot-slo", "0.5", "--router", "slo",
        ],
        "117c9d61fc0a2826",
    ),
    "compare-jsq": (["compare", *COUPLED_JSQ], "9b871f77e00aa9e6"),
    "sweep": (
        [
            "sweep", "--model", "34b", "--num-gpus", "4",
            "--dataset", "const:256x32", "--num-requests", "24",
        ],
        "ce2210df8a436ad7",
    ),
    "sweep-jsq": (["sweep", *COUPLED_JSQ], "0de9b08131b454ac"),
    "goldens": (["check", "goldens"], "cccfddabf7c52354"),
}


def _digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def _cli(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_library_callers_match_pins(name, jobs):
    render, pin = SWEEP_PINS[name]
    # jobs=1 passes no executor: the caller's default inline one.
    executor = CellExecutor(jobs=jobs) if jobs > 1 else None
    assert _digest(render(executor) + "\n") == pin


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_callers_match_pins(name, jobs, capsys):
    argv, pin = CLI_PINS[name]
    assert _digest(_cli(capsys, [*argv, "--jobs", jobs])) == pin


def test_reproduce_fig11_honours_jobs(capsys):
    """``reproduce fig11`` hands its executor to the head-to-head runs,
    and the pooled report is byte-identical to the inline one."""
    inline = _cli(capsys, ["reproduce", "fig11", "--jobs", "1"])
    pooled = _cli(capsys, ["reproduce", "fig11", "--jobs", "2"])
    assert pooled == inline
    assert _digest(inline) == "319a1966b1e96371"


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_sanitized_runs_take_the_inline_executor(command, capsys):
    """A sanitizer observes the run without changing it: hooked cells run
    on the inline executor and render the unhooked report."""
    plain = _cli(capsys, [command, *COUPLED_JSQ])
    sanitized = _cli(capsys, [command, *COUPLED_JSQ, "--sanitize"])
    assert sanitized == plain
