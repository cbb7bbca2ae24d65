"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 simbench/run.py --workload offline-seesaw --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (untraced); ``--trace 1``
runs the separate traced passes and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs every workload in turn in one process; its JSON prefixes
each metric with the workload's name, and each ``peak_rss_mb`` is the
process's high-water mark so far. The simulator is imported from ``src/`` beside
this directory; without it the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("offline-seesaw", "online-fleet", "tune-sweep", "fluid-day")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="simbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from simbench.clock import Stopwatch

    clock = Stopwatch()
    try:
        from simbench import cells
    except ImportError as exc:
        print(f"simbench: cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = clock.stop()
    from simbench import harness

    workdir = ROOT / ".simbench"
    workdir.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        workload = cells.WORKLOADS[name]
        if args.trace:
            report = harness.trace(
                workload, args.seed, args.seconds, workdir,
                spans_out=workdir / f"spans-{name}-seed{args.seed}.npz",
            )
        else:
            report = harness.measure(workload, args.seed, args.seconds, workdir, import_s)
        print("\n".join(report.lines), flush=True)
        reports.append(report)
    if len(reports) == 1:
        result = reports[0].result()
    else:
        result = {
            "correct": all(r.correct for r in reports),
            "attempted": sum(r.attempted for r in reports),
            "failed": sum(r.failed for r in reports),
            "metrics": {
                f"{r.workload}.{k}": v for r in reports for k, v in r.result()["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
