"""The benchmark's host clock, and the calibration that steadies it.

Simulation code may not read the wall clock (simlint R1, ruff TID251);
this benchmark exists to measure host time, so it reads it here and
nowhere else.

On a small shared VM the same code runs up to twice as fast or as slow
from one minute to the next as other tenants come and go, so raw
seconds from two runs are not comparable. Every timed region is
therefore bracketed by a short fixed loop of plain Python (no ``repro``
code), and its wall is also reported *calibrated*: rescaled by
:data:`CALIBRATION_REF_S` over the mean time of the loops just before
and just after it. A calibrated second is the time the region would
take on a machine where the loop takes its reference time. Changes to
``repro`` move the region, never the loop.
"""

import time

__all__ = ["CALIBRATION_REF_S", "Stopwatch", "calibration_loop", "now"]

now = time.perf_counter  # noqa: TID251

# The loop's time on an idle 2-vCPU Xeon VM at 2.1 GHz (Python 3.11).
CALIBRATION_REF_S = 0.030


def calibration_loop() -> float:
    """Seconds this machine takes right now for a fixed interpreter and
    allocator workload (integer arithmetic plus dict and tuple churn)."""
    t0 = now()
    acc = 0
    table = {}
    for i in range(120_000):
        acc += i ^ (i >> 3)
        table[i & 1023] = (i, acc)
    return now() - t0


class Stopwatch:
    """Times consecutive regions, each bracketed by calibration loops."""

    def __init__(self) -> None:
        self._loop_s = calibration_loop()
        self._t0 = now()

    def start(self) -> None:
        self._t0 = now()

    def stop(self) -> tuple[float, float]:
        """``(wall, calibrated wall)`` of the region since :meth:`start`."""
        wall = now() - self._t0
        before, self._loop_s = self._loop_s, calibration_loop()
        return wall, wall * CALIBRATION_REF_S / ((before + self._loop_s) / 2)
