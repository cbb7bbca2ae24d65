"""Host-time benchmark of the simulator, driven through its public API.

``python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one of the four workloads in :mod:`simbench.cells` and prints, as
its last line, one JSON object with the end-to-end metrics (``--trace
0``) or the per-layer metrics of a traced run (``--trace 1``). What the
simulator computes — TTFT/TPOT, simulated throughput, transitions — is
its output: the benchmark verifies and digests it (:mod:`simbench.check`)
but never treats it as a metric. ``BENCHMARK.json`` at the repository
root lists the metrics; ``simbench/spec.json`` holds the seeds, the
layer-to-metric map with its predictions, and the recorded baselines.
"""
