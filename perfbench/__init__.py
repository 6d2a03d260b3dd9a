"""End-to-end trigger benchmark: commit-to-activation latency with per-layer attribution.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``perfbench/README.md`` documents the workloads,
the metrics and the layer map.
"""
