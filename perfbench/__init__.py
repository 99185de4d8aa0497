"""End-to-end and per-layer host-time benchmark of the simulator.

Run ``python3 perfbench/run.py --workload table1`` from the repository
root; ``perfbench/README.md`` describes the workloads and metrics.
"""
