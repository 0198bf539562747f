"""Perf ledger: host-time benchmark of the simulator and its query service.

Run ``python -m benchmarks.ledger --help`` (or ``python3
benchmarks/ledger/__main__.py``); ``README.md`` beside this file describes
the workloads, the metrics and how to compare two commits.
"""
