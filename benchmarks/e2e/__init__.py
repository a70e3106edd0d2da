"""End-to-end benchmark: one request from query text to answer rows.

Run with ``python -m benchmarks.e2e``; see ``README.md`` beside this
file for the workloads, the metrics and how to read the output.
"""
