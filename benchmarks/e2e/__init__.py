"""End-to-end + per-layer benchmark of the Helios reproduction.

``python -m benchmarks.e2e`` (from the repository root) runs the full set;
``benchmarks/e2e/run.py`` is the one-workload entry point named in
``BENCHMARK.json``.  See ``README.md`` in this directory.
"""
