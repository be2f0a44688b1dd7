"""Benchmark of surfield: workloads, independent checks and tracing."""
