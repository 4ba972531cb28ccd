"""Benchmark of the fault-tolerant multimedia server simulator."""
