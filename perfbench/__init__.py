"""Benchmark for the Colloid tiered-memory simulator (see README.md)."""
