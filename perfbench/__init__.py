"""Benchmark for rsmcanon: seeded workloads, verification and a traced per-layer run."""
