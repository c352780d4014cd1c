"""Benchmark of record for cesium_ray (see README.md)."""
