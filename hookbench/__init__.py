"""Benchmark of the hooktrees verification pipeline; see README.md."""
