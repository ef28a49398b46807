"""Extras: the Top500 headline benchmarks (HPL/HPCG) on a node."""

__all__: list[str] = []
