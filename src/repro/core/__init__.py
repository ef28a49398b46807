"""Benchmark framework: units, measurement protocol, results, registry.

This package is hardware-agnostic; the hardware models live in
:mod:`repro.hw` and the performance engine in :mod:`repro.sim`.
"""

__all__: list[str] = []
