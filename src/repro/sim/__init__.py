"""Performance simulator: kernels, calibration, roofline, transfers, engine."""

__all__: list[str] = []
