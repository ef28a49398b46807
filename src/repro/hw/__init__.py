"""Hardware models: PVC architecture, reference GPUs, CPUs, nodes, fabric."""

__all__: list[str] = []
