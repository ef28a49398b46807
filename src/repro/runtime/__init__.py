"""Programming-model substrates: Level-Zero, SYCL, OpenMP, MPI, toolchain."""

__all__: list[str] = []
