#!/usr/bin/env python3
"""Compressible hydrodynamics with the CloverLeaf solver (Section V-A.2).

Solves the Sod shock tube with the real 2D finite-volume Euler solver,
prints the density profile (shock, contact, rarefaction), verifies
conservation, then runs the same problem strip-decomposed over four
simulated MPI ranks with halo exchange and reports the communication time
the fabric model charges.

Run:  python examples/shock_tube.py
"""

import numpy as np

from repro import PerfEngine, get_system
from repro.miniapps import CloverLeaf, EulerSolver2D, exchange_halos, sod_state
from repro.runtime.mpi import SimMPI

def ascii_profile(rho: np.ndarray, width: int = 64, height: int = 12) -> str:
    xs = np.linspace(0, len(rho) - 1, width).astype(int)
    vals = rho[xs]
    lo, hi = float(vals.min()), float(vals.max())
    rows = []
    for level in range(height, 0, -1):
        threshold = lo + (hi - lo) * (level - 0.5) / height
        rows.append("".join("#" if v >= threshold else " " for v in vals))
    rows.append("-" * width)
    return "\n".join(rows)

def main() -> None:
    n, steps = 128, 60
    solver = EulerSolver2D(sod_state(n), boundary="reflective")
    before = solver.state.totals()
    solver.run(steps)
    after = solver.state.totals()

    rho = solver.state.density[0]
    print(f"Sod shock tube, {n}x{n} cells, {steps} steps, t = {solver.time:.3f}")
    print(ascii_profile(rho))
    print(f"density range: {rho.min():.3f} .. {rho.max():.3f}")
    print(f"mass conservation error:   {abs(after[0] - before[0]) / before[0]:.2e}")
    print(f"energy conservation error: {abs(after[3] - before[3]) / before[3]:.2e}")

    # --- distributed run over the simulated fabric ----------------------
    engine = PerfEngine(get_system("aurora"))
    n_ranks = 4
    width = n // n_ranks

    def prog(comm):
        local = sod_state(n).u[:, :, comm.rank * width : (comm.rank + 1) * width]
        local = np.ascontiguousarray(local)
        left = (comm.rank - 1) % comm.size
        right = (comm.rank + 1) % comm.size
        for _ in range(10):
            yield from exchange_halos(comm, local, left, right)
            comm.advance(0.001)  # local compute per step
        return comm.now

    times = SimMPI(engine, n_ranks).run(prog)
    print()
    print(f"strip-decomposed over {n_ranks} Aurora stacks:")
    print(f"  simulated time/rank incl. halo exchange: {max(times) * 1e3:.2f} ms")

    # --- paper-scale FOM ----------------------------------------------
    app = CloverLeaf()
    print()
    print("paper-scale FOM (15360^2 cells/rank, weak scaled):")
    for name in ("aurora", "dawn", "jlse-h100", "jlse-mi250"):
        e = PerfEngine(get_system(name))
        print(
            f"  {e.system.display_name:14s} one device: {app.fom(e, 1):6.1f}"
            f"  full node: {app.fom(e, e.node.n_stacks):6.1f} Mcells/s"
        )

if __name__ == "__main__":
    main()
