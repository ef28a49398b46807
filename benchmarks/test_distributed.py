"""Benches for the distributed (simulated-MPI) functional drivers."""

import numpy as np
import pytest

from repro.apps.openmc import TransportProblem, smr_materials
from repro.apps.openmc import run_distributed as openmc_distributed
from repro.miniapps.cloverleaf import run_distributed as clover_distributed
from repro.miniapps.rimp2 import make_input, rimp2_energy_distributed
from repro.runtime.mpi import SimMPI


class TestDistributedDrivers:
    def test_clover_4_ranks(self, benchmark, aurora):
        state, vtime = benchmark(
            lambda: clover_distributed(aurora, n=32, steps=4, n_ranks=4)
        )
        benchmark.extra_info["virtual_comm_time"] = f"{vtime * 1e6:.1f} us"
        assert np.all(np.isfinite(state.u))

    def test_rimp2_12_ranks(self, benchmark, aurora):
        inp = make_input(n_aux=12, n_occ=6, n_virt=8, seed=5)

        def run():
            return SimMPI(aurora, 12).run(
                lambda comm: rimp2_energy_distributed(comm, inp)
            )[0]

        energy = benchmark(run)
        assert energy < 0

    def test_openmc_4_ranks(self, benchmark, aurora):
        problem = TransportProblem(smr_materials(), nmesh=2)

        def run():
            return SimMPI(aurora, 4).run(
                lambda comm: openmc_distributed(comm, problem, 200, seed=2)
            )[0]

        result = benchmark(run)
        assert result.histories == 800

    def test_allreduce_scaling_12_ranks(self, benchmark, aurora):
        def allreduce(comm):
            out = yield from comm.Allreduce(np.full(1024, comm.rank + 1.0))
            return float(out[0])

        def run():
            return SimMPI(aurora).run(allreduce)

        results = benchmark(run)
        assert results[0] == pytest.approx(sum(range(1, 13)))
