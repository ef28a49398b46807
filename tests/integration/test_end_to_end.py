"""End-to-end scenarios crossing every layer of the stack."""

import numpy as np
import pytest

from repro.dtypes import Precision
from repro.hw.ids import StackRef
from repro.hw.systems import get_system
from repro.miniapps.cloverleaf import EulerSolver2D, exchange_halos, sod_state
from repro.runtime.mpi import SimMPI
from repro.runtime.sycl import SyclRuntime
from repro.sim.engine import PerfEngine
from repro.sim.noise import QUIET


class TestDistributedCloverLeaf:
    """A real weak-scaled hydro run over the simulated MPI fabric."""

    def test_strip_decomposition_matches_serial(self, aurora):
        n, steps = 32, 6
        serial = EulerSolver2D(sod_state(n), boundary="periodic")
        serial_dts = [serial.step() for _ in range(steps)]
        reference = serial.state.u

        n_ranks = 4
        width = n // n_ranks

        def prog(comm):
            # Strip decomposition along x, periodic ring of neighbours.
            lo = comm.rank * width
            local = sod_state(n).u[:, :, lo : lo + width].copy()
            left = (comm.rank - 1) % comm.size
            right = (comm.rank + 1) % comm.size
            for dt in serial_dts:
                halo_l, halo_r = yield from exchange_halos(comm, local, left, right)
                padded = np.concatenate(
                    [halo_l[:, :, None], local, halo_r[:, :, None]], axis=2
                )
                # One global step on the padded strip via a scratch solver
                # (periodic pad already applied; use the serial kernels).
                from repro.miniapps.cloverleaf import EulerState, _hll_flux

                # x half step
                def sweep_x(u, dt):
                    f = _hll_flux(u[:, :, :-1], u[:, :, 1:])
                    return dt * (f[:, :, 1:] - f[:, :, :-1])

                local = local - sweep_x(padded, 0.5 * dt)
                # y full step (local in y; periodic pad in y)
                swapped = local[[0, 2, 1, 3]]
                u_y = np.concatenate(
                    [swapped[:, -1:, :], swapped, swapped[:, :1, :]], axis=1
                )
                f = _hll_flux(u_y[:, :-1, :], u_y[:, 1:, :])
                local = local - (dt * (f[:, 1:, :] - f[:, :-1, :]))[[0, 2, 1, 3]]
                # second x half step with fresh halos
                halo_l, halo_r = yield from exchange_halos(comm, local, left, right)
                padded = np.concatenate(
                    [halo_l[:, :, None], local, halo_r[:, :, None]], axis=2
                )
                local = local - sweep_x(padded, 0.5 * dt)
            return local

        strips = SimMPI(aurora, n_ranks).run(prog)
        distributed = np.concatenate(strips, axis=2)
        assert np.allclose(distributed, reference, atol=1e-10)


class TestSyclPipeline:
    def test_offload_roundtrip_with_compute(self, aurora):
        """H2D -> kernel -> D2H through the SYCL layer, checking both the
        data and the simulated timeline."""
        rt = SyclRuntime(aurora, affinity_mask="2.1")
        q = rt.queue()
        q.set_repetition(1)
        n = 1 << 16
        host_in = q.malloc_host(8 * n)
        host_out = q.malloc_host(8 * n)
        dev_a = q.malloc_device(8 * n)
        host_in.view(np.float64)[:] = np.arange(n)
        e1 = q.memcpy(dev_a, host_in)

        from repro.sim.kernel import triad_kernel

        def body():
            x = dev_a.view(np.float64)
            x *= 2.0

        e2 = q.submit(triad_kernel(8 * n), body)
        e3 = q.memcpy(host_out, dev_a)
        assert np.allclose(host_out.view(np.float64), 2.0 * np.arange(n))
        assert e1.end_ns <= e2.start_ns <= e3.start_ns

    def test_affinity_restricts_devices(self, aurora):
        rt = SyclRuntime(aurora, affinity_mask="0.0,5.1")
        refs = [d.ref for d in rt.devices()]
        assert refs == [StackRef(0, 0), StackRef(5, 1)]


class TestCrossSystemStory:
    """The paper's overall narrative must hold end to end."""

    def test_pvc_single_device_fom_range_vs_h100(self, engines):
        # "the figure-of-merit of the mini-apps on a single PVC ranges
        # from 0.6-1.8X the performance of an H100" (abstract).
        from repro.miniapps import CloverLeaf, MiniBude, MiniQmc, Rimp2

        h100 = engines["jlse-h100"]
        ratios = []
        for system in ("aurora", "dawn"):
            pvc = engines[system]
            for app in (MiniBude(), CloverLeaf(), MiniQmc(), Rimp2()):
                ratios.append(app.fom(pvc, 2) / app.fom(h100, 1))
        assert 0.55 <= min(ratios) <= 0.65
        assert 1.70 <= max(ratios) <= 1.85

    def test_pvc_stack_fom_range_vs_mi250_gcd(self, engines):
        # "... and 0.8-7.5X of a MI250" (abstract; per stack vs GCD,
        # excluding the unbuildable mini-GAMESS).
        from repro.errors import BuildError
        from repro.miniapps import CloverLeaf, MiniBude, MiniQmc, Rimp2

        mi250 = engines["jlse-mi250"]
        ratios = []
        for system in ("aurora", "dawn"):
            pvc = engines[system]
            for app in (MiniBude(), CloverLeaf(), MiniQmc(), Rimp2()):
                try:
                    ratios.append(app.fom(pvc, 1) / app.fom(mi250, 1))
                except BuildError:
                    continue
        assert 0.75 <= min(ratios) <= 0.9
        assert 7.0 <= max(ratios) <= 8.0

    def test_openmc_aurora_1p7x_h100_node(self, engines):
        # Section VI-B.1: "the Aurora 6x PVC node design offering 1.7x the
        # performance of the JLSE 4x H100 node design".
        from repro.apps import OpenMc

        app = OpenMc()
        ratio = app.fom(engines["aurora"]) / app.fom(engines["jlse-h100"])
        assert ratio == pytest.approx(1.7, abs=0.05)

    def test_fresh_engine_matches_session_engine(self):
        fresh = PerfEngine(get_system("aurora"), noise=QUIET)
        assert fresh.fma_rate(Precision.FP64, 1) == pytest.approx(17e12, rel=0.02)
