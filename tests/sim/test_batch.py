"""The vectorized batch engine: parity, contracts, telemetry.

The batch path's single promise is that it is the scalar engine run
faster: every numeric column must equal what point-by-point
:meth:`PerfEngine.roofline` calls produce, bit for bit.  These tests
pin that promise on the paper's own kernels, plus the batch-specific
surfaces — struct-of-arrays validation, chunk slicing, and the
fault-engine rejection.
"""

import numpy as np
import pytest

from repro.dtypes import Precision
from repro.errors import KernelSpecError
from repro.hw.frequency import WorkloadKind
from repro.hw.systems import get_system
from repro.sim.batch import (
    BOUND_LABELS,
    BatchEngine,
    KernelBatch,
)
from repro.sim.engine import PerfEngine
from repro.sim.kernel import (
    fma_chain_kernel,
    gemm_kernel,
    pointer_chase_kernel,
    triad_kernel,
)
from repro.sim.noise import QUIET


def _engine(name="aurora", **kwargs) -> PerfEngine:
    return PerfEngine(get_system(name), noise=QUIET, **kwargs)


def _paper_specs():
    return [
        fma_chain_kernel(Precision.FP64),
        fma_chain_kernel(Precision.FP32),
        triad_kernel(),
        gemm_kernel(Precision.FP64),
        gemm_kernel(Precision.FP16),
        pointer_chase_kernel(64 * 1024, 10_000),
    ]


class TestKernelBatch:
    def test_from_specs_round_trips(self):
        specs = _paper_specs()
        batch = KernelBatch.from_specs(specs, n_stacks=2)
        assert len(batch) == len(specs)
        for i, spec in enumerate(specs):
            rebuilt = batch.spec(i, name=spec.name)
            assert rebuilt == spec

    def test_scalars_broadcast(self):
        batch = KernelBatch.from_arrays(
            flops=[1.0, 2.0, 3.0], precision=Precision.FP64
        )
        assert len(batch) == 3
        assert batch.precision_code.tolist() == [0, 0, 0]
        assert batch.n_stacks.tolist() == [1, 1, 1]

    def test_integer_code_arrays_accepted(self):
        codes = np.array([0, 1, 0], dtype=np.int64)
        batch = KernelBatch.from_arrays(flops=[1.0, 1.0, 1.0], precision=codes)
        assert batch.precision_code.tolist() == [0, 1, 0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(KernelSpecError):
            KernelBatch.from_arrays(flops=[1.0, 2.0], bytes_read=[1.0] * 3)

    def test_empty_point_rejected(self):
        with pytest.raises(KernelSpecError, match="empty kernel"):
            KernelBatch.from_arrays(flops=[1.0, 0.0])

    def test_negative_work_rejected(self):
        with pytest.raises(KernelSpecError, match="negative work"):
            KernelBatch.from_arrays(flops=[-1.0])

    def test_chase_needs_working_set(self):
        with pytest.raises(KernelSpecError, match="positive working set"):
            KernelBatch.from_arrays(serial_chases=[10], working_set_bytes=[0])

    def test_slicing_chunks(self):
        batch = KernelBatch.from_specs(_paper_specs())
        head, tail = batch[:2], batch[2:]
        assert len(head) == 2 and len(tail) == len(batch) - 2
        assert head.spec(0, name="p") == batch.spec(0, name="p")
        assert tail.spec(0, name="p") == batch.spec(2, name="p")
        with pytest.raises(TypeError):
            batch[0]


class TestParity:
    def test_paper_kernels_bit_for_bit(self):
        for name in ("aurora", "dawn", "jlse-h100"):
            engine = _engine(name)
            batch_engine = engine.batch()
            for n_stacks in (1, 2, engine.node.n_stacks):
                specs = _paper_specs()
                batch = KernelBatch.from_specs(specs, n_stacks=n_stacks)
                result = batch_engine.evaluate(batch)
                for i, spec in enumerate(specs):
                    assert result.point(i) == engine.roofline(spec, n_stacks)

    def test_mixed_stack_counts_in_one_batch(self):
        engine = _engine("aurora")
        spec = gemm_kernel(Precision.FP64)
        stacks = list(range(1, engine.node.n_stacks + 1))
        batch = KernelBatch.from_specs([spec] * len(stacks), n_stacks=stacks)
        result = engine.batch().evaluate(batch)
        for i, n in enumerate(stacks):
            assert result.point(i) == engine.roofline(spec, n)

    def test_bounds_match_scalar_labels(self):
        engine = _engine("aurora")
        specs = _paper_specs()
        batch = KernelBatch.from_specs(specs)
        result = engine.batch().evaluate(batch)
        bounds = result.bounds()
        for i, spec in enumerate(specs):
            assert bounds[i] == engine.roofline(spec, 1).bound
            assert bounds[i] in BOUND_LABELS

    def test_total_and_fom_columns(self):
        engine = _engine("dawn")
        specs = _paper_specs()
        batch = KernelBatch.from_specs(specs)
        result = engine.batch().evaluate(batch)
        fom = result.flops_per_s(batch.flops)
        for i, spec in enumerate(specs):
            point = engine.roofline(spec, 1)
            assert result.total_s[i] == point.total_s
            if spec.flops:
                assert fom[i] == spec.flops / point.total_s
            else:
                assert fom[i] == 0.0


class TestContracts:
    def test_fault_engine_rejected(self):
        from repro.faults import ExecutionContext

        ctx = ExecutionContext("device-loss", 0)
        engine = ctx.engine("aurora")
        with pytest.raises(ValueError, match="fault-free"):
            engine.batch()
        assert isinstance(_engine().batch(), BatchEngine)

    def test_stack_range_enforced(self):
        engine = _engine("aurora")
        batch = KernelBatch.from_arrays(flops=[1.0], n_stacks=[99])
        with pytest.raises(ValueError, match="1..12 stacks"):
            engine.batch().evaluate(batch)

    def test_rate_combos_resolved_once(self):
        engine = _engine("aurora")
        batch_engine = engine.batch()
        spec = gemm_kernel(Precision.FP64)
        batch = KernelBatch.from_specs([spec] * 1000, n_stacks=2)
        batch_engine.evaluate(batch)
        assert len(batch_engine._rate_cache) == 1
        batch_engine.evaluate(batch)
        assert len(batch_engine._rate_cache) == 1


class TestTelemetry:
    def test_batch_counters(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        engine = PerfEngine(
            get_system("aurora"), noise=QUIET, telemetry=telemetry
        )
        batch_engine = engine.batch()
        batch = KernelBatch.from_specs(_paper_specs())
        batch_engine.evaluate(batch)
        batch_engine.evaluate(batch)
        snapshot = telemetry.metrics.snapshot()

        def total(name: str) -> float:
            return sum(s["value"] for s in snapshot[name]["samples"])

        assert total("batch.evals") == 2.0
        assert total("batch.points") == 2.0 * len(batch)
