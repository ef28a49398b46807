"""Functional legs run once per benchmark instance, not per repetition.

A leg that reads only constructor fields and a fixed seed returns the
same answer on every repetition, so :meth:`MicroBenchmark.measure` runs
it before an instance's first timed repetition and never again.  A
failing leg is not remembered, and a fresh instance always re-runs it.
Legs whose content changes per repetition (the ``lats`` chase) stay
inside the repetition loop.
"""

from importlib import import_module

import numpy as np
import pytest

from repro.analysis.tables import _PLAN, _TABLE_II_ROWS, table_ii
from repro.core.runner import RunPlan
from repro.dtypes import Precision
from repro.faults.context import ExecutionContext
from repro.micro import Fft, Gemm, Lats, PeakFlops, Triad

# ``repro.micro`` re-exports a function named ``fft``, which shadows the
# submodule on attribute access; import the modules by name instead.
fft_mod = import_module("repro.micro.fft")
gemm_mod = import_module("repro.micro.gemm")
lats_mod = import_module("repro.micro.lats")


@pytest.fixture()
def legs(monkeypatch):
    """Per-entry-point call counts for the GEMM and FFT functional legs."""
    counts = {"blocked_gemm": 0, "fft": 0, "fft2": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(gemm_mod, "blocked_gemm")
    counting(fft_mod, "fft")
    counting(fft_mod, "fft2")
    return counts


def _one_check_per_row(counts) -> dict:
    """The counts one direct check of every Table II row produces."""
    for key in counts:
        counts[key] = 0
    for _, factory in _TABLE_II_ROWS:
        factory()._functional_check()
    return dict(counts)


class TestTableTwoLegs:
    def test_each_row_checks_once(self, legs):
        table_ii(systems=("aurora",))
        measured = dict(legs)
        # Six GEMM rows, three scopes and six repetitions each: the
        # per-repetition protocol would have made 108 calls.
        assert measured["blocked_gemm"] == 6
        assert measured == _one_check_per_row(legs)

    def test_separate_contexts_each_run_the_legs(self, legs):
        # Nothing outlives a table's instances: the service builds a
        # context per request, and each measured request must run them.
        for _ in range(2):
            table_ii(systems=("aurora",), ctx=ExecutionContext())
        assert legs["blocked_gemm"] == 12
        assert legs["fft2"] == 2


class TestOncePerInstance:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: Gemm(Precision.FP32),
            lambda: Gemm(Precision.I8),
            lambda: Fft(2),
            lambda: Triad(),
            lambda: PeakFlops(Precision.FP64),
        ],
        ids=["gemm", "gemm-i8", "fft2", "triad", "peak_flops"],
    )
    def test_check_runs_before_the_first_measure_only(
        self, factory, aurora, monkeypatch
    ):
        bench = factory()
        calls = []
        real = bench._functional_check
        monkeypatch.setattr(
            bench, "_functional_check", lambda: calls.append(real())
        )
        for n in (1, 2, aurora.node.n_stacks):
            bench.measure(aurora, n, _PLAN)
        assert len(calls) == 1

    def test_fresh_instances_check_again(self, legs, aurora):
        for _ in range(3):
            Gemm(Precision.FP64).measure(aurora, 1, _PLAN)
        assert legs["blocked_gemm"] == 3


class TestFailingCheck:
    def test_failure_is_never_remembered(self, aurora, monkeypatch):
        real = gemm_mod.blocked_gemm
        monkeypatch.setattr(
            gemm_mod,
            "blocked_gemm",
            lambda a, b, block=64, out=None: np.ones((a.shape[0], b.shape[1])),
        )
        bench = Gemm(Precision.FP64)
        for _ in range(3):
            with pytest.raises(AssertionError, match="numerics diverged"):
                bench.measure(aurora, 1, _PLAN)
        # Once the kernel is mended the same instance checks again and
        # measures.
        monkeypatch.setattr(gemm_mod, "blocked_gemm", real)
        assert bench.measure(aurora, 1, _PLAN).best.rate > 0


class TestPerRepetitionLegs:
    def test_lats_builds_one_chain_per_repetition(self, aurora, monkeypatch):
        seeds = []
        real = lats_mod.build_chain

        def spy(n, seed=0, **kwargs):
            seeds.append(seed)
            return real(n, seed=seed, **kwargs)

        monkeypatch.setattr(lats_mod, "build_chain", spy)
        plan = RunPlan(repetitions=5, warmup=1)
        bench = Lats()
        bench.measure(aurora, 1, plan)
        bench.measure(aurora, 1, plan)
        assert seeds == list(range(6)) * 2
