"""Regenerate the paper's tables from the simulation.

Each function returns a :class:`repro.core.result.ResultTable` whose rows
and columns mirror the publication, so ``render()`` prints a table a
reader can hold next to the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..core.fom import FOM_SPECS
from ..core.registry import global_registry
from ..core.result import BenchmarkResult, CellStatus, Quantity, ResultTable
from ..core.runner import RunPlan
from ..dtypes import Precision
from ..errors import (
    AllocationError,
    BuildError,
    NotMeasuredError,
    ReproError,
    TransientKernelError,
)
from ..hw.systems import get_system

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.context import ExecutionContext
from ..micro.fft import Fft
from ..micro.gemm import Gemm
from ..micro.p2p import P2PBandwidth
from ..micro.pcie import PcieBandwidth
from ..micro.peak_flops import PeakFlops
from ..micro.triad import Triad
from ..miniapps import CloverLeaf, MiniBude, MiniQmc, Rimp2
from ..apps import Hacc, OpenMc
from ..sim.engine import PerfEngine
from .paper_values import TABLE_IV

__all__ = ["table_i", "table_ii", "table_iii", "table_iv", "table_v", "table_vi"]

_PLAN = RunPlan(repetitions=5, warmup=1)


def _engine_for(sys_name: str, ctx: "ExecutionContext | None") -> PerfEngine:
    if ctx is not None:
        return ctx.engine(sys_name)
    return PerfEngine(get_system(sys_name))


def _measure_cell(
    table: ResultTable,
    row: str,
    col: str,
    ctx: "ExecutionContext | None",
    fn: Callable[[], BenchmarkResult],
) -> None:
    """Fill one cell, isolating fault-injection failures to that cell.

    Without an active fault context this is exactly ``table.set(fn())``,
    so clean runs keep their fail-fast behaviour.  Under injection a
    benchmark that cannot produce a number becomes a FAILED cell instead
    of aborting the whole table.
    """
    if ctx is None or not ctx.active:
        table.set(row, col, fn())
        return
    try:
        result = fn()
    except ReproError as exc:
        table.set_failed(row, col, f"{type(exc).__name__}: {exc}")
        ctx.record(CellStatus.FAILED)
        return
    table.set(row, col, result)
    prov = result.provenance
    ctx.record(prov.status if prov is not None else CellStatus.OK)


def table_i() -> str:
    """Table I: the microbenchmark summary (rendered text)."""
    import repro.micro  # noqa: F401 - ensure registration

    lines = ["Summary of microbenchmarks (Table I)", "-" * 72]
    for name in global_registry().names("micro"):
        info = global_registry().get(name)
        lines.append(
            f"{info.name:12s} {info.programming_model:18s} {info.description}"
        )
    return "\n".join(lines)


_TABLE_II_ROWS = [
    ("Double Precision Peak Flops", lambda: PeakFlops(Precision.FP64)),
    ("Single Precision Peak Flops", lambda: PeakFlops(Precision.FP32)),
    ("Memory Bandwidth (triad)", Triad),
    (
        "PCIe Unidirectional Bandwidth (H2D)",
        lambda: PcieBandwidth("h2d"),
    ),
    (
        "PCIe Unidirectional Bandwidth (D2H)",
        lambda: PcieBandwidth("d2h"),
    ),
    (
        "PCIe Bidirectional Bandwidth",
        lambda: PcieBandwidth("bidir"),
    ),
    ("DGEMM", lambda: Gemm(Precision.FP64)),
    ("SGEMM", lambda: Gemm(Precision.FP32)),
    ("HGEMM", lambda: Gemm(Precision.FP16)),
    ("BF16GEMM", lambda: Gemm(Precision.BF16)),
    ("TF32GEMM", lambda: Gemm(Precision.TF32)),
    ("I8GEMM", lambda: Gemm(Precision.I8)),
    ("Single-precision FFT C2C 1D", lambda: Fft(1)),
    ("Single-precision FFT C2C 2D", lambda: Fft(2)),
]


def table_ii(
    systems: tuple[str, ...] = ("aurora", "dawn"),
    ctx: "ExecutionContext | None" = None,
) -> ResultTable:
    """Table II: microbenchmark results at one Stack / one PVC / full node."""
    table = ResultTable("Table II")
    for sys_name in systems:
        engine = _engine_for(sys_name, ctx)
        scopes = [
            ("One Stack", 1),
            ("One PVC", engine.node.card.n_devices),
            (engine.system.full_node_scope_name(), engine.node.n_stacks),
        ]
        for row_name, factory in _TABLE_II_ROWS:
            bench = factory()
            for scope_name, n in scopes:
                col = f"{engine.system.display_name} / {scope_name}"
                _measure_cell(
                    table,
                    row_name,
                    col,
                    ctx,
                    lambda bench=bench, n=n: bench.measure(engine, n, _PLAN),
                )
    return table


def table_iii(
    systems: tuple[str, ...] = ("aurora", "dawn"),
    ctx: "ExecutionContext | None" = None,
) -> ResultTable:
    """Table III: stack-to-stack point-to-point bandwidths."""
    table = ResultTable("Table III")
    rows = [
        ("Local Stack Unidirectional Bandwidth", "local", False),
        ("Local Stack Bidirectional Bandwidth", "local", True),
        ("Remote Stack Unidirectional Bandwidth", "remote", False),
        ("Remote Stack Bidirectional Bandwidth", "remote", True),
    ]
    for sys_name in systems:
        engine = _engine_for(sys_name, ctx)
        n_pairs = engine.node.n_cards
        for row_name, pair_class, bidir in rows:
            bench = P2PBandwidth(pair_class, bidirectional=bidir)
            one_col = f"{engine.system.display_name} / One Stack-Pair"
            all_col = f"{engine.system.display_name} / All Stack-Pairs"
            # Dawn's remote rows are '-' in the paper (not measured).
            if pair_class == "remote" and sys_name == "dawn":
                table.set(row_name, one_col, None)
                table.set(row_name, all_col, None)
                continue
            _measure_cell(
                table, row_name, one_col, ctx,
                lambda bench=bench: bench.measure(engine, 1, _PLAN),
            )
            _measure_cell(
                table, row_name, all_col, ctx,
                lambda bench=bench: bench.measure(engine, 2 * n_pairs, _PLAN),
            )
    return table


def table_iv() -> ResultTable:
    """Table IV: reference characteristics of H100 / MI250 / MI250x GCD."""
    table = ResultTable("Table IV")
    rows = [
        ("FP32 peak", "fp32_peak", "Flop/s"),
        ("FP64 peak", "fp64_peak", "Flop/s"),
        ("SGEMM", "sgemm", "Flop/s"),
        ("DGEMM", "dgemm", "Flop/s"),
        ("Memory BW", "mem_bw", "B/s"),
        ("PCIe BW", "pcie_bw", "B/s"),
        ("GCD to GCD", "gcd_to_gcd", "B/s"),
    ]
    cols = [("H100", "h100"), ("MI250", "mi250"), ("1x GCD MI250x", "mi250x_gcd")]
    for row_name, key, unit in rows:
        for col_name, sys_key in cols:
            value = TABLE_IV[sys_key][key]
            table.set(
                row_name,
                col_name,
                None if value is None else Quantity(value, unit),
            )
    return table


def table_v() -> str:
    """Table V: mini-app and application descriptions (rendered text)."""
    lines = ["Mini-App and Application Descriptions (Table V)", "-" * 72]
    for spec in FOM_SPECS.values():
        lines.append(spec.describe())
    return "\n".join(lines)


_TABLE_VI_APPS = [
    ("miniBUDE", MiniBude),
    ("CloverLeaf", CloverLeaf),
    ("miniQMC", MiniQmc),
    ("mini-GAMESS", Rimp2),
    ("OpenMC", OpenMc),
    ("HACC", Hacc),
]


def table_vi(
    systems: tuple[str, ...] = ("aurora", "dawn", "jlse-h100", "jlse-mi250"),
    ctx: "ExecutionContext | None" = None,
) -> ResultTable:
    """Table VI: mini-app and application FOMs across all four systems.

    Cells the paper leaves blank (no measurement, MI250 build failure,
    non-MPI apps beyond one device) appear as '-' here too, except OpenMC
    on Dawn where the engine *predicts* a value the paper does not report
    — that cell carries the prediction (flagged in EXPERIMENTS.md).
    """
    table = ResultTable("Table VI")
    for sys_name in systems:
        engine = _engine_for(sys_name, ctx)
        injector = engine.faults
        is_pvc = engine.device.arch == "pvc"
        scopes: list[tuple[str, int]] = []
        if is_pvc:
            scopes = [("One Stack", 1), ("One GPU", 2)]
        else:
            scopes = [("One GCD" if engine.device.arch == "mi250" else "One GPU", 1)]
        scopes.append((engine.system.full_node_scope_name(), engine.node.n_stacks))
        for app_name, cls in _TABLE_VI_APPS:
            app = cls()
            for scope_name, n in scopes:
                col = f"{engine.system.display_name} / {scope_name}"
                if injector is not None:
                    # Apps don't go through a Runner, so the table driver
                    # advances the fault clock once per cell.
                    injector.tick()
                try:
                    try:
                        fom = app.fom(engine, n)
                    except (TransientKernelError, AllocationError):
                        if ctx is None or not ctx.active:
                            raise
                        # Transient faults clear on retry (the stream
                        # counter has advanced past the event).
                        fom = app.fom(engine, n)
                except (NotMeasuredError, BuildError):
                    table.set(app_name, col, None)
                    continue
                except ReproError as exc:
                    if ctx is None or not ctx.active:
                        raise
                    table.set_failed(
                        app_name, col, f"{type(exc).__name__}: {exc}"
                    )
                    ctx.record(CellStatus.FAILED)
                    continue
                # The paper measures miniBUDE on a single device only, and
                # OpenMC/HACC on full nodes only.
                if app_name == "miniBUDE" and n != 1:
                    table.set(app_name, col, None)
                    continue
                incidents = injector.drain() if injector is not None else []
                if incidents:
                    table.set(
                        app_name,
                        col,
                        Quantity(fom, app.fom_spec.unit),
                        status=CellStatus.DEGRADED,
                        note="; ".join(incidents),
                    )
                    if ctx is not None:
                        ctx.record(CellStatus.DEGRADED)
                else:
                    table.set(app_name, col, Quantity(fom, app.fom_spec.unit))
    return table
