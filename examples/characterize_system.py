#!/usr/bin/env python3
"""Characterize any of the four systems the way Section IV does.

Walks one system through the whole microbenchmark suite at every scope,
prints a Table II-style column, the memory-latency staircase (Figure 1),
and a roofline classification of representative kernels.

Run:  python examples/characterize_system.py [aurora|dawn|h100|mi250]
"""

import sys

from repro import PerfEngine, Precision, get_system
from repro.core.runner import RunPlan
from repro.micro import (
    Fft,
    Gemm,
    Lats,
    PcieBandwidth,
    PeakFlops,
    Triad,
    latency_curve,
)
from repro.sim.kernel import gemm_kernel, pointer_chase_kernel, triad_kernel

def characterize(name: str) -> None:
    system = get_system(name)
    engine = PerfEngine(system)
    plan = RunPlan(repetitions=5, warmup=1)
    scopes = [1]
    if system.node.card.n_devices == 2:
        scopes.append(2)
    scopes.append(system.n_stacks)

    print(system.node.describe())
    print("=" * 72)

    benches = [
        ("FP64 peak flops", PeakFlops(Precision.FP64)),
        ("FP32 peak flops", PeakFlops(Precision.FP32)),
        ("stream triad", Triad()),
        ("PCIe H2D", PcieBandwidth("h2d")),
        ("PCIe bidir", PcieBandwidth("bidir")),
        ("DGEMM", Gemm(Precision.FP64)),
        ("SGEMM", Gemm(Precision.FP32)),
        ("FFT C2C 1D", Fft(1)),
    ]
    header = "".join(f"{f'{n} dev':>16s}" for n in scopes)
    print(f"{'benchmark':20s}{header}")
    for label, bench in benches:
        cells = []
        for n in scopes:
            try:
                cells.append(f"{str(bench.measure(engine, n, plan).quantity):>16s}")
            except Exception:
                cells.append(f"{'-':>16s}")
        print(f"{label:20s}" + "".join(cells))

    print()
    print("memory latency staircase (pointer chase, cycles):")
    sizes, lats = latency_curve(engine)
    for pick in (0, len(sizes) // 3, 2 * len(sizes) // 3, len(sizes) - 1):
        size = int(sizes[pick])
        level = engine.device.memory.level_for(size).name
        print(f"  {size / 1024:12.0f} KiB -> {lats[pick]:7.1f} cycles  [{level}]")

    print()
    print("roofline classification:")
    for spec in (
        gemm_kernel(Precision.FP64, 4096),
        triad_kernel(),
        pointer_chase_kernel(1 << 30, n_chases=1_000_000),
    ):
        point = engine.roofline(spec)
        print(
            f"  {spec.name:22s} AI={spec.arithmetic_intensity:8.2f} flop/B"
            f"  -> {point.bound}-bound, {point.total_s * 1e3:8.3f} ms"
        )

def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "aurora"
    characterize(name)

if __name__ == "__main__":
    main()
