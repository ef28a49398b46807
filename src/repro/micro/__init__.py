"""The seven microbenchmarks of the paper's Table I.

Importing this package registers every microbenchmark in the global
registry (:mod:`repro.core.registry`).
"""

from .common import MicroBenchmark, scope_for
from .fft import FFT_1D_SIZES, FFT_2D_SIZE, Fft, fft, fft2, ifft, ifft2
from .gemm import GEMM_PRECISIONS, Gemm, blocked_gemm
from .lats import (
    Lats,
    build_chain,
    chase,
    chase_coalesced,
    default_sizes,
    latency_curve,
)
from .p2p import MESSAGE_BYTES, P2PBandwidth, local_pairs, remote_pairs
from .pcie import TRANSFER_BYTES, PcieBandwidth
from .peak_flops import CHAIN_LENGTH, PeakFlops, fma_chain, fma_chain_reference
from .triad import STREAM_FACTOR, Triad, triad, triad_array_bytes

__all__ = [
    "MicroBenchmark",
    "scope_for",
    "FFT_1D_SIZES",
    "FFT_2D_SIZE",
    "Fft",
    "fft",
    "fft2",
    "ifft",
    "ifft2",
    "GEMM_PRECISIONS",
    "Gemm",
    "blocked_gemm",
    "Lats",
    "build_chain",
    "chase",
    "chase_coalesced",
    "default_sizes",
    "latency_curve",
    "MESSAGE_BYTES",
    "P2PBandwidth",
    "local_pairs",
    "remote_pairs",
    "TRANSFER_BYTES",
    "PcieBandwidth",
    "CHAIN_LENGTH",
    "PeakFlops",
    "fma_chain",
    "fma_chain_reference",
    "STREAM_FACTOR",
    "Triad",
    "triad",
    "triad_array_bytes",
]
