"""Vectorized batch evaluation of the roofline model.

:class:`~repro.sim.engine.PerfEngine` evaluates one ``(kernel, system,
n_stacks)`` point per Python call — fine for the paper's tables (a few
hundred points), hopeless for design-space exploration, where a
tile-size × precision × stack-count grid runs to millions of points and
the interpreter overhead per point dwarfs the arithmetic.  This module
evaluates whole design spaces in a handful of NumPy array ops:

* kernels arrive as a **struct-of-arrays** (:class:`KernelBatch`):
  flops, bytes read/written, working-set, chase counts, a precision
  code, a workload-kind code and a stack count per point;
* achieved-rate ceilings are resolved **once per distinct**
  ``(precision, kind, n_stacks)`` combination — by calling the scalar
  engine's own ``fma_rate``/``gemm_rate``/``stream_bw`` methods, so the
  ceilings are the *same floats* the scalar path uses — and scattered
  to the points through boolean masks;
* one vectorized pass per bound (compute ceiling with the TDP
  downclock folded into the rates, memory bandwidth, serialized chase
  latency), then a vectorized ``max``/compare over the bounds yields
  time and regime per point.

Because every per-point operation (division, addition, max) is the
same IEEE-754 double operation the scalar path performs on the same
operands, the batch result is **bit-for-bit identical** to calling
:meth:`PerfEngine.roofline` point by point.  The scalar path stays the
golden reference; ``tests/properties/test_prop_batch.py`` pins the
equality over randomized grids and ablations.

Fault-injected engines are rejected: injector state (clock excursions,
lost stacks) makes evaluation impure per point, which is exactly what
the scalar path with its bypass counters is for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..dtypes import ENGINE_MATRIX, Precision
from ..errors import KernelSpecError
from ..hw.frequency import WorkloadKind
from .kernel import KernelSpec
from .roofline import RooflinePoint

__all__ = [
    "KernelBatch",
    "BatchResult",
    "BatchEngine",
    "BOUND_LABELS",
    "PRECISION_CODES",
    "KIND_CODES",
]

#: Bound regime per code — matches the engine's ``_REGIME_CODE`` gauge
#: encoding (0 = latency, 1 = memory, 2 = compute).
BOUND_LABELS: tuple[str, ...] = ("latency", "memory", "compute")

#: Stable integer code per precision (-1 encodes "no precision", the
#: pure-data-movement case, which the engine treats as FP32 for rates).
PRECISION_CODES: dict[Precision | None, int] = {
    p: i for i, p in enumerate(Precision)
}
PRECISION_CODES[None] = -1
_PRECISION_BY_CODE: dict[int, Precision | None] = {
    code: p for p, code in PRECISION_CODES.items()
}

#: Stable integer code per workload kind.
KIND_CODES: dict[WorkloadKind, int] = {
    k: i for i, k in enumerate(WorkloadKind)
}
_KIND_BY_CODE: dict[int, WorkloadKind] = {
    code: k for k, code in KIND_CODES.items()
}


def _column(values, dtype, n: int | None) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    if array.ndim == 0:
        array = array.reshape(1)
    if array.ndim != 1:
        raise KernelSpecError("batch columns must be one-dimensional")
    if n is not None and array.shape[0] != n:
        if array.shape[0] == 1:
            array = np.broadcast_to(array, (n,)).copy()
        else:
            raise KernelSpecError(
                f"batch column length {array.shape[0]} != {n}"
            )
    return array


@dataclass(frozen=True)
class KernelBatch:
    """A struct-of-arrays block of kernel workload descriptors.

    The columns mirror :class:`~repro.sim.kernel.KernelSpec` field for
    field; ``precision_code``/``kind_code`` carry the enum codes from
    :data:`PRECISION_CODES`/:data:`KIND_CODES` and ``n_stacks`` the
    evaluation scope per point.  Length-1 columns broadcast.
    """

    flops: np.ndarray
    bytes_read: np.ndarray
    bytes_written: np.ndarray
    working_set_bytes: np.ndarray
    serial_chases: np.ndarray
    precision_code: np.ndarray
    kind_code: np.ndarray
    n_stacks: np.ndarray

    @classmethod
    def from_arrays(
        cls,
        *,
        flops=0.0,
        bytes_read=0.0,
        bytes_written=0.0,
        working_set_bytes=0,
        serial_chases=0,
        precision: Precision | None | Sequence = Precision.FP32,
        kind: WorkloadKind | Sequence = WorkloadKind.FMA_CHAIN,
        n_stacks=1,
    ) -> "KernelBatch":
        """Build a batch from columns (scalars broadcast).

        ``precision`` and ``kind`` accept enum members, ``None`` (for
        precision), raw integer codes, or sequences of either.
        """

        def codes(values, table, name) -> np.ndarray:
            if isinstance(values, (Precision, WorkloadKind)) or values is None:
                values = [values]
            elif isinstance(values, (int, np.integer)):
                values = [int(values)]
            out = []
            for v in values:
                if isinstance(v, (int, np.integer)):
                    code = int(v)
                    if code not in (
                        _PRECISION_BY_CODE if name == "precision"
                        else _KIND_BY_CODE
                    ):
                        raise KernelSpecError(f"unknown {name} code {code}")
                    out.append(code)
                else:
                    try:
                        out.append(table[v])
                    except KeyError:
                        raise KernelSpecError(
                            f"unknown {name}: {v!r}"
                        ) from None
            return np.asarray(out, dtype=np.int8)

        columns = {
            "flops": np.asarray(flops, dtype=np.float64),
            "bytes_read": np.asarray(bytes_read, dtype=np.float64),
            "bytes_written": np.asarray(bytes_written, dtype=np.float64),
            "working_set_bytes": np.asarray(working_set_bytes, np.int64),
            "serial_chases": np.asarray(serial_chases, dtype=np.int64),
            "precision_code": codes(precision, PRECISION_CODES, "precision"),
            "kind_code": codes(kind, KIND_CODES, "kind"),
            "n_stacks": np.asarray(n_stacks, dtype=np.int16),
        }
        n = max(
            (np.atleast_1d(c).shape[0] for c in columns.values()), default=1
        )
        dtypes = {
            "flops": np.float64,
            "bytes_read": np.float64,
            "bytes_written": np.float64,
            "working_set_bytes": np.int64,
            "serial_chases": np.int64,
            "precision_code": np.int8,
            "kind_code": np.int8,
            "n_stacks": np.int16,
        }
        return cls(
            **{
                name: _column(col, dtypes[name], n)
                for name, col in columns.items()
            }
        )

    @classmethod
    def from_specs(
        cls, specs: Iterable[KernelSpec], n_stacks=1
    ) -> "KernelBatch":
        """Pack scalar :class:`KernelSpec` objects into one batch."""
        specs = list(specs)
        return cls.from_arrays(
            flops=[s.flops for s in specs],
            bytes_read=[s.bytes_read for s in specs],
            bytes_written=[s.bytes_written for s in specs],
            working_set_bytes=[s.working_set_bytes for s in specs],
            serial_chases=[s.serial_chases for s in specs],
            precision=[s.precision for s in specs],
            kind=[s.kind for s in specs],
            n_stacks=n_stacks,
        )

    def __post_init__(self) -> None:
        n = self.flops.shape[0]
        for name in (
            "bytes_read", "bytes_written", "working_set_bytes",
            "serial_chases", "precision_code", "kind_code", "n_stacks",
        ):
            if getattr(self, name).shape != (n,):
                raise KernelSpecError(
                    f"batch column {name} shape mismatch"
                )
        if n == 0:
            raise KernelSpecError("empty batch")
        if (
            bool(np.any(self.flops < 0))
            or bool(np.any(self.bytes_read < 0))
            or bool(np.any(self.bytes_written < 0))
        ):
            raise KernelSpecError("batch point with negative work")
        if bool(np.any(self.serial_chases < 0)):
            raise KernelSpecError("batch point with negative chase count")
        empty = (
            (self.flops == 0)
            & (self.bytes_read + self.bytes_written == 0)
            & (self.serial_chases == 0)
        )
        if bool(np.any(empty)):
            raise KernelSpecError(
                f"batch holds {int(np.sum(empty))} empty kernel point(s)"
            )
        chasing = self.serial_chases > 0
        if bool(np.any(chasing & (self.working_set_bytes <= 0))):
            raise KernelSpecError(
                "chase points need a positive working set"
            )

    def __len__(self) -> int:
        return self.flops.shape[0]

    def __getitem__(self, index: slice) -> "KernelBatch":
        if not isinstance(index, slice):
            raise TypeError("KernelBatch indexing takes slices (chunking)")
        return KernelBatch(
            flops=self.flops[index],
            bytes_read=self.bytes_read[index],
            bytes_written=self.bytes_written[index],
            working_set_bytes=self.working_set_bytes[index],
            serial_chases=self.serial_chases[index],
            precision_code=self.precision_code[index],
            kind_code=self.kind_code[index],
            n_stacks=self.n_stacks[index],
        )

    @property
    def total_bytes(self) -> np.ndarray:
        return self.bytes_read + self.bytes_written

    def spec(self, i: int, name: str | None = None) -> KernelSpec:
        """Reconstruct point *i* as a scalar :class:`KernelSpec`.

        The golden-reference hook: the property suite evaluates
        ``batch.spec(i)`` through the scalar engine and demands
        bit-for-bit agreement with the batch columns at *i*.
        """
        return KernelSpec(
            name=name or f"batch[{i}]",
            precision=_PRECISION_BY_CODE[int(self.precision_code[i])],
            flops=float(self.flops[i]),
            bytes_read=float(self.bytes_read[i]),
            bytes_written=float(self.bytes_written[i]),
            working_set_bytes=int(self.working_set_bytes[i]),
            kind=_KIND_BY_CODE[int(self.kind_code[i])],
            serial_chases=int(self.serial_chases[i]),
        )


@dataclass(frozen=True)
class BatchResult:
    """Roofline decomposition of every point of a :class:`KernelBatch`.

    The columns carry exactly what a per-point
    :class:`~repro.sim.roofline.RooflinePoint` would: the bound times,
    the achieved-rate ceilings the model was evaluated with, and the
    derived total/bound.  ``point(i)`` reconstructs the scalar object.
    """

    compute_s: np.ndarray
    memory_s: np.ndarray
    latency_s: np.ndarray
    compute_rate: np.ndarray
    mem_bw: np.ndarray

    def __len__(self) -> int:
        return self.compute_s.shape[0]

    @property
    def total_s(self) -> np.ndarray:
        return np.maximum(self.compute_s, self.memory_s) + self.latency_s

    @property
    def bound_code(self) -> np.ndarray:
        """0 = latency, 1 = memory, 2 = compute (:data:`BOUND_LABELS`)."""
        overlap = np.maximum(self.compute_s, self.memory_s)
        code = np.where(self.compute_s >= self.memory_s, 2, 1).astype(np.int8)
        return np.where(self.latency_s > overlap, np.int8(0), code)

    def bounds(self) -> np.ndarray:
        """Bound labels per point (object array of str)."""
        return np.array(BOUND_LABELS, dtype=object)[self.bound_code]

    def flops_per_s(self, flops: np.ndarray) -> np.ndarray:
        """Achieved flop rate per point (0 where a point has no flops)."""
        total = self.total_s
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(total > 0, flops / total, 0.0)
        return rate

    def point(self, i: int) -> RooflinePoint:
        """Point *i* as the scalar engine's value type."""
        return RooflinePoint(
            compute_s=float(self.compute_s[i]),
            memory_s=float(self.memory_s[i]),
            latency_s=float(self.latency_s[i]),
            compute_rate=float(self.compute_rate[i]),
            mem_bw=float(self.mem_bw[i]),
        )


class BatchEngine:
    """Vectorized evaluator bound to one (clean) scalar engine.

    The scalar :class:`~repro.sim.engine.PerfEngine` stays the single
    source of truth for achieved rates: this class only *amortizes* the
    rate queries over every point sharing a ``(precision, kind,
    n_stacks)`` combination and runs the roofline arithmetic as array
    ops.  Construct via :meth:`PerfEngine.batch`.
    """

    def __init__(self, engine) -> None:
        if engine.faults is not None:
            raise ValueError(
                "batch evaluation requires a fault-free engine "
                "(injector state is impure per point; use the scalar path)"
            )
        self.engine = engine
        # (precision_code, kind_code, n_stacks) -> compute ceiling.
        self._rate_cache: dict[tuple[int, int, int], float] = {}
        # n_stacks -> achieved stream bandwidth.
        self._bw_cache: dict[int, float] = {}
        # working_set_bytes -> chase latency seconds.
        self._chase_cache: dict[int, float] = {}

    # -- ceilings ----------------------------------------------------------

    def _compute_rate(self, pcode: int, kcode: int, stacks: int) -> float:
        key = (pcode, kcode, stacks)
        rate = self._rate_cache.get(key)
        if rate is None:
            precision = _PRECISION_BY_CODE[pcode] or Precision.FP32
            kind = _KIND_BY_CODE[kcode]
            if kind is WorkloadKind.GEMM or precision.engine == ENGINE_MATRIX:
                rate = self.engine.gemm_rate(precision, stacks)
            else:
                rate = self.engine.fma_rate(precision, stacks)
            self._rate_cache[key] = rate
        return rate

    def _stream_bw(self, stacks: int) -> float:
        bw = self._bw_cache.get(stacks)
        if bw is None:
            bw = self.engine.stream_bw(stacks)
            self._bw_cache[stacks] = bw
        return bw

    def _chase_latency(self, working_set: int) -> float:
        chase = self._chase_cache.get(working_set)
        if chase is None:
            chase = self.engine.latency_seconds(working_set)
            self._chase_cache[working_set] = chase
        return chase

    # -- evaluation --------------------------------------------------------

    def evaluate(self, batch: KernelBatch) -> BatchResult:
        """Roofline-decompose every point of *batch*."""
        n = len(batch)
        # Dense rate lookup: pack (precision, kind, n_stacks) into one
        # small integer, resolve each combination *present* once via the
        # scalar engine, then gather.  O(n) bincount + two gathers beats
        # a sort-based unique by an order of magnitude at 10^6 points.
        max_stacks = self.engine.node.n_stacks
        stacks = batch.n_stacks.astype(np.int64)
        lo, hi = int(stacks.min()), int(stacks.max())
        if lo < 1 or hi > max_stacks:
            # Same contract as the scalar path's _check_stacks.
            bad = lo if lo < 1 else hi
            raise ValueError(
                f"{self.engine.system.name} has 1..{max_stacks} stacks, "
                f"got {bad}"
            )
        stride = len(KIND_CODES) * (max_stacks + 1)
        flat = (
            (batch.precision_code.astype(np.int64) + 1) * stride
            + batch.kind_code.astype(np.int64) * (max_stacks + 1)
            + stacks
        )
        table_size = len(PRECISION_CODES) * stride
        present = np.nonzero(np.bincount(flat, minlength=table_size))[0]
        rate_lut = np.zeros(table_size, dtype=np.float64)
        bw_lut = np.zeros(table_size, dtype=np.float64)
        for code in present:
            code = int(code)
            pcode = code // stride - 1
            rem = code % stride
            rate_lut[code] = self._compute_rate(
                pcode, rem // (max_stacks + 1), rem % (max_stacks + 1)
            )
            bw_lut[code] = self._stream_bw(rem % (max_stacks + 1))
        compute_rate = rate_lut[flat]
        mem_bw = bw_lut[flat]
        # One pass per bound.  0/rate == 0.0 exactly, which is what the
        # scalar path's ``if spec.flops`` short-circuit produces, so no
        # masking is needed for work-free points.
        compute_s = batch.flops / compute_rate
        memory_s = batch.total_bytes / mem_bw
        latency_s = np.zeros(n, dtype=np.float64)
        chasing = np.flatnonzero(batch.serial_chases > 0)
        if chasing.size:
            ws = batch.working_set_bytes[chasing]
            chase = np.empty(chasing.size, dtype=np.float64)
            for value in np.unique(ws):
                chase[ws == value] = self._chase_latency(int(value))
            latency_s[chasing] = (
                batch.serial_chases[chasing].astype(np.float64) * chase
            )
        result = BatchResult(
            compute_s=compute_s,
            memory_s=memory_s,
            latency_s=latency_s,
            compute_rate=compute_rate,
            mem_bw=mem_bw,
        )
        telemetry = self.engine.telemetry
        if telemetry is not None:
            telemetry.metrics.inc("batch.evals")
            telemetry.metrics.inc("batch.points", float(n))
        return result
