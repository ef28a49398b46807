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
  ceilings are the *same floats* the scalar path uses — and gathered
  to the points; a batch at one stack count (a zero-stride
  ``n_stacks`` column, :meth:`KernelBatch.at_stacks`) resolves its
  bandwidth once and broadcasts it;
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

from dataclasses import dataclass, field
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
    evaluation scope per point.  Length-1 columns broadcast.  The
    columns are validated once, on construction: slices and
    :meth:`at_stacks` views of a valid batch are valid.
    """

    flops: np.ndarray
    bytes_read: np.ndarray
    bytes_written: np.ndarray
    working_set_bytes: np.ndarray
    serial_chases: np.ndarray
    precision_code: np.ndarray
    kind_code: np.ndarray
    n_stacks: np.ndarray
    total_bytes: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(
            self, "total_bytes", self.bytes_read + self.bytes_written
        )
        empty = (
            (self.flops == 0)
            & (self.total_bytes == 0)
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
        return self._view(
            {name: column[index] for name, column in vars(self).items()}
        )

    def at_stacks(self, n_stacks: int) -> "KernelBatch":
        """This batch with every point at one stack scope.

        The ``n_stacks`` column becomes a zero-stride broadcast, which
        :meth:`BatchEngine.evaluate` resolves once for the whole batch.
        """
        stacks = np.broadcast_to(np.int16(n_stacks), (len(self),))
        return self._view({**vars(self), "n_stacks": stacks})

    @staticmethod
    def _view(columns: dict) -> "KernelBatch":
        # Views of a validated batch skip __post_init__'s O(n) checks.
        view = object.__new__(KernelBatch)
        vars(view).update(columns)
        return view

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
        total = np.maximum(self.compute_s, self.memory_s)
        total += self.latency_s
        return total

    @property
    def bound_code(self) -> np.ndarray:
        """0 = latency, 1 = memory, 2 = compute (:data:`BOUND_LABELS`)."""
        code = np.where(
            self.compute_s >= self.memory_s, np.int8(2), np.int8(1)
        )
        code[self.latency_s > np.maximum(self.compute_s, self.memory_s)] = 0
        return code

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
        """Roofline-decompose every point of *batch*.

        A zero-stride ``n_stacks`` column (:meth:`KernelBatch.at_stacks`)
        enters the arithmetic below as its one value, which broadcasts:
        the bandwidth is resolved once, and only the rate is gathered.
        """
        n = len(batch)
        stacks = batch.n_stacks
        if not stacks.strides[0]:
            stacks = stacks[:1]
        stacks = stacks.astype(np.int64)
        # Dense rate lookup: pack (precision, kind, n_stacks) into one
        # small integer, resolve each combination *present* once via the
        # scalar engine, then gather.  O(n) bincount + a gather beats a
        # sort-based unique by an order of magnitude at 10^6 points.
        max_stacks = self.engine.node.n_stacks
        lo, hi = int(stacks.min()), int(stacks.max())
        if lo < 1 or hi > max_stacks:
            # Same contract as the scalar path's _check_stacks.
            bad = lo if lo < 1 else hi
            raise ValueError(
                f"{self.engine.system.name} has 1..{max_stacks} stacks, "
                f"got {bad}"
            )
        flat = batch.precision_code.astype(np.int64)
        flat += 1
        flat *= len(KIND_CODES)
        flat += batch.kind_code
        flat *= max_stacks + 1
        flat += stacks
        table_size = len(PRECISION_CODES) * len(KIND_CODES) * (max_stacks + 1)
        present = np.nonzero(np.bincount(flat, minlength=table_size))[0]
        rate_lut = np.zeros(table_size, dtype=np.float64)
        bw_lut = np.zeros(max_stacks + 1, dtype=np.float64)
        for code in present.tolist():
            combo, scope = divmod(code, max_stacks + 1)
            pcode, kcode = divmod(combo, len(KIND_CODES))
            rate_lut[code] = self._compute_rate(pcode - 1, kcode, scope)
            bw_lut[scope] = self._stream_bw(scope)
        compute_rate = rate_lut[flat]
        mem_bw = bw_lut[stacks]
        # One pass per bound.  0/rate == 0.0 exactly, which is what the
        # scalar path's ``if spec.flops`` short-circuit produces, so no
        # masking is needed for work-free points.
        compute_s = batch.flops / compute_rate
        memory_s = batch.total_bytes / mem_bw
        latency_s = np.broadcast_to(0.0, (n,))
        chasing = np.flatnonzero(batch.serial_chases > 0)
        if chasing.size:
            latency_s = np.zeros(n, dtype=np.float64)
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
            mem_bw=np.broadcast_to(mem_bw, (n,)),
        )
        telemetry = self.engine.telemetry
        if telemetry is not None:
            telemetry.metrics.inc("batch.evals")
            telemetry.metrics.inc("batch.points", float(n))
        return result
