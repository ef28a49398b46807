"""Chunked execution of sweep specs over the batch engine.

The runner never materializes a design space: a chunk of global indices
is decomposed into per-axis value arrays with ``divmod`` array ops
(last axis fastest, mirroring the spec's declared order), the workload
family turns the values into :class:`~repro.sim.batch.KernelBatch`
columns, and one :meth:`~repro.sim.batch.BatchEngine.evaluate` call
rooflines the whole chunk.  Chunks shard across a fork process pool
(``--jobs``) and merge in chunk order, so the artifacts are
byte-identical to a serial run; if a worker dies, the chunks the pool
had not returned are evaluated in-process instead, with the same
result.

Artifacts (all through the atomic io helpers):

* ``sweep.json`` — the run summary (schema ``repro.sweep.summary/v1``):
  spec, point count, wall clock, batch points/s, the scalar sample's
  size and verdict, the best point and the top-K table, per-chunk
  accounting;
* ``topk.ndjson`` — the top-K rows, one JSON object per line;
* ``results.ndjson`` (``--ndjson``) — every evaluated point.

A deterministically sampled subset re-evaluates through the scalar
:meth:`~repro.sim.engine.PerfEngine.roofline` golden reference; any
mismatch is a model bug and fails the run with
``ExitCode.MEASUREMENT``.  A sweep never times the scalar path: the
``profile sweep`` gate (:func:`sweep_benchmark_entries`) times it over
the same sample, which is where ``batch_speedup`` (gated at >= 50x in
``BENCH_3.json``) comes from.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..dtypes import Precision
from ..errors import ConfigurationError, MeasurementError
from ..hw.frequency import WorkloadKind
from ..hw.systems import get_system
from ..ioutils import atomic_write_json, atomic_write_text
from ..sim.batch import BOUND_LABELS, KIND_CODES, KernelBatch
from ..sim.engine import PerfEngine
from ..sim.kernel import FLOPS_PER_INTERACTION, KernelSpec
from ..sim.noise import QUIET
from ..sim.roofline import RooflinePoint
from .spec import NO_PRECISION, SweepSpec, load_sweep_spec

__all__ = [
    "SWEEP_SUMMARY_SCHEMA",
    "SweepOutcome",
    "run_sweep",
    "sweep_benchmark_entries",
    "sweep_main",
]

SWEEP_SUMMARY_SCHEMA = "repro.sweep.summary/v1"

#: Summary file a sweep run directory is recognized by (``obs export``
#: auto-detects it the way ``requests.ndjson`` marks a service dir).
SWEEP_FILE = "sweep.json"

#: Default points per chunk: ~17 MB of column data, small enough to
#: stay cache-friendly, large enough to amortize the per-chunk rate
#: resolution.
DEFAULT_CHUNK_POINTS = 262_144

#: Default scalar-verification sample size.
DEFAULT_VERIFY_SAMPLE = 64

#: The acceptance floor: the batch path must beat the scalar golden
#: reference by at least this factor in points per second.
SPEEDUP_FLOOR = 50.0

#: Runs behind each ``profile sweep`` gate entry.  Each throughput
#: keeps its best run, the paper's repeat-and-keep-the-best protocol:
#: host noise only ever slows a run down, and one ~25 ms pass of the
#: ``ci`` sweep is too short to average it out.
GATE_REPEATS = 3

#: Storage bytes per precision code (indexed by code; the trailing
#: entry serves code -1, "no precision", which the engine rates as
#: FP32).
_ITEMSIZE = np.array(
    [float(p.itemsize) for p in Precision] + [4.0], dtype=np.float64
)

_LABEL_BY_CODE = {i: p.label for i, p in enumerate(Precision)}
_LABEL_BY_CODE[-1] = NO_PRECISION


# ---------------------------------------------------------------------------
# grid expansion
# ---------------------------------------------------------------------------


def _axis_column(
    values: np.ndarray, stride: int, offset: int, count: int
) -> np.ndarray:
    """``values[(offset + i) // stride % len(values)]`` for i < count.

    Built from repeats and tiles rather than per-point ``divmod``: an
    axis whose whole period (stride x size) fits in the chunk tiles one
    rotated period; a slower axis changes value at most ``size + 1``
    times inside the chunk, so it is a repeat of those few runs.
    """
    size = values.shape[0]
    period = stride * size
    if period <= count:
        cycle = np.roll(np.repeat(values, stride), -(offset % period))
        return np.tile(cycle, -(-count // period))[:count]
    first = offset // stride
    last = (offset + count - 1) // stride
    runs = np.full(last - first + 1, stride, dtype=np.int64)
    runs[0] -= offset - first * stride
    runs[-1] -= (last + 1) * stride - (offset + count)
    return np.repeat(values[np.arange(first, last + 1) % size], runs)


def _axes(spec: SweepSpec, sysname: str) -> list[tuple[str, np.ndarray]]:
    """The grid's axes in row-major order: (n_stacks, precision, *axes)."""
    axes = [
        ("n_stacks", np.asarray(spec.stack_values(sysname), dtype=np.int64)),
        ("precision_code", np.asarray(spec.precision_codes(), dtype=np.int64)),
    ]
    axes.extend(
        (name, np.asarray(values, dtype=np.int64))
        for name, values in spec.axes
    )
    return axes


def _axis_values(
    spec: SweepSpec, sysname: str, offset: int, count: int
) -> dict[str, np.ndarray]:
    """Per-axis value arrays for global indices [offset, offset+count).

    The grid is row-major over (n_stacks, precision, *axes) with the
    last axis varying fastest — pure array arithmetic, no Python loop
    over points.
    """
    out: dict[str, np.ndarray] = {}
    stride = 1
    for name, values in reversed(_axes(spec, sysname)):
        out[name] = _axis_column(values, stride, offset, count)
        stride *= values.shape[0]
    return out


def _axis_values_at(
    spec: SweepSpec, sysname: str, index: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-axis value arrays at arbitrary local *index* positions.

    The plain per-axis divmod ``values[(index // stride) % size]`` that
    :func:`_axis_column` is the run-length form of; the scalar sample
    gathers its scattered points with it.
    """
    out: dict[str, np.ndarray] = {}
    stride = 1
    for name, values in reversed(_axes(spec, sysname)):
        out[name] = values[index // stride % values.shape[0]]
        stride *= values.shape[0]
    return out


# ---------------------------------------------------------------------------
# workload families: axis values -> kernel columns
# ---------------------------------------------------------------------------


def _gemm_tile(v: dict[str, np.ndarray]) -> dict:
    """A tile of C += A x B: the classic blocked-GEMM working point."""
    m, n, k = v["tile_m"], v["tile_n"], v["tile_k"]
    item = _ITEMSIZE[v["precision_code"]]
    # Element counts stay int64 (exact); each product with the float64
    # itemsize converts them exactly as an explicit astype would.
    mn = m * n
    read = m * k
    read += k * n
    return {
        "flops": 2.0 * (mn * k),
        "bytes_read": read * item,
        "bytes_written": mn * item,
        "working_set_bytes": ((read + mn) * item).astype(np.int64),
        "kind": WorkloadKind.GEMM,
    }


def _fma(v: dict[str, np.ndarray]) -> dict:
    """The FMA-chain microbenchmark family (pure compute)."""
    lanes, chain = v["lanes"], v["chain"]
    item = _ITEMSIZE[v["precision_code"]]
    return {
        "flops": 2.0 * (lanes * chain),
        "bytes_read": np.zeros(lanes.shape[0], dtype=np.float64),
        "bytes_written": np.zeros(lanes.shape[0], dtype=np.float64),
        "working_set_bytes": (lanes.astype(np.float64) * item).astype(
            np.int64
        ),
        "kind": WorkloadKind.FMA_CHAIN,
    }


def _stream(v: dict[str, np.ndarray]) -> dict:
    """STREAM-triad shapes at varying array footprints."""
    a = v["array_mib"].astype(np.float64) * float(1024 * 1024)
    return {
        "flops": 2.0 * (a / 8.0),
        "bytes_read": 2.0 * a,
        "bytes_written": 1.0 * a,
        "working_set_bytes": (3.0 * a).astype(np.int64),
        "kind": WorkloadKind.STREAM,
    }


def _bude(v: dict[str, np.ndarray]) -> dict:
    """miniBUDE's launch grid as a roofline space.

    Work per point follows the pose kernel's shape: ppwi poses per
    work-item over a 64 Ki work-item launch, with the protein-atom
    reload amortized across the poses each item holds (higher ppwi =
    fewer DRAM-visible bytes per interaction) and a register-footprint
    working set.
    """
    ppwi, wgsize = v["ppwi"], v["wgsize"]
    items = 64.0 * 1024.0
    interactions = ppwi.astype(np.float64) * items * 256.0
    return {
        "flops": FLOPS_PER_INTERACTION * interactions,
        "bytes_read": interactions * (16.0 / ppwi.astype(np.float64)),
        "bytes_written": np.full(ppwi.shape[0], items * 4.0),
        "working_set_bytes": (
            wgsize.astype(np.float64)
            * (24.0 + 5.0 * ppwi.astype(np.float64))
            * 4.0
        ).astype(np.int64),
        "kind": WorkloadKind.FMA_CHAIN,
    }


def _mix(v: dict[str, np.ndarray]) -> dict:
    """An arithmetic-intensity ladder: intensity_q quarter-flops per
    byte over a size_kib footprint (sweeps across the ridge point)."""
    size = v["size_kib"].astype(np.float64) * 1024.0
    intensity = v["intensity_q"].astype(np.float64) / 4.0
    return {
        "flops": intensity * size,
        "bytes_read": 0.75 * size,
        "bytes_written": 0.25 * size,
        "working_set_bytes": size.astype(np.int64),
        "kind": WorkloadKind.STREAM,
    }


_WORKLOADS = {
    "gemm-tile": _gemm_tile,
    "fma": _fma,
    "stream": _stream,
    "bude": _bude,
    "mix": _mix,
}


def _chunk_batch(
    spec: SweepSpec, sysname: str, offset: int, count: int
) -> tuple[KernelBatch, dict[str, np.ndarray]]:
    """The KernelBatch for one chunk, plus the axis value arrays."""
    values = _axis_values(spec, sysname, offset, count)
    return _kernel_batch(spec, values), values


def _kernel_batch(
    spec: SweepSpec, values: dict[str, np.ndarray]
) -> KernelBatch:
    """The workload family's KernelBatch over axis value arrays."""
    count = values["n_stacks"].shape[0]
    cols = _WORKLOADS[spec.workload](values)
    kind = cols.pop("kind")
    return KernelBatch(
        flops=np.ascontiguousarray(cols["flops"], dtype=np.float64),
        bytes_read=np.ascontiguousarray(cols["bytes_read"], dtype=np.float64),
        bytes_written=np.ascontiguousarray(
            cols["bytes_written"], dtype=np.float64
        ),
        working_set_bytes=np.ascontiguousarray(
            cols["working_set_bytes"], dtype=np.int64
        ),
        serial_chases=np.zeros(count, dtype=np.int64),
        precision_code=values["precision_code"].astype(np.int8),
        kind_code=np.full(count, KIND_CODES[kind], dtype=np.int8),
        n_stacks=values["n_stacks"].astype(np.int16),
    )


# ---------------------------------------------------------------------------
# chunk execution (fork-worker entry point)
# ---------------------------------------------------------------------------

#: Per-process engine cache: fork workers evaluate many chunks of the
#: same few systems; the BatchEngine's rate caches stay warm across
#: chunks.
_ENGINES: dict[str, object] = {}


def _batch_engine(sysname: str):
    engine = _ENGINES.get(sysname)
    if engine is None:
        engine = PerfEngine(get_system(sysname), noise=QUIET).batch()
        _ENGINES[sysname] = engine
    return engine


def _ndjson_lines(
    spec: SweepSpec,
    sysname: str,
    offset: int,
    values: dict[str, np.ndarray],
    fom: np.ndarray,
    total_s: np.ndarray,
    bound_code: np.ndarray,
) -> str:
    """One JSON object per evaluated point, in index order."""
    axis_names = [name for name, _ in spec.axes]
    axis_cols = [values[name].tolist() for name in axis_names]
    stacks = values["n_stacks"].tolist()
    pcodes = values["precision_code"].tolist()
    foms = fom.tolist()
    totals = total_s.tolist()
    bounds = bound_code.tolist()
    lines = []
    for i in range(len(foms)):
        params = ", ".join(
            f'"{name}": {col[i]}'
            for name, col in zip(axis_names, axis_cols)
        )
        lines.append(
            f'{{"v": 1, "spec": "{spec.name}", "system": "{sysname}", '
            f'"index": {offset + i}, "n_stacks": {stacks[i]}, '
            f'"precision": "{_LABEL_BY_CODE[pcodes[i]]}", '
            f"\"params\": {{{params}}}, "
            f'"gflops": {foms[i] / 1e9!r}, "total_s": {totals[i]!r}, '
            f'"bound": "{BOUND_LABELS[bounds[i]]}"}}'
        )
    return "\n".join(lines)


def _chunk_worker(task: tuple) -> dict:
    """Evaluate one chunk; runs in the parent or in a fork worker."""
    spec_doc, sysname, chunk_index, offset, count, top_k, want_ndjson = task
    spec = SweepSpec.from_doc(spec_doc)
    engine = _batch_engine(sysname)
    t0 = time.perf_counter()
    batch, values = _chunk_batch(spec, sysname, offset, count)
    result = engine.evaluate(batch)
    # One shared total_s pass (flops_per_s/bound_code would each
    # recompute the property on a million-point chunk).
    total_s = result.total_s
    with np.errstate(divide="ignore", invalid="ignore"):
        fom = np.where(total_s > 0, batch.flops / total_s, 0.0)
    bound_code = result.bound_code
    wall_s = time.perf_counter() - t0
    k = min(top_k, count)
    if k < count:
        cand = np.argpartition(-fom, k - 1)[:k]
    else:
        cand = np.arange(count)
    # Deterministic order: fom descending, then local index ascending.
    cand = cand[np.lexsort((cand, -fom[cand]))]
    return {
        "chunk": chunk_index,
        "system": sysname,
        "offset": offset,
        "points": count,
        "wall_s": wall_s,
        "top_index": (offset + cand).tolist(),
        "top_fom": fom[cand].tolist(),
        "top_total_s": total_s[cand].tolist(),
        "top_bound": bound_code[cand].tolist(),
        "ndjson": (
            _ndjson_lines(
                spec, sysname, offset, values, fom, total_s, bound_code
            )
            if want_ndjson
            else None
        ),
    }


def _pool_chunks(tasks: list[tuple], jobs: int) -> list[dict]:
    """Evaluate *tasks* on a fork pool; results in task order.

    A worker death breaks the pool.  Every result already received is
    kept and the rest run here through :func:`_chunk_worker`, the step
    a serial sweep uses, so the results do not change.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    ctx = multiprocessing.get_context("fork")
    futures = []
    with ProcessPoolExecutor(min(jobs, len(tasks)), mp_context=ctx) as pool:
        try:
            futures.extend(pool.submit(_chunk_worker, task) for task in tasks)
            return [future.result() for future in futures]
        except BrokenProcessPool:
            pass
    print(
        "sweep: a pool worker died; evaluating the remaining chunks "
        "in-process",
        file=sys.stderr,
    )
    results = [
        future.result()
        for future in futures
        if future.done() and future.exception() is None
    ]
    received = {res["chunk"]: res for res in results}
    return [received.get(task[2]) or _chunk_worker(task) for task in tasks]


# ---------------------------------------------------------------------------
# top-K merge and row reconstruction
# ---------------------------------------------------------------------------


def _point_row(
    spec: SweepSpec,
    sysname: str,
    index: int,
    fom: float,
    total_s: float,
    bound_code: int,
) -> dict:
    """A full result row for one global index (axis values recomputed
    from the index — only the K winners ever pay this)."""
    values = _axis_values(spec, sysname, index, 1)
    row = {
        "spec": spec.name,
        "system": sysname,
        "index": index,
        "n_stacks": int(values["n_stacks"][0]),
        "precision": _LABEL_BY_CODE[int(values["precision_code"][0])],
        "params": {
            name: int(values[name][0]) for name, _ in spec.axes
        },
        "gflops": fom / 1e9,
        "total_s": total_s,
        "bound": BOUND_LABELS[bound_code],
    }
    return row


def _merge_topk(
    spec: SweepSpec, chunk_results: list[dict], top_k: int
) -> list[dict]:
    system_order = {name: i for i, name in enumerate(spec.systems)}
    rows: list[tuple] = []
    for res in chunk_results:
        for index, fom, total_s, bound in zip(
            res["top_index"],
            res["top_fom"],
            res["top_total_s"],
            res["top_bound"],
        ):
            rows.append(
                (-fom, system_order[res["system"]], index, total_s, bound,
                 res["system"])
            )
    rows.sort()
    return [
        _point_row(spec, sysname, index, -neg_fom, total_s, bound)
        for neg_fom, _, index, total_s, bound, sysname in rows[:top_k]
    ]


@contextmanager
def _collector_paused():
    """Keep the cyclic garbage collector out of a timed region.

    A full collection walks every live object in the process, which
    takes tens of milliseconds in a large one, and it starts wherever
    the allocation count happens to cross its threshold.  Landing in
    the ~25 ms batch window of the ``ci`` sweep, one collection alone
    can halve the measured speedup.  ``timeit`` times with the collector
    off for the same reason; both timed paths here allocate no cyclic
    garbage worth collecting.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# scalar golden-reference sampling
# ---------------------------------------------------------------------------


class _SamplePoint(NamedTuple):
    """One sampled point: the scalar question and the batch answer."""

    system: str
    index: int
    kernel: KernelSpec
    n_stacks: int
    point: RooflinePoint


def _sample(spec: SweepSpec, sample: int) -> list[_SamplePoint]:
    """The deterministic scalar-reference sample of *spec*.

    Global index ``(i * total) // sample`` for ``i < sample`` (systems
    in spec order), gathered into one KernelBatch per system and
    evaluated in one batch-engine call each.
    """
    total = spec.n_points()
    sample = min(sample, total)
    if sample <= 0:
        return []
    picks = np.array(sorted({(i * total) // sample for i in range(sample)}))
    points: list[_SamplePoint] = []
    start = 0
    for sysname in spec.systems:
        count = spec.system_points(sysname)
        local = picks[(picks >= start) & (picks < start + count)] - start
        start += count
        if not local.size:
            continue
        batch = _kernel_batch(spec, _axis_values_at(spec, sysname, local))
        result = _batch_engine(sysname).evaluate(batch)
        for i, index in enumerate(local.tolist()):
            points.append(
                _SamplePoint(
                    sysname,
                    index,
                    batch.spec(i, name=f"{spec.name}[{sysname}:{index}]"),
                    int(batch.n_stacks[i]),
                    result.point(i),
                )
            )
    return points


def _scalar_engines(points: list[_SamplePoint]) -> dict[str, PerfEngine]:
    """Fresh scalar engines (cold memos) for the sampled systems."""
    return {
        sysname: PerfEngine(get_system(sysname), noise=QUIET)
        for sysname in {p.system for p in points}
    }


def _scalar_check(spec: SweepSpec, sample: int) -> dict:
    """Re-evaluate the sample once through fresh scalar engines.

    Returns the sample size and whether every sampled point matched the
    batch path bit for bit.  Mismatches raise (a model bug, not a perf
    regression).  The sweep only verifies; timing the scalar path is
    the gate's job (:func:`_scalar_points_per_s`).
    """
    points = _sample(spec, sample)
    if not points:
        return {"sample": 0, "verified": False}
    engines = _scalar_engines(points)
    mismatches = [
        p for p in points
        if engines[p.system].roofline(p.kernel, p.n_stacks) != p.point
    ]
    if mismatches:
        first = mismatches[0]
        raise MeasurementError(
            f"batch/scalar divergence on {len(mismatches)} of "
            f"{len(points)} sampled point(s); first: {first.kernel.name} "
            f"on {first.system}"
        )
    return {"sample": len(points), "verified": True}


def _scalar_points_per_s(spec: SweepSpec, sample: int) -> float | None:
    """Scalar golden-reference throughput over the verification sample.

    Times whole passes over the sample on fresh engines until at least
    50 ms have run, to get off the clock floor; each pass clears the
    memo so every call pays the real evaluation cost a fresh sweep
    would.  ``None`` when the sample is empty.
    """
    points = _sample(spec, sample)
    if not points:
        return None
    engines = _scalar_engines(points)
    wall = 0.0
    evaluated = 0
    with _collector_paused():
        while wall < 0.05:
            for engine in engines.values():
                engine.memo.clear()
            t0 = time.perf_counter()
            golden = [
                engines[sysname].roofline(kernel, n_stacks)
                for sysname, _, kernel, n_stacks, _ in points
            ]
            wall += time.perf_counter() - t0
            evaluated += len(golden)
    return evaluated / wall


# ---------------------------------------------------------------------------
# the sweep proper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepOutcome:
    """What a sweep run produced (summary doc + the top-K rows)."""

    summary: dict
    topk: list[dict]

    @property
    def best(self) -> dict | None:
        return self.topk[0] if self.topk else None


def run_sweep(
    spec: SweepSpec,
    *,
    out_dir: str | os.PathLike | None = None,
    top_k: int = 16,
    chunk_points: int = DEFAULT_CHUNK_POINTS,
    jobs: int = 1,
    ndjson: bool = False,
    verify: int = DEFAULT_VERIFY_SAMPLE,
) -> SweepOutcome:
    """Evaluate *spec* end to end.

    Chunks are dispatched in deterministic order (systems in spec
    order, offsets ascending); with ``jobs > 1`` they shard across a
    fork pool and merge back in chunk order, so every artifact is
    byte-identical to a serial run.
    """
    if top_k < 1:
        raise ConfigurationError("top_k must be >= 1")
    if chunk_points < 1:
        raise ConfigurationError("chunk_points must be >= 1")
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    spec_doc = spec.to_doc()
    tasks: list[tuple] = []
    total_points = 0
    for sysname in spec.systems:
        points = spec.system_points(sysname)
        total_points += points
        for offset in range(0, points, chunk_points):
            count = min(chunk_points, points - offset)
            tasks.append(
                (spec_doc, sysname, len(tasks), offset, count, top_k, ndjson)
            )
    with _collector_paused():
        t0 = time.perf_counter()
        if jobs > 1 and len(tasks) > 1:
            chunk_results = _pool_chunks(tasks, jobs)
        else:
            chunk_results = [_chunk_worker(task) for task in tasks]
        eval_wall_s = time.perf_counter() - t0
    points_per_s = total_points / eval_wall_s if eval_wall_s else None
    topk_rows = _merge_topk(spec, chunk_results, top_k)
    scalar = _scalar_check(spec, verify)
    summary = {
        "schema": SWEEP_SUMMARY_SCHEMA,
        "spec": spec_doc,
        "points": total_points,
        "chunk_points": chunk_points,
        "jobs": jobs,
        "eval_wall_s": eval_wall_s,
        "points_per_s": points_per_s,
        "scalar": scalar,
        "best": topk_rows[0] if topk_rows else None,
        "topk": topk_rows,
        "chunks": [
            {
                "chunk": res["chunk"],
                "system": res["system"],
                "offset": res["offset"],
                "points": res["points"],
                "wall_s": res["wall_s"],
            }
            for res in chunk_results
        ],
        "results": "results.ndjson" if ndjson else None,
    }
    if out_dir is not None:
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        atomic_write_json(os.path.join(out_dir, SWEEP_FILE), summary)
        atomic_write_text(
            os.path.join(out_dir, "topk.ndjson"),
            "\n".join(json.dumps(row, sort_keys=True) for row in topk_rows)
            + "\n",
        )
        if ndjson:
            atomic_write_text(
                os.path.join(out_dir, "results.ndjson"),
                "\n".join(res["ndjson"] for res in chunk_results) + "\n",
            )
    return SweepOutcome(summary=summary, topk=topk_rows)


# ---------------------------------------------------------------------------
# benchmark entries (the BENCH_3 gate) and the CLI
# ---------------------------------------------------------------------------


def sweep_benchmark_entries(
    spec_name: str = "ci",
    *,
    jobs: int = 1,
    verify: int = DEFAULT_VERIFY_SAMPLE,
) -> list[dict]:
    """Baseline entries for ``pvc-bench profile sweep``.

    One entry per sweep spec, keyed ``sweep@<spec>``; ``fom`` carries
    the best point's GFLOP/s (deterministic — the model is exact), and
    ``points_per_s`` / ``batch_speedup`` carry the gated throughput
    figures (wall-clock-dependent, gated with the wide service-style
    tolerance).  The gate is the only place the scalar path is timed:
    :data:`GATE_REPEATS` times, it runs the (verifying) sweep and then
    times the scalar reference over the same sample.  The batch and
    scalar throughputs each keep their best run, and the speedup is the
    ratio of the two bests.
    """
    spec = load_sweep_spec(spec_name)
    outcomes = []
    scalar_points_per_s = 0.0
    for _ in range(GATE_REPEATS):
        outcomes.append(run_sweep(spec, jobs=jobs, verify=verify))
        scalar_points_per_s = max(
            scalar_points_per_s, _scalar_points_per_s(spec, verify) or 0.0
        )
    summary = min(
        (outcome.summary for outcome in outcomes),
        key=lambda doc: doc["eval_wall_s"],
    )
    speedup = (
        summary["points_per_s"] / scalar_points_per_s
        if summary["points_per_s"] and scalar_points_per_s
        else None
    )
    best = outcomes[0].best or {}
    return [
        {
            "bench": "sweep",
            "system": spec.name,
            "points": summary["points"],
            "wall_s": summary["eval_wall_s"],
            "points_per_s": summary["points_per_s"],
            "batch_speedup": speedup,
            "scalar_points_per_s": scalar_points_per_s or None,
            "verified_sample": summary["scalar"]["sample"],
            "fom": best.get("gflops", 0.0),
        }
    ]


def render_summary(summary: dict, topk: list[dict]) -> str:
    """Human-readable sweep report."""
    scalar = summary["scalar"]
    lines = [
        f"# sweep {summary['spec']['name']}: {summary['points']:,} points "
        f"in {summary['eval_wall_s']:.3f}s "
        f"({summary['points_per_s'] / 1e6:.1f} M points/s, "
        f"{len(summary['chunks'])} chunk(s), jobs={summary['jobs']})",
    ]
    if scalar["verified"]:
        lines.append(
            f"# scalar reference: {scalar['sample']} sampled point(s), "
            f"bit-for-bit OK"
        )
    lines.append(
        f"{'rank':>4} {'system':<10} {'stacks':>6} {'prec':>5} "
        f"{'params':<28} {'GFLOP/s':>12} {'bound':<8}"
    )
    for rank, row in enumerate(topk, start=1):
        params = ",".join(f"{k}={v}" for k, v in row["params"].items())
        lines.append(
            f"{rank:>4} {row['system']:<10} {row['n_stacks']:>6} "
            f"{row['precision']:>5} {params:<28} {row['gflops']:>12.1f} "
            f"{row['bound']:<8}"
        )
    return "\n".join(lines)


def sweep_main(args) -> int:
    """Dispatch ``pvc-bench sweep <spec|spec.json> [--dir out] ...``."""
    outcome = run_sweep(
        load_sweep_spec(args.spec),
        out_dir=args.dir,
        top_k=args.top_k,
        chunk_points=args.chunk,
        jobs=args.jobs,
        ndjson=args.ndjson,
        verify=args.verify,
    )
    print(render_summary(outcome.summary, outcome.topk))
    if args.dir:
        wrote = ["sweep.json", "topk.ndjson"]
        if args.ndjson:
            wrote.append("results.ndjson")
        print(
            f"artifacts written to {args.dir}: {', '.join(wrote)}",
            file=sys.stderr,
        )
    return 0
