"""Layer spans recorded around the program's public entry points.

The benchmark attributes time to layers without editing the program:
:func:`install` replaces each entry point named in :data:`LAYERS` with a
wrapper that records one span per call (name, layer, start, end, span
id, parent span id, thread, op id) in memory.  The child process writes
the spans as JSON when it exits (:meth:`SpanRecorder.dump`), and the
parent folds them into the per-layer ledger (:func:`fold`).

Times are ``time.monotonic_ns()`` integers, the clock the parent
process uses too, so child spans and parent timestamps compare directly.

A layer's self time is its spans' durations minus the part of each
interval that child spans cover (:func:`self_times`), so nested layers
are never counted twice.  All spans of one op share its id: the process
for campaign and sweep runs, and the request's trace id in the daemon.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import zlib
from collections import defaultdict

__all__ = [
    "LAYERS",
    "SpanRecorder",
    "fold",
    "install",
    "load",
    "self_times",
    "union_length",
]

#: layer -> public entry points (``module:qualname``).  A method entry
#: point also covers every subclass override of that method.
LAYERS: dict[str, tuple[str, ...]] = {
    "micro.functional": (
        "repro.micro.gemm:blocked_gemm",
        "repro.micro.fft:fft",
        "repro.micro.fft:fft2",
        "repro.micro.fft:ifft",
        "repro.micro.fft:ifft2",
    ),
    "micro.measure": ("repro.micro.common:MicroBenchmark.measure",),
    "sim.kernel_time": (
        "repro.sim.engine:PerfEngine.kernel_time_s",
        "repro.sim.engine:PerfEngine.roofline",
    ),
    "sim.batch": (
        "repro.sim.batch:BatchEngine.evaluate",
        "repro.sim.batch:KernelBatch.from_arrays",
    ),
    "sim.memostore": (
        "repro.sim.memostore:MemoStore.get",
        "repro.sim.memostore:MemoStore.put",
    ),
    "runtime": (
        "repro.runtime.sycl:SyclQueue.submit",
        "repro.runtime.sycl:SyclQueue.memcpy",
        "repro.runtime.sycl:SyclQueue.wait",
    ),
    "telemetry": (
        "repro.telemetry.metrics:MetricsRegistry.inc",
        "repro.telemetry.metrics:MetricsRegistry.observe",
    ),
    "analysis": (
        "repro.analysis.tables:table_i",
        "repro.analysis.tables:table_ii",
        "repro.analysis.tables:table_iii",
        "repro.analysis.tables:table_iv",
        "repro.analysis.tables:table_v",
        "repro.analysis.tables:table_vi",
        "repro.analysis.figures:render_figure",
    ),
    "campaign.unit": ("repro.campaign.units:execute_unit",),
    "campaign.journal": ("repro.campaign.journal:Journal.append",),
    "campaign.store": (
        "repro.campaign.store:ResultStore.put",
        "repro.campaign.store:ResultStore.get",
    ),
    "ioutils": (
        "repro.ioutils:atomic_write_text",
        "repro.ioutils:atomic_write_json",
        "repro.ioutils:fsync_append_text",
    ),
    "obs.events": (
        "repro.obs.events:EventBus.emit",
        "repro.obs.events:EventBus.live",
    ),
    "obs.requests": ("repro.obs.requests:RequestLog.append",),
    "service.journal": (
        "repro.service.state:ServiceState.journal_accepted",
        "repro.service.state:ServiceState.journal_done",
    ),
    "sweep": ("repro.sweep.runner:run_sweep",),
}

#: Span fields, in the order each span is stored and written.  ``name``
#: and ``layer`` are written as indices into the dump's ``names`` table.
FIELDS = ("name", "layer", "start", "end", "sid", "parent", "thread", "op", "digest")


def _array_digest(*arrays) -> str:
    """CRC-32 content digest: cheap enough to take on every call, and a
    collision among the few hundred inputs of one run is negligible."""
    import numpy as np

    parts = []
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        crc = zlib.crc32(memoryview(arr).cast("B"))
        parts.append(f"{arr.dtype.str}{arr.shape}{crc:08x}")
    return "/".join(parts)


def _gemm_digest(a, b, block=64, out=None) -> str:
    return _array_digest(a, b) + f":{block}"


def _fft_digest(x) -> str:
    return _array_digest(x)


#: Entry points whose input content is digested, so the ledger can
#: report distinct inputs per call (the share of calls doing new work).
DIGESTS = {
    "repro.micro.gemm:blocked_gemm": _gemm_digest,
    "repro.micro.fft:fft": _fft_digest,
    "repro.micro.fft:fft2": _fft_digest,
    "repro.micro.fft:ifft": _fft_digest,
    "repro.micro.fft:ifft2": _fft_digest,
}


class SpanRecorder:
    """In-memory span store with one call stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._threads = itertools.count(1)
        self.names: list[str] = []
        self.spans: list[tuple] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.thread = next(self._threads)
            local.op = None
        return local

    def bind_op(self, op: str | None) -> None:
        """Give the calling thread's next root spans the op id *op*."""
        self._state().op = op

    def wrap(self, layer: str, name: str, fn, digest=None, op_from_result=None):
        """*fn* wrapped to record one span per call.

        *digest* maps the call's arguments to a content digest, taken on
        the outermost call of the layer only.  *op_from_result* maps the
        return value to the op id of a root span whose op is known only
        once it returns.
        """
        name_ix = self._intern(name)
        layer_ix = self._intern(layer)
        state, ids, spans = self._state, self._ids, self.spans
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = state()
            stack = local.stack
            parent = stack[-1] if stack else None
            key = None
            if digest is not None and (parent is None or parent[1] != layer_ix):
                key = digest(*args, **kwargs)
            sid = next(ids)
            op = local.op if parent is None else None
            stack.append((sid, layer_ix))
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if op_from_result is not None and result is not None:
                    op = op_from_result(result)
                spans.append(
                    (name_ix, layer_ix, start, end, sid,
                     parent[0] if parent else 0, local.thread, op, key)
                )

        return wrapper

    def binder(self, fn, op_of):
        """*fn* wrapped to bind the thread's op id from each result."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not None:
                recorder.bind_op(op_of(result))
            return result

        return wrapper

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def dump(self, path: str) -> None:
        doc = {"fields": FIELDS, "names": self.names, "spans": self.spans}
        # json.dumps runs the C encoder; json.dump to a file would not.
        text = json.dumps(doc, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _loaded(target: str):
    """``(owner, attribute)`` of *target*, or ``None`` if its module is
    not loaded: the benchmark wraps what the command imports and imports
    nothing more, so tracing adds no import time."""
    module_name, _, qualname = target.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap the loaded entry points of :data:`LAYERS`; bind service ops.

    A function is replaced in every loaded ``repro.*`` module that holds
    it (many modules ``from ..ioutils import atomic_write_text``); a
    method is replaced on its class and on every subclass override.  In
    the daemon, an executor thread's spans belong to the request it last
    took from the admission queue, and a handler thread's ``submit``
    span to the trace id its response carries.  Returns the entry points
    installed.
    """
    installed: list[str] = []
    functions: dict[int, tuple] = {}
    hooks = [
        (layer, target, lambda fn, layer=layer, target=target: recorder.wrap(
            layer, target, fn, digest=DIGESTS.get(target)))
        for layer, targets in LAYERS.items()
        for target in targets
    ]
    hooks.append((None, "repro.service.admission:AdmissionController.take",
                  lambda fn: recorder.binder(
                      fn, lambda taken: taken[1].trace.trace_id)))
    hooks.append((None, "repro.service.daemon:BenchDaemon.submit",
                  lambda fn: recorder.wrap(
                      "service.submit", "repro.service.daemon:BenchDaemon.submit",
                      fn, op_from_result=lambda res: res[1].get("trace_id"))))
    for layer, target, make in hooks:
        found = _loaded(target)
        if found is None:
            continue
        owner, attr = found
        if isinstance(owner, type):
            for cls in (owner, *_subclasses(owner)):
                raw = cls.__dict__.get(attr)
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(make(raw.__func__)))
                elif raw is not None:
                    setattr(cls, attr, make(raw))
        else:
            original = getattr(owner, attr)
            functions[id(original)] = (original, make(original))
        if layer is not None:
            installed.append(target)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
    return installed


# ----------------------------------------------------------------------
# folding spans into the ledger
# ----------------------------------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by *intervals* (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> duration minus the union of its children's intervals
    (in the spans' own time unit)."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span["sid"], ())
            if e > start and s < end
        ]
        out[span["sid"]] = (end - start) - union_length(clipped)
    return out


def load(path: str) -> list[dict]:
    """The spans of one dump, as dicts with names resolved."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    spans = [dict(zip(doc["fields"], row)) for row in doc["spans"]]
    for span in spans:
        span["name"] = names[span["name"]]
        span["layer"] = names[span["layer"]]
    return spans


def fold(spans: list[dict], ops: set | None = None) -> dict:
    """Per-layer and per-entry-point totals over the spans of *ops*.

    Each span takes the op id of its root ancestor; with *ops* given,
    spans of other ops (set-up requests, idle threads) are dropped.
    Returns ``{"layers": {layer: {calls, self_s, digests}}, "entry":
    {name: calls}}`` where a layer's calls count only its outermost
    spans (a call into the layer, not recursion inside it).
    """
    by_id = {span["sid"]: span for span in spans}

    def op_of(span: dict):
        while span["parent"] and span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span["op"]

    kept = [s for s in spans if ops is None or op_of(s) in ops]
    selfs = self_times(kept)
    layers: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "digests": []}
    )
    entry: dict[str, int] = defaultdict(int)
    for span in kept:
        row = layers[span["layer"]]
        row["self_s"] += selfs[span["sid"]] / 1e9
        entry[span["name"]] += 1
        parent = by_id.get(span["parent"])
        if parent is None or parent["layer"] != span["layer"]:
            row["calls"] += 1
            if span["digest"] is not None:
                row["digests"].append(span["digest"])
    return {"layers": dict(layers), "entry": dict(entry)}
