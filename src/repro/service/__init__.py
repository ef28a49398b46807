"""The fault-tolerant benchmark-as-a-service layer.

``pvc-bench serve-bench`` turns the reproduction into a long-running
daemon: HTTP requests for tables, figures, reports and whole campaigns
are admitted through per-tenant token buckets, journalled before they
are queued, executed, and their results kept in a persistent
request-result cache (:mod:`repro.sim.memostore`), so a retry or a
repeated request is answered with cached, byte-identical bytes —
across process restarts and SIGKILLs.

Modules:

* :mod:`.httpd` — the graceful ``ThreadingHTTPServer`` base (tracked
  handler threads, bounded drain, slow-loris socket timeouts), shared
  with ``pvc-bench obs serve``.
* :mod:`.admission` — token buckets, the bounded fair queue, 429
  shedding with ``Retry-After`` hints.
* :mod:`.state` — the durable request journal, terminal records, and
  crash recovery.
* :mod:`.daemon` — :class:`~repro.service.daemon.BenchDaemon`, the
  process tying it together.
* :mod:`.loadgen` — the request-storm client and latency/hit-rate
  reporter (``pvc-bench loadgen``), plus the ``profile service``
  storm benchmark entries.

Every admitted request carries a deterministic W3C-style trace
context (:mod:`repro.obs.requests`): the daemon mints it from the
request id + content digest, threads it through admission, the queue
and forked campaign workers, and returns it in the ``traceparent``
response header so client-side and server-side latency join on one
trace id.

See ``docs/service.md`` for the API, the lifecycle model and the
crash-drill invariants.
"""

__all__: list[str] = []
