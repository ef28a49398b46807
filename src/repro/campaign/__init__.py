"""Crash-safe campaign orchestration.

A *campaign* is the paper's full result set — Tables II/III/VI, the
static tables, Figures 1-4 — decomposed into a deterministic DAG of
benchmark units.  The subsystem has four layers:

* :mod:`repro.campaign.spec` — named campaign specs: units, their
  dependencies, and a content digest that pins what "the same campaign"
  means across processes;
* :mod:`repro.campaign.journal` — the write-ahead journal: checksummed
  JSONL records with O(1) fsync'd appends, torn-tail detection, and
  heal-on-append recovery;
* :mod:`repro.campaign.store` — the integrity-verified result store:
  one JSON payload per completed unit, digest-bound to the journal;
* :mod:`repro.campaign.scheduler` — the DAG scheduler, the only
  producer of unit outcomes: in-process at ``--jobs 1``, opportunistic
  execution on a standard-library process pool at ``--jobs N``,
  outcomes strictly in topological order either way; a worker death
  degrades the run to the in-process step;
* :mod:`repro.campaign.orchestrator` — one commit loop for every
  ``--jobs``: commits units in topological order under a supervisor
  (per-unit simulated-time watchdog, campaign deadline, SIGINT/SIGTERM
  flush), journals every transition, and on
  ``resume`` re-executes only incomplete or corrupted units.

Determinism contract: a campaign interrupted after any unit and then
resumed — serially or with any ``--jobs N`` — produces byte-identical
journal, store, final tables and manifest to an uninterrupted serial
run with the same seed and scenario.  A worker death (the degrade step)
and transient-ENOSPC retries leave no trace in those artifacts either;
a worker death shows only on stderr and in the wall-clock
``live.ndjson`` stream.
"""

__all__: list[str] = []
