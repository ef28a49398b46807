"""The ``pvc-bench`` exit-code taxonomy.

Every command maps its outcome onto one contract (documented in
``docs/campaigns.md`` and ``docs/fault_injection.md``):

====  ======================  =============================================
code  name                    meaning
====  ======================  =============================================
0     OK                      clean run; every reported number is trusted
1     MEASUREMENT             a measurement-level problem: degraded cells
                              (faults absorbed, provenance footnotes) or a
                              :class:`~repro.errors.MeasurementError`
2     UNHEALTHY               failed cells, topology/configuration errors,
                              or any other fatal :class:`ReproError`
3     INTERRUPTED             the run stopped early (SIGINT/SIGTERM,
                              deadline, simulated crash) but left a valid
                              journal — ``campaign resume`` can finish it
4     CORRUPT                 a journal record or result-store entry failed
                              its integrity check
====  ======================  =============================================

Codes 0-2 deliberately coincide with the pre-existing fault-injection
contract (clean / degraded / failed), so older scripts keep working.

The campaign process pool adds no codes: a worker death *degrades*
the run to the in-process step, which completes with whatever status
the units earn (reported on stderr and in the live stream, never in
the exit code), and transient ENOSPC absorbed by the bounded IO retry
never affects it either.  A legacy ``unit-quarantined`` journal record
carries a FAILED payload, so it counts like ``unit-failed`` (code 2).
"""

from __future__ import annotations

import enum

from .errors import (
    CampaignCorruptError,
    MeasurementError,
    ReproError,
)

__all__ = ["ExitCode", "classify_error", "status_exit_code"]


class ExitCode(enum.IntEnum):
    """The documented ``pvc-bench`` exit codes."""

    OK = 0
    MEASUREMENT = 1
    UNHEALTHY = 2
    INTERRUPTED = 3
    CORRUPT = 4


def classify_error(exc: BaseException) -> ExitCode:
    """Map an exception onto the exit-code taxonomy.

    ``KeyboardInterrupt`` (and SIGTERM converted to it) is *resumable*:
    journalled state survives, so it maps to :attr:`ExitCode.INTERRUPTED`.
    Integrity failures outrank everything; measurement failures are the
    mildest error class because partial results remain usable.
    """
    if isinstance(exc, CampaignCorruptError):
        return ExitCode.CORRUPT
    if isinstance(exc, KeyboardInterrupt):
        return ExitCode.INTERRUPTED
    if isinstance(exc, MeasurementError):
        return ExitCode.MEASUREMENT
    if isinstance(exc, ReproError):
        return ExitCode.UNHEALTHY
    raise exc


def status_exit_code(worst: "object") -> ExitCode:
    """Exit code for a completed run given its worst cell status.

    Accepts a :class:`~repro.core.result.CellStatus` (an IntEnum whose
    values already mirror codes 0-2).
    """
    return ExitCode(int(worst))
