"""Executing one campaign unit and serialising its result.

A *measuring* unit runs one system's slice of one paper table inside a
fresh :class:`~repro.faults.ExecutionContext` — its own engines, its own
fault injector (same scenario + seed) and its own telemetry session
attributed to the unit id.  That session records metrics only: no unit
payload, table or campaign artifact reads a span timeline, so it holds
no tracer.  Because the fault plans and noise model are
pure functions of ``(scenario, seed, system)``, every unit's payload is
a pure function of its identity: re-executing a unit after a crash
reproduces the stored bytes exactly, which is what makes resume safe.

A *render* unit never measures: it merges its dependencies' serialised
cells back into a :class:`~repro.core.result.ResultTable` and renders
text byte-identical to the monolithic table drivers.  A *static* or
*figure* unit renders its artifact's text through the registry
(:mod:`repro.analysis.artifacts`) the CLI and the service print from.
"""

from __future__ import annotations

from typing import Mapping, Sequence

# The drivers the registry resolves, loaded with the campaign rather
# than on its first unit.
from ..analysis import figures, tables  # noqa: F401
from ..analysis.artifacts import ARTIFACTS, render
from ..core.result import CellStatus, ResultTable
from ..core.units import Quantity
from ..errors import CampaignError
from ..faults.context import ExecutionContext
from ..telemetry import Telemetry

__all__ = [
    "UNIT_SCHEMA",
    "apply_watchdog",
    "execute_unit",
    "format_error",
    "serialize_table",
    "merge_tables",
    "failure_payload",
]

UNIT_SCHEMA = "repro.campaign.unit/v1"


# ----------------------------------------------------------------------
# table cell (de)serialisation
# ----------------------------------------------------------------------

def serialize_table(table: ResultTable) -> dict:
    """Flatten a table into JSON cells, preserving insertion order."""
    cells: list[list] = []
    for row in table.rows:
        for col in table.columns:
            try:
                q = table.get(row, col)
            except KeyError:
                continue
            status = table.status(row, col)
            cells.append(
                [
                    row,
                    col,
                    None if q is None else q.value,
                    None if q is None else q.unit,
                    status.name,
                    table.note(row, col),
                ]
            )
    return {"title": table.title, "cells": cells}


def merge_tables(serialized: Sequence[dict]) -> ResultTable:
    """Rebuild one table from per-system cell payloads, in dep order;
    the title is the one every payload carries."""
    table = ResultTable(serialized[0]["title"])
    for doc in serialized:
        for row, col, value, unit, status_name, note in doc["cells"]:
            q = None if value is None else Quantity(value, unit)
            status = CellStatus[status_name]
            table.set(
                row,
                col,
                q,
                status=None if status is CellStatus.OK else status,
                note=note,
            )
    return table


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------

def _simulated_seconds(telemetry: Telemetry) -> float:
    """Simulated wall-clock a unit consumed (from the rep histogram)."""
    if "rep.time_us" not in telemetry.metrics:
        return 0.0
    hist = telemetry.metrics.histogram("rep.time_us")
    return sum(state.sum for _, state in hist.samples()) / 1e6


def _payload(unit, status: CellStatus, **fields) -> dict:
    return {
        "schema": UNIT_SCHEMA,
        "unit": unit.id,
        "kind": unit.kind,
        "status": status.name,
        **fields,
    }


def _text_payload(unit, status: CellStatus, text: str) -> dict:
    """The payload of a unit that publishes *text* and measures nothing."""
    return _payload(
        unit, status, text=text + "\n", simulated_s=0.0, metrics={}, incidents=[]
    )


def format_error(error: BaseException | str) -> str:
    """The canonical one-line form an execution error takes in payloads.

    Accepting a pre-formatted string lets worker processes ship the
    error across a pipe (exceptions don't pickle reliably) while the
    stored payload stays byte-identical to the in-process path.
    """
    if isinstance(error, BaseException):
        return f"{type(error).__name__}: {error}"
    return str(error)


def failure_payload(unit, error: BaseException | str) -> dict:
    """The stored record of a unit that could not produce a result."""
    return _payload(
        unit,
        CellStatus.FAILED,
        error=format_error(error),
        simulated_s=0.0,
        metrics={},
        incidents=[],
    )


def apply_watchdog(payload: dict, unit_timeout_s: float | None) -> str | None:
    """Demote an over-budget payload to FAILED; returns the note, if any.

    Shared by the serial loop and the parallel scheduler so the
    demotion happens exactly once and — crucially — *before* the
    payload propagates to dependent units, keeping serial and parallel
    runs byte-identical.
    """
    if unit_timeout_s is None or payload["simulated_s"] <= unit_timeout_s:
        return None
    note = (
        f"unit exceeded the {unit_timeout_s:g}s simulated "
        f"watchdog ({payload['simulated_s']:.3g}s)"
    )
    payload["status"] = CellStatus.FAILED.name
    payload["watchdog"] = note
    return note


def _execute_table(
    unit, scenario: str | None, seed: int, profile: bool = False
) -> dict:
    telemetry = Telemetry(unit=unit.id, profile=profile, trace=False)
    ctx = ExecutionContext(scenario, seed, telemetry=telemetry)
    table = ARTIFACTS[unit.table].call(systems=(unit.system,), ctx=ctx)
    status = max(ctx.worst_status, table.worst_status())
    extra: dict = {}
    if telemetry.profiler is not None:
        # Profiled units embed the aggregate digest, not the raw calls:
        # the payload stays small and the digest is what resume must
        # reproduce byte-identically.
        extra["profile"] = telemetry.profiler.summary()
    return _payload(
        unit,
        status,
        table=serialize_table(table),
        incidents=ctx.incident_log(),
        metrics=telemetry.metrics.snapshot(),
        simulated_s=_simulated_seconds(telemetry),
        **extra,
    )


def _dep_status(payloads: Sequence[dict]) -> CellStatus:
    worst = CellStatus.OK
    for doc in payloads:
        worst = max(worst, CellStatus[doc["status"]])
    return worst


def _execute_render(unit, dep_payloads: Sequence[dict]) -> dict:
    missing = [d["unit"] for d in dep_payloads if "table" not in d]
    if missing:
        raise CampaignError(
            f"render unit {unit.id!r} cannot run: dependencies "
            f"{', '.join(missing)} produced no cells"
        )
    table = merge_tables([d["table"] for d in dep_payloads])
    return _text_payload(unit, _dep_status(dep_payloads), table.render())


def _execute_summary(unit, dep_payloads: Sequence[dict]) -> dict:
    lines = ["Campaign summary", "-" * 40]
    for doc in dep_payloads:
        lines.append(f"{doc['unit']:24s} {doc['status']}")
    worst = _dep_status(dep_payloads)
    lines += ["-" * 40, f"worst unit status: {worst.name}"]
    return _text_payload(unit, worst, "\n".join(lines))


def execute_unit(
    unit,
    scenario: str | None,
    seed: int,
    dep_payloads: Mapping[str, dict],
    profile: bool = False,
) -> dict:
    """Run one unit; *dep_payloads* maps dep unit ids to stored payloads."""
    deps = [dep_payloads[d] for d in unit.deps]
    if unit.kind == "table":
        return _execute_table(unit, scenario, seed, profile)
    if unit.kind == "render":
        return _execute_render(unit, deps)
    if unit.kind in ("static", "figure"):
        text = render(unit.table or unit.figure)
        return _text_payload(unit, CellStatus.OK, text)
    if unit.kind == "summary":
        return _execute_summary(unit, deps)
    raise CampaignError(f"unit {unit.id!r}: unknown kind {unit.kind!r}")
