"""The campaign write-ahead journal.

One JSONL file (``journal.jsonl``) records every campaign transition:

* ``campaign-start`` — spec name + digest, fault scenario, seed, and the
  full unit schedule;
* ``unit-start`` / ``unit-done`` / ``unit-failed`` — per-unit lifecycle;
  ``unit-done`` binds the unit's result-store payload by SHA-256 digest;
* ``unit-quarantined`` — read-only: journals from before the process
  pool degraded to the in-process step on a worker death may hold it
  (a unit pulled from the pool after crashing K workers); nothing
  writes it any more, and status/resume/verify treat it as
  ``unit-failed``;
* ``resume`` — which units a resumed run skipped, re-ran, or recovered
  from a corrupt tail;
* ``interrupted`` / ``deadline`` — early exits that remain resumable;
* ``campaign-done`` — the final exit code.

Every record carries a ``sha256`` field: the digest of the record's
canonical JSON with that field removed.

Format v2 (this module's writer) appends one fsynced line per record —
O(1) per append — instead of atomically rewriting the whole file
(format v1), which made an n-record campaign pay O(n²) journal bytes.
The price of appending in place is that a crash mid-append can leave a
*torn tail*: a partial last line.  The journal is a sealed
:class:`~repro.ioutils.RecordLog`, so the damage is confined the way
it is for every record stream: :meth:`Journal.load` keeps the longest
intact prefix and reports how many trailing records were dropped, and
the first append after a tear cuts the file back to that prefix before
it writes.  The reader accepts both ``"v": 1`` and ``"v": 2`` records,
so journals written before the format change load unchanged.

No record contains wall-clock timestamps or hostnames; replaying the
journal is deterministic, and the byte sequence on disk is a pure
function of the record sequence — which is what lets serial and
parallel campaign runs be compared with ``cmp``.
"""

from __future__ import annotations

import os

from ..errors import CampaignCorruptError
from ..ioutils import RecordLog

__all__ = ["Journal"]

#: Record types the reader accepts (documented in docs/campaigns.md);
#: the orchestrator writes all of them but ``unit-quarantined``.
RECORD_TYPES = (
    "campaign-start",
    "unit-start",
    "unit-done",
    "unit-failed",
    "unit-quarantined",
    "resume",
    "interrupted",
    "deadline",
    "campaign-done",
)

#: Journal format versions the reader accepts.  1 = rewrite-on-append
#: era, 2 = fsync'd append era.  Records are self-describing, so a
#: journal may legally mix versions (an old campaign resumed by a new
#: binary appends v2 records after its v1 prefix).
RECORD_VERSIONS = (1, 2)

#: The version stamped on newly written records.
WRITE_VERSION = 2


def _check_record(doc: dict) -> None:
    if doc.get("type") not in RECORD_TYPES:
        raise ValueError(f"has unknown type {doc.get('type')!r}")
    if doc.get("v") not in RECORD_VERSIONS:
        raise ValueError(f"has unsupported version {doc.get('v')!r}")


class Journal:
    """Append-only, checksummed JSONL journal with torn-tail recovery."""

    def __init__(self, path: str | os.PathLike) -> None:
        self._log = RecordLog(path, _check_record, sealed=True)
        self.path = self._log.path
        self._records: list[dict] = []
        self.dropped_tail = 0

    @classmethod
    def load(cls, path: str | os.PathLike, strict: bool = False) -> "Journal":
        """Read a journal, keeping the longest intact prefix.

        Any record that fails to parse or fails its checksum ends the
        trusted prefix: it and everything after it are dropped (counted
        in :attr:`dropped_tail`).  With ``strict=True`` a bad record
        raises :class:`CampaignCorruptError` instead — the ``campaign
        verify`` behaviour.
        """
        journal = cls(path)
        scan = journal._log.read()
        if strict and scan.reason is not None:
            raise CampaignCorruptError(
                f"{journal.path}:{scan.bad_line}: record {scan.reason}"
            )
        journal._records = scan.records
        journal.dropped_tail = scan.dropped
        return journal

    @property
    def records(self) -> list[dict]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def of_type(self, record_type: str) -> list[dict]:
        return [r for r in self._records if r["type"] == record_type]

    def append(self, record_type: str, **fields) -> dict:
        """Seal a record and persist it with one fsync'd append.

        Raises :class:`ValueError` for a type the reader would reject.
        """
        rec = self._log.append({"v": WRITE_VERSION, "type": record_type, **fields})
        self._records.append(rec)
        return rec

    def truncate_tail(self, keep_bytes_of_last: int = 20) -> None:
        """Tear the last record in half (the ``journal-truncate`` fault).

        Leaves the file ending mid-record, exactly what a power cut
        during a non-atomic append would produce on real storage.  The
        next append finds the file shorter than it left it and heals.
        """
        with open(self.path, "rb") as fh:
            data = fh.read()
        start = data.rfind(b"\n", 0, len(data) - 1) + 1
        os.truncate(self.path, min(len(data), start + keep_bytes_of_last))
