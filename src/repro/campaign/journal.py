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
*torn tail*: a partial last line.  The per-record checksum confines the
damage — :meth:`Journal.load` keeps the longest intact prefix and
reports how many trailing records were dropped — and the first append
after loading a journal whose on-disk bytes don't match the trusted
prefix (torn tail, or a pre-existing foreign file) heals it with one
atomic rewrite before resuming O(1) appends.  The reader accepts both
``"v": 1`` and ``"v": 2`` records, so journals written before the
format change load unchanged.

No record contains wall-clock timestamps or hostnames; replaying the
journal is deterministic, and the byte sequence on disk is a pure
function of the record sequence — which is what lets serial and
parallel campaign runs be compared with ``cmp``.
"""

from __future__ import annotations

import json
import os

from ..errors import CampaignCorruptError
from ..ioutils import (
    atomic_write_text,
    fsync_append_text,
    record_intact,
    seal_record,
)

__all__ = ["JournalRecord", "Journal"]

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


class JournalRecord(dict):
    """One journal record (a dict with checksum helpers)."""

    @staticmethod
    def seal(payload: dict) -> "JournalRecord":
        """Attach the integrity checksum to *payload*."""
        return JournalRecord(seal_record(payload))

    def intact(self) -> bool:
        return record_intact(self)

    def line(self) -> str:
        """The record's on-disk form: sorted JSON plus newline."""
        return json.dumps(self, sort_keys=True) + "\n"


class Journal:
    """Append-only, checksummed JSONL journal with torn-tail recovery."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._records: list[JournalRecord] = []
        self.dropped_tail = 0
        # Bytes of the on-disk file known to hold exactly the trusted
        # records, in order, fsynced.  ``None`` means the disk state is
        # unknown (fresh Journal, or a loaded file with a corrupt
        # tail): the next append verifies and, if needed, heals the
        # file with one atomic rewrite before going back to O(1)
        # appends.
        self._synced_bytes: int | None = None

    # ------------------------------------------------------------------
    # loading / verification
    # ------------------------------------------------------------------

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
        if not os.path.exists(journal.path):
            return journal
        # errors="replace": an undecodable byte fails the record's JSON
        # parse or checksum and ends the trusted prefix like any tear.
        with open(
            journal.path, "r", encoding="utf-8", errors="replace", newline=""
        ) as fh:
            text = fh.read()
        trusted_bytes = 0
        clean = True
        for lineno, raw in enumerate(text.splitlines(keepends=True), start=1):
            line = raw.strip()
            if not line:
                trusted_bytes += len(raw.encode("utf-8"))
                continue
            bad: str | None = None
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                bad = "is not valid JSON (torn write?)"
            else:
                rec = JournalRecord(doc)
                if not rec.intact():
                    bad = "fails its sha256 checksum"
                elif rec.get("type") not in RECORD_TYPES:
                    bad = f"has unknown type {rec.get('type')!r}"
                elif rec.get("v") not in RECORD_VERSIONS:
                    bad = f"has unsupported version {rec.get('v')!r}"
            if bad is None and not raw.endswith("\n"):
                # A record that parses but lacks its newline is still a
                # torn append: trusting it would make the next appended
                # line run into it.
                bad = "is missing its trailing newline (torn write?)"
            if bad is not None:
                if strict:
                    raise CampaignCorruptError(
                        f"{journal.path}:{lineno}: record {bad}"
                    )
                journal.dropped_tail = sum(
                    1
                    for l in text.splitlines(keepends=True)[lineno - 1 :]
                    if l.strip()
                )
                clean = False
                break
            journal._records.append(rec)
            trusted_bytes += len(raw.encode("utf-8"))
        if clean:
            journal._synced_bytes = trusted_bytes
        return journal

    @property
    def records(self) -> list[JournalRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def of_type(self, record_type: str) -> list[JournalRecord]:
        return [r for r in self._records if r["type"] == record_type]

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, record_type: str, **fields) -> JournalRecord:
        """Seal a record and persist it with one fsync'd append.

        When the on-disk file doesn't match the trusted prefix — first
        write to a fresh directory, a recovered corrupt tail, or a
        foreign file squatting on the path — the whole trusted journal
        is first rewritten atomically (the v1 behaviour), after which
        appends are O(1) again.
        """
        if record_type not in RECORD_TYPES:
            raise ValueError(f"unknown journal record type {record_type!r}")
        rec = JournalRecord.seal(
            {"v": WRITE_VERSION, "type": record_type, **fields}
        )
        self._records.append(rec)
        line = rec.line()
        if self._synced_bytes is not None and self._on_disk_bytes() == (
            self._synced_bytes
        ):
            self._synced_bytes += fsync_append_text(self.path, line)
        else:
            self._flush()
        return rec

    def _on_disk_bytes(self) -> int | None:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return None

    def _flush(self) -> None:
        """Atomically rewrite the file from the trusted record list."""
        text = "".join(rec.line() for rec in self._records)
        atomic_write_text(self.path, text)
        self._synced_bytes = len(text.encode("utf-8"))

    # ------------------------------------------------------------------
    # fault injection support
    # ------------------------------------------------------------------

    def truncate_tail(self, keep_bytes_of_last: int = 20) -> None:
        """Tear the last record in half (the ``journal-truncate`` fault).

        Leaves the file ending mid-record, exactly what a power cut
        during a non-atomic append would produce on real storage.
        """
        with open(self.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines(keepends=True)
        if not lines:
            return
        torn = lines[-1][:keep_bytes_of_last]
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines[:-1]) + torn)
        # The disk no longer matches the trusted records; the next
        # append must heal, not extend the torn line.
        self._synced_bytes = None
