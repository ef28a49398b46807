"""Crash-safe file output helpers.

Every on-disk artifact this package produces (trace exports, run
manifests, metrics dumps, campaign journals and result stores) goes
through :func:`atomic_write_text` / :func:`atomic_write_json`: the
content is written to a temporary sibling file, flushed and fsynced,
then moved into place with :func:`os.replace`.  A reader therefore
never observes a torn write — after a crash or SIGKILL the path either
holds the previous complete content or the new complete content,
never a prefix of the new one.

Transient disk faults (``ENOSPC``/``EDQUOT`` — a log rotation or a
neighbouring tenant briefly filling the volume) are absorbed with a
bounded retry + exponential backoff: :func:`_retry_io` re-attempts the
whole write up to :data:`IO_RETRY_ATTEMPTS` times, truncating a torn
partial append back to its pre-attempt length first so a retried append
never duplicates bytes.  Appends hold an exclusive ``flock`` across the
attempt-and-retry sequence, so that truncation can never destroy a
record a concurrent appender (thread or foreign process) committed in
between.  The fault-injection subsystem hooks the same
path via :func:`set_io_fault_gate` (the ``io-enospc`` campaign
scenario), which is how the chaos suite proves journal and store bytes
survive disk-pressure blips unchanged.

**One record log.**  Six append-only NDJSON streams can be torn by a
crash: the campaign ``journal.jsonl``, the memo-store ``index.jsonl``,
the service ``queue.jsonl``, and the ``events.ndjson``,
``live.ndjson`` and ``requests.ndjson`` telemetry streams.  Each is a
:class:`RecordLog` over one reader (:func:`read_ndjson`) and one
appender (:func:`fsync_append_text`).  A line is *intact* when it ends
in ``\n``, decodes as JSON to an object, carries a matching
``sha256`` seal if the stream is sealed, and passes the stream's own
check; blank lines are skipped.  The reader keeps the longest intact
prefix and names the first line it rejected and why.  Before it
writes, the appender cuts every byte after the last intact record (a
torn tail, foreign bytes), so a new line never lands glued to a torn
one; it rescans the file only when the file's length is not the one
the log last read or wrote.  The commit logs (journal, index, queue)
fsync every append; the telemetry streams (events, live, requests)
hand each line to the kernel in one write and never fsync.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import threading
import time
from typing import Callable, NamedTuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

__all__ = [
    "IO_RETRY_ATTEMPTS",
    "atomic_write_text",
    "atomic_write_json",
    "canonical_json",
    "fsync_append_text",
    "io_retry_count",
    "read_ndjson",
    "record_intact",
    "RecordLog",
    "reset_io_retry_count",
    "Scan",
    "seal_record",
    "set_io_fault_gate",
    "sha256_text",
    "sha256_file",
]

#: Attempts per write before a retryable OSError is allowed to escape.
IO_RETRY_ATTEMPTS = 5

#: errnos treated as transient disk pressure rather than hard failures.
_RETRYABLE_ERRNOS = frozenset(
    code
    for code in (
        errno.ENOSPC,
        getattr(errno, "EDQUOT", None),
        errno.EAGAIN,
    )
    if code is not None
)

#: First backoff sleep; doubles per attempt (2 ms, 4 ms, 8 ms, ...).
_BACKOFF_BASE_S = 0.002

#: Injectable sleep so tests (and the simulated clock) can avoid real
#: waits; the schedule itself is deterministic.
_sleep = time.sleep

#: Optional fault gate ``gate(op, path, attempt) -> None`` consulted
#: before every write attempt; raising ``OSError`` simulates the write
#: failing.  ``op`` is ``"append"`` or ``"write"``; ``attempt`` is
#: 1-based so a gate can fail the first M attempts of an op and then
#: let the retry through (a *transient* fault).
_io_fault_gate = None

#: Retries performed since the last reset (observability for tests).
_io_retries = 0


def set_io_fault_gate(gate):
    """Install (or with ``None`` clear) the write fault gate.

    Returns the previously installed gate so callers can restore it.
    """
    global _io_fault_gate
    previous = _io_fault_gate
    _io_fault_gate = gate
    return previous


def io_retry_count() -> int:
    """Writes retried (after a transient fault) since the last reset."""
    return _io_retries


def reset_io_retry_count() -> None:
    """Zero the retry counter (start of a run or a test)."""
    global _io_retries
    _io_retries = 0


def _retry_io(op: str, path: str, attempt_fn):
    """Run one write attempt with bounded retry on transient errnos."""
    global _io_retries
    for attempt in range(1, IO_RETRY_ATTEMPTS + 1):
        try:
            if _io_fault_gate is not None:
                _io_fault_gate(op, path, attempt)
            return attempt_fn()
        except OSError as exc:
            if exc.errno not in _RETRYABLE_ERRNOS or attempt == IO_RETRY_ATTEMPTS:
                raise
            _io_retries += 1
            _sleep(_BACKOFF_BASE_S * (2 ** (attempt - 1)))
    raise AssertionError("unreachable")  # pragma: no cover


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write *text* to *path* atomically (temp file + flush + replace).

    Transient ``ENOSPC``-class failures are retried with backoff; every
    attempt is self-contained (its temp file is unlinked on failure), so
    the destination only ever flips from old complete content to new
    complete content.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."

    def _attempt() -> None:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    _retry_io("write", path, _attempt)


def fsync_append_text(
    path: str | os.PathLike,
    text: str,
    *,
    expect: int | None = None,
    heal: Callable[[], int] | None = None,
    sync: bool = True,
) -> int:
    """Append *text* to *path* with an fsync; returns the new file length.

    Unlike :func:`atomic_write_text` this is O(len(text)), not O(file):
    the write lands at the end of the existing content and only the new
    bytes hit the disk.  A crash mid-append can leave a *torn tail* — a
    partial last line — which is why readers keep only the longest
    intact prefix.  The containing directory is not fsynced: once the
    file exists no directory entry changes.  A missing parent
    directory is created.

    With *heal* (a callable returning the byte length of the file's
    intact prefix) the append first cuts whatever follows that prefix,
    unless the file is still *expect* bytes long — the length the
    caller last saw it intact at.  ``sync=False`` (the telemetry
    streams) skips the fsync and, as a best-effort write, the fault
    gate and the retry: the ``io-enospc`` drill keeps landing on the
    commit logs and the store.

    Transient disk faults are retried; before each retry the file is
    truncated back to its pre-append length, so a partially landed
    attempt is never duplicated.  An exclusive ``flock`` is held for
    the whole heal-append-retry sequence, so a concurrent appender (a
    thread or another process sharing the stream) can never land a
    record inside the truncation window and have it destroyed — its
    append simply waits its turn.
    """
    path = os.fspath(path)
    data = text.encode("utf-8")
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o644)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, flags, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        base = os.fstat(fd).st_size
        if heal is not None and base != expect:
            base = heal()

        def _attempt() -> int:
            if os.fstat(fd).st_size > base:
                os.ftruncate(fd, base)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if sync:
                os.fsync(fd)
            return base + len(data)

        if not sync:
            return _attempt()
        return _retry_io("append", path, _attempt)
    finally:
        os.close(fd)


def canonical_json(doc: object) -> str:
    """The canonical (sorted, compact) JSON form used for checksumming."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def atomic_write_json(path: str | os.PathLike, doc: object) -> None:
    """Serialise *doc* as stable, human-readable JSON and write atomically."""
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def seal_record(body: dict) -> dict:
    """Attach a ``sha256`` integrity field to *body* (checksum of its
    canonical JSON with the field removed) — the self-describing record
    scheme shared by the campaign journal, the memo-store index, and
    the service request queue."""
    doc = {k: v for k, v in body.items() if k != "sha256"}
    doc["sha256"] = sha256_text(canonical_json(doc))
    return doc


def record_intact(doc: dict) -> bool:
    """True when *doc*'s ``sha256`` matches its own canonical body."""
    body = {k: v for k, v in doc.items() if k != "sha256"}
    return doc.get("sha256") == sha256_text(canonical_json(body))


class Scan(NamedTuple):
    """What :func:`read_ndjson` trusts of a stream."""

    records: list[dict]
    #: Non-blank lines from the first rejected one to the end.
    dropped: int
    #: Byte length of the intact prefix.
    trusted: int
    #: 1-based number of the first rejected line, and why it was.
    bad_line: int | None
    reason: str | None


def _fault(doc: object, check, sealed: bool) -> str | None:
    """Why decoded line *doc* is not an intact record, or ``None``."""
    if not isinstance(doc, dict):
        return "is not a JSON object"
    if sealed and not record_intact(doc):
        return "fails its sha256 checksum"
    try:
        check(doc)
    except ValueError as exc:
        return str(exc)
    return None


def read_ndjson(path: str | os.PathLike, check, sealed: bool = False) -> Scan:
    """Decode an NDJSON stream, keeping the longest intact prefix.

    The prefix ends at the first non-blank line that is not valid JSON,
    not an object, (when *sealed*) fails its ``sha256``, makes
    ``check(record)`` raise :class:`ValueError`, or lacks its trailing
    newline; that line and every line after it are dropped.  A writer
    mid-append can therefore never expose a partial record to a
    concurrent reader.  A missing file reads as an empty stream.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return Scan([], 0, 0, None, None)
    lines = data.split(b"\n")
    last = len(lines) - 1
    records: list[dict] = []
    trusted = 0
    for index, raw in enumerate(lines):
        if raw.strip():
            try:
                # An undecodable byte becomes U+FFFD: it breaks the JSON
                # or, inside a string, the seal.
                doc = json.loads(raw.decode("utf-8", errors="replace"))
            except (ValueError, RecursionError):
                reason = "is not valid JSON (torn write?)"
            else:
                reason = _fault(doc, check, sealed)
            if reason is None and index == last:
                reason = "is missing its trailing newline (torn write?)"
            if reason is not None:
                dropped = sum(1 for line in lines[index:] if line.strip())
                return Scan(records, dropped, trusted, index + 1, reason)
            records.append(doc)
        if index < last:
            trusted += len(raw) + 1
    return Scan(records, 0, trusted, None, None)


class RecordLog:
    """One append-only NDJSON stream: the shared reader and healing appender.

    *check* raises :class:`ValueError` on a record that does not belong
    to the stream; it guards both directions, so the log never writes a
    record its reader would reject.  A *sealed* log stamps each record
    with :func:`seal_record` and trusts only intact seals; a *durable*
    log fsyncs every append.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        check,
        *,
        sealed: bool = False,
        durable: bool = True,
    ) -> None:
        self.path = os.fspath(path)
        self.check = check
        self.sealed = sealed
        self.durable = durable
        # The file length this log last saw holding exactly its intact
        # prefix; ``None`` until the first read or append.  While the
        # disk still says so, an append needs no rescan.  A stale value
        # only costs one.
        self._end: int | None = None
        self._lock = threading.Lock()

    def read(self) -> Scan:
        scan = read_ndjson(self.path, self.check, self.sealed)
        self._end = scan.trusted
        return scan

    def _trusted(self) -> int:
        return read_ndjson(self.path, self.check, self.sealed).trusted

    def _line(self, record: dict) -> tuple[dict, str]:
        if self.sealed:
            record = seal_record(record)
        self.check(record)
        return record, json.dumps(record, sort_keys=True) + "\n"

    def append(self, record: dict) -> dict:
        """Check (and seal) *record*, then append it; returns what was written."""
        record, line = self._line(record)
        with self._lock:
            self._end = fsync_append_text(
                self.path,
                line,
                expect=self._end,
                heal=self._trusted,
                sync=self.durable,
            )
        return record

    def rewrite(self, records) -> None:
        """Replace the whole stream with *records* in one atomic write."""
        text = "".join(self._line(record)[1] for record in records)
        with self._lock:
            atomic_write_text(self.path, text)
            self._end = len(text.encode("utf-8"))


def sha256_text(text: str) -> str:
    """Hex SHA-256 digest of *text* (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str | os.PathLike) -> str:
    """Hex SHA-256 digest of the file at *path*."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
