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
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import time

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
    "read_sealed_ndjson",
    "record_intact",
    "reset_io_retry_count",
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


def fsync_append_text(path: str | os.PathLike, text: str) -> int:
    """Append *text* to *path* with an fsync; returns the bytes written.

    Unlike :func:`atomic_write_text` this is O(len(text)), not O(file):
    the write lands at the end of the existing content and only the new
    bytes hit the disk.  A crash mid-append can leave a *torn tail* — a
    partial last line — which is why every appended record must carry
    its own checksum and readers must tolerate (and quarantine) a
    trailing record that fails it.  The containing directory is not
    fsynced: the file itself already exists, so no directory entry
    changes.

    Transient disk faults are retried; before each retry the file is
    truncated back to its pre-append length, so a partially landed
    attempt is never duplicated.  An exclusive ``flock`` is held for
    the whole append-plus-retry sequence, so a concurrent appender (a
    thread or another process sharing the journal) can never land a
    record inside the truncation window and have it destroyed — its
    append simply waits its turn.
    """
    path = os.fspath(path)
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        base = os.fstat(fd).st_size

        def _attempt() -> int:
            if os.fstat(fd).st_size > base:
                os.ftruncate(fd, base)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
            return len(data)

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


def read_sealed_ndjson(path: str | os.PathLike, accept=None) -> tuple[list[dict], int]:
    """Decode a sealed-record NDJSON file, keeping the longest intact prefix.

    Returns ``(records, dropped)``.  The trusted prefix ends at the
    first line that is torn (no trailing newline), not JSON, not a
    sealed-intact object, or rejected by *accept*; that line and
    everything after it count as *dropped*.  A writer mid-append can
    therefore never expose a partial record to a concurrent reader —
    the contract the torn-tail property suite enforces byte by byte.
    A missing file reads as an empty stream.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return [], 0
    # errors="replace": undecodable bytes fail json.loads and end the
    # trusted prefix rather than raising out of the reader.
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        raw_lines = fh.read().splitlines(keepends=True)
    records: list[dict] = []
    for lineno, raw in enumerate(raw_lines):
        line = raw.strip()
        if not line:
            continue
        if not raw.endswith("\n"):
            break
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            break
        if not isinstance(doc, dict) or not record_intact(doc):
            break
        if accept is not None and not accept(doc):
            break
        records.append(doc)
    else:
        return records, 0
    return records, sum(1 for l in raw_lines[lineno:] if l.strip())


def sha256_text(text: str) -> str:
    """Hex SHA-256 digest of *text* (UTF-8)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str | os.PathLike) -> str:
    """Hex SHA-256 digest of the file at *path*."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
