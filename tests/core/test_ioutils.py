"""Bounded IO retry: transient disk faults absorbed byte-exactly."""

import errno
import os
import sys
import threading
import time

import pytest

import repro.ioutils as ioutils
from repro.ioutils import (
    IO_RETRY_ATTEMPTS,
    RecordLog,
    atomic_write_text,
    fsync_append_text,
    io_retry_count,
    read_ndjson,
    reset_io_retry_count,
    set_io_fault_gate,
)


@pytest.fixture(autouse=True)
def _clean_gate():
    reset_io_retry_count()
    yield
    set_io_fault_gate(None)
    reset_io_retry_count()


def _fail_first(n, err=errno.ENOSPC):
    """A gate failing the first *n* attempts of every op."""

    def gate(op, path, attempt):
        if attempt <= n:
            raise OSError(err, f"injected ({op} attempt {attempt})", path)

    return gate


class TestRetryOnTransientFaults:
    def test_atomic_write_survives_transient_enospc(self, tmp_path):
        path = tmp_path / "out.txt"
        set_io_fault_gate(_fail_first(2))
        atomic_write_text(path, "payload\n")
        assert path.read_text() == "payload\n"
        assert io_retry_count() == 2

    def test_append_survives_transient_enospc(self, tmp_path):
        path = tmp_path / "log.jsonl"
        fsync_append_text(path, "one\n")
        set_io_fault_gate(_fail_first(1))
        fsync_append_text(path, "two\n")
        assert path.read_text() == "one\ntwo\n"
        assert io_retry_count() == 1

    def test_edquot_is_retryable_too(self, tmp_path):
        path = tmp_path / "out.txt"
        set_io_fault_gate(_fail_first(1, errno.EDQUOT))
        atomic_write_text(path, "x")
        assert path.read_text() == "x"

    def test_persistent_fault_escapes_after_budget(self, tmp_path):
        path = tmp_path / "out.txt"
        set_io_fault_gate(_fail_first(IO_RETRY_ATTEMPTS + 1))
        with pytest.raises(OSError) as excinfo:
            atomic_write_text(path, "x")
        assert excinfo.value.errno == errno.ENOSPC
        assert io_retry_count() == IO_RETRY_ATTEMPTS - 1

    def test_non_retryable_errno_escapes_immediately(self, tmp_path):
        path = tmp_path / "out.txt"
        set_io_fault_gate(_fail_first(1, errno.EACCES))
        with pytest.raises(OSError) as excinfo:
            atomic_write_text(path, "x")
        assert excinfo.value.errno == errno.EACCES
        assert io_retry_count() == 0


class TestNoTornBytes:
    def test_partial_append_is_truncated_before_retry(self, tmp_path):
        # Simulate an append that landed partial bytes before failing:
        # the retry must truncate back to the pre-append length, never
        # duplicate or interleave.
        path = tmp_path / "log.jsonl"
        fsync_append_text(path, "intact\n")
        fired = {"n": 0}

        def torn_gate(op, p, attempt):
            if attempt == 1:
                fired["n"] += 1
                with open(p, "a", encoding="utf-8") as fh:
                    fh.write("TORN")
                raise OSError(errno.ENOSPC, "injected mid-append", p)

        set_io_fault_gate(torn_gate)
        fsync_append_text(path, "next\n")
        assert fired["n"] == 1
        assert path.read_text() == "intact\nnext\n"

    def test_concurrent_append_survives_retry_truncation(self, tmp_path):
        # A's first attempt lands partial bytes and fails; B appends
        # concurrently.  A's retry truncates back to its pre-append
        # base — the file lock must keep B outside that window, or the
        # truncation would destroy B's committed record.
        path = tmp_path / "log.jsonl"
        fsync_append_text(path, "intact\n")
        injected = threading.Event()
        proceed = threading.Event()

        def gate(op, p, attempt):
            if op == "append" and not injected.is_set():
                injected.set()
                with open(p, "a", encoding="utf-8") as fh:
                    fh.write("PART")
                # Hold A's failure open until B has had time to try.
                proceed.wait(5.0)
                raise OSError(errno.ENOSPC, "injected mid-append", p)

        set_io_fault_gate(gate)
        writer_a = threading.Thread(
            target=fsync_append_text, args=(path, "AAAA\n")
        )
        writer_a.start()
        assert injected.wait(5.0)
        writer_b = threading.Thread(
            target=fsync_append_text, args=(path, "BBBB\n")
        )
        writer_b.start()
        time.sleep(0.2)  # let B reach (and block on) the file lock
        proceed.set()
        writer_a.join(timeout=5.0)
        writer_b.join(timeout=5.0)
        assert not writer_a.is_alive() and not writer_b.is_alive()
        # B could not interleave with A's failed attempt, so both
        # records are intact and in lock-acquisition order.
        assert path.read_text() == "intact\nAAAA\nBBBB\n"

    def test_failed_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        set_io_fault_gate(_fail_first(IO_RETRY_ATTEMPTS + 1))
        with pytest.raises(OSError):
            atomic_write_text(path, "x")
        set_io_fault_gate(None)
        assert os.listdir(tmp_path) == []


def _check_n(doc):
    if not isinstance(doc.get("n"), int):
        raise ValueError("has no integer n")


class TestRecordLogConcurrency:
    def test_healing_never_cuts_a_sibling_appenders_record(self, tmp_path):
        # Two logs on one file (a sibling process's writer) and more
        # threads than cores: each log's cached length goes stale under
        # the other's appends, and every heal must rescan and keep
        # the sibling's intact records.
        path = tmp_path / "log.ndjson"
        logs = [RecordLog(path, _check_n, durable=False) for _ in range(2)]
        per_thread = 50

        def writer(log, base):
            for i in range(per_thread):
                log.append({"n": base + i})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=writer, args=(logs[k % 2], k * 1000))
                for k in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        scan = read_ndjson(path, _check_n)
        assert scan.dropped == 0 and scan.trusted == os.path.getsize(path)
        assert sorted(r["n"] for r in scan.records) == sorted(
            k * 1000 + i for k in range(6) for i in range(per_thread)
        )


class TestBackoffAndGateProtocol:
    def test_backoff_doubles_per_retry(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(ioutils, "_sleep", sleeps.append)
        set_io_fault_gate(_fail_first(3))
        atomic_write_text(tmp_path / "out.txt", "x")
        assert len(sleeps) == 3
        assert sleeps[1] == pytest.approx(sleeps[0] * 2)
        assert sleeps[2] == pytest.approx(sleeps[0] * 4)

    def test_gate_sees_op_kind_and_one_based_attempts(self, tmp_path):
        seen = []

        def recording_gate(op, path, attempt):
            seen.append((op, attempt))

        set_io_fault_gate(recording_gate)
        atomic_write_text(tmp_path / "a.txt", "x")
        fsync_append_text(tmp_path / "b.txt", "y")
        assert seen == [("write", 1), ("append", 1)]

    def test_set_gate_returns_previous(self):
        first = _fail_first(0)
        assert set_io_fault_gate(first) is None
        assert set_io_fault_gate(None) is first
