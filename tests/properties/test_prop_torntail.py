"""Torn-tail property: every byte-level chop of a stream reads cleanly.

A concurrent reader (``campaign watch`` tailing ``live.ndjson``, a
memostore recovering its index while yesterday's daemon was
SIGKILLed mid-append) can observe an NDJSON file cut at *any* byte
offset.  The property, swept exhaustively over every chop point of a
representative stream, is:

* the reader never raises;
* it returns exactly the records whose full line (including the
  terminating newline) survived the chop — the longest intact prefix,
  never a partial or reassembled record;
* for the sealed readers, a chop is indistinguishable from a torn
  write: the dropped-tail count matches what was cut.

This is the byte-level generalisation of the line-level torn-tail
tests the journal already has, and it covers the three readers the
service daemon depends on: the live event stream, the memostore index
journal, and the service queue journal.
"""

import json

import pytest

from repro.ioutils import seal_record
from repro.obs.events import EVENT_SCHEMA_VERSION, EventBus, read_events
from repro.sim.memo import content_digest
from repro.sim.memostore import INDEX_VERSION, MemoStore, read_index
from repro.obs.requests import RequestLog, read_requests
from repro.service.state import QUEUE_VERSION, ServiceState


def _chop_points(data: bytes) -> range:
    return range(len(data) + 1)


def _intact_prefix_lines(data: bytes, chop: int) -> int:
    """Lines wholly (newline included) inside ``data[:chop]``."""
    return data[:chop].count(b"\n")


class TestLiveStreamChopSweep:
    def test_every_chop_reads_longest_intact_prefix(self, tmp_path):
        bus = EventBus(tmp_path)
        for index in range(6):
            bus.live("unit-dispatched", index=index, unit=f"u{index}")
        data = open(bus.live_path, "rb").read()
        full = read_events(bus.live_path)
        assert len(full) == 6
        chopped = tmp_path / "chopped.ndjson"
        for chop in _chop_points(data):
            chopped.write_bytes(data[:chop])
            records = read_events(chopped)
            expected = _intact_prefix_lines(data, chop)
            assert records == full[:expected], f"chop at byte {chop}"

    def test_garbage_tail_ends_prefix(self, tmp_path):
        bus = EventBus(tmp_path)
        bus.live("pool-degraded")
        with open(bus.live_path, "ab") as fh:
            fh.write(b"\x00\xffnot json\n")
        records = read_events(bus.live_path)
        assert len(records) == 1
        assert records[0]["type"] == "pool-degraded"


class TestMemostoreIndexChopSweep:
    def test_every_chop_recovers_without_error(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        keys = [content_digest(("k", i)) for i in range(5)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        data = open(store.index_path, "rb").read()
        full, dropped = read_index(store.index_path)
        assert dropped == 0 and len(full) == 5
        chopped = tmp_path / "chopped.jsonl"
        for chop in _chop_points(data):
            chopped.write_bytes(data[:chop])
            records, _ = read_index(chopped)
            expected = _intact_prefix_lines(data, chop)
            assert records == full[:expected], f"chop at byte {chop}"

    def test_store_survives_chopped_index_at_every_point(self, tmp_path):
        """A SIGKILL mid-index-append never loses objects on disk."""
        seed_root = tmp_path / "seed"
        store = MemoStore(seed_root)
        keys = [content_digest(("k", i)) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"i": i})
        data = open(store.index_path, "rb").read()
        # Sweep a coarse grid (every 7 bytes) of index truncations: the
        # rebuilt store must always serve every object.
        for chop in range(0, len(data) + 1, 7):
            with open(store.index_path, "wb") as fh:
                fh.write(data[:chop])
            recovered = MemoStore(seed_root)
            for i, key in enumerate(keys):
                assert recovered.get(key) == {"i": i}, f"chop at byte {chop}"

    def test_checksum_flip_ends_prefix(self, tmp_path):
        rec1 = seal_record({"v": INDEX_VERSION, "op": "put", "key": "a" * 64})
        rec2 = seal_record({"v": INDEX_VERSION, "op": "put", "key": "b" * 64})
        rec2["sha256"] = "0" * 64  # forged seal
        path = tmp_path / "index.jsonl"
        path.write_text(
            json.dumps(rec1, sort_keys=True) + "\n"
            + json.dumps(rec2, sort_keys=True) + "\n"
        )
        records, dropped = read_index(path)
        assert [r["key"] for r in records] == ["a" * 64]
        assert dropped == 1


class TestRequestLogChopSweep:
    def _seed_log(self, directory) -> RequestLog:
        log = RequestLog(directory)
        for index in range(5):
            log.append(
                "request-span",
                trace_id=f"{index:032x}",
                span_id=f"{index:016x}",
                request=f"r-{index}",
                tenant=f"tenant-{index % 2}",
                endpoint="bench:table4",
                status="done",
                cached=bool(index % 2),
                latency_s=0.01 * (index + 1),
                phases={"queue": 0.001, "execute": 0.009},
            )
        log.append(
            "request-shed",
            trace_id="f" * 32,
            request="r-shed",
            tenant="tenant-0",
            endpoint="bench:table4",
            reason="tenant-rate",
        )
        return log

    def test_every_chop_reads_longest_intact_prefix(self, tmp_path):
        log = self._seed_log(tmp_path)
        data = open(log.path, "rb").read()
        full = read_requests(log.path)
        assert len(full) == 6
        chopped = tmp_path / "chopped.ndjson"
        for chop in _chop_points(data):
            chopped.write_bytes(data[:chop])
            records = read_requests(chopped)
            expected = _intact_prefix_lines(data, chop)
            assert records == full[:expected], f"chop at byte {chop}"

    def test_schema_invalid_record_ends_prefix(self, tmp_path):
        """Unlike raw NDJSON readers, the request reader also stops at
        the first record that parses but fails schema validation — a
        half-migrated or corrupted stream never feeds garbage into the
        RED fold."""
        log = self._seed_log(tmp_path)
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"v": 1, "type": "request-span", "ts": 0.0,
                     "trace_id": "a" * 32, "span_id": "b" * 16,
                     "request": "r-bad", "tenant": "t", "endpoint": "e",
                     "status": "done", "cached": False,
                     "latency_s": 0.1, "phases": {"bogus": 0.1}}
                )
                + "\n"
            )
            fh.write(
                json.dumps(
                    {"v": 1, "type": "request-shed", "ts": 0.0,
                     "trace_id": "c" * 32, "request": "r-after",
                     "tenant": "t", "endpoint": "e", "reason": "x"}
                )
                + "\n"
            )
        records = read_requests(log.path)
        assert len(records) == 6
        assert all(r["request"] != "r-bad" for r in records)
        assert all(r["request"] != "r-after" for r in records)

    def test_garbage_tail_ends_prefix(self, tmp_path):
        log = self._seed_log(tmp_path)
        with open(log.path, "ab") as fh:
            fh.write(b"\x00\xffnot json\n")
        records = read_requests(log.path)
        assert len(records) == 6


class TestQueueJournalChopSweep:
    def test_every_chop_yields_valid_recovery(self, tmp_path):
        state = ServiceState(tmp_path / "svc")
        from repro.service.state import normalize_request

        body = normalize_request({"command": "table4"})
        for i in range(4):
            state.journal_accepted(f"r-{i}", "default", body)
        state.journal_done("r-0", "done", "d" * 64)
        data = open(state.queue_path, "rb").read()
        for chop in _chop_points(data):
            root = tmp_path / f"chop-{chop}"
            chopped = ServiceState(root)
            with open(chopped.queue_path, "wb") as fh:
                fh.write(data[:chop])
            survivors = chopped.recover()
            ids = [s["request_id"] for s in survivors]
            # Recovery must be a prefix of the true backlog story:
            # never a duplicate, never an unknown id, never r-0 after
            # its 'done' record became visible.
            assert len(ids) == len(set(ids))
            assert set(ids) <= {f"r-{i}" for i in range(4)}
            if chop == len(data):
                assert ids == ["r-1", "r-2", "r-3"]

    def test_recovery_compaction_is_itself_chop_safe(self, tmp_path):
        """recover() rewrites the journal; the rewrite must be sealed
        NDJSON a second recovery reads identically."""
        state = ServiceState(tmp_path / "svc")
        from repro.service.state import normalize_request

        body = normalize_request({"command": "table1"})
        for i in range(3):
            state.journal_accepted(f"r-{i}", "t", body)
        first = [s["request_id"] for s in state.recover()]
        second = [s["request_id"] for s in state.recover()]
        assert first == second == ["r-0", "r-1", "r-2"]
