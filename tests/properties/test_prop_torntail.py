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
tests the journal already has.  :class:`TestChopThenAppend` extends it
to the writers of all six streams: after a chop at any byte, one
append through the stream's own writer must leave the intact prefix
plus the new record — never a line glued onto a torn one.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.campaign.journal as journal_mod
import repro.service.state as state_mod
import repro.sim.memostore as memostore_mod

from repro.campaign.journal import Journal
from repro.ioutils import RecordLog, read_ndjson, record_intact, seal_record
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventBus,
    read_events,
    validate_event,
)
from repro.sim.memo import content_digest
from repro.sim.memostore import INDEX_VERSION, MemoStore, read_index
from repro.obs.requests import RequestLog, read_requests, validate_request_record
from repro.service.state import QUEUE_VERSION, ServiceState, normalize_request


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


# ----------------------------------------------------------------------
# chop, then append through the stream's own writer
# ----------------------------------------------------------------------


def _shed(log, index):
    return log.append(
        "request-shed",
        trace_id=f"{index:032x}",
        request=f"r-{index}",
        tenant="t",
        endpoint="bench:table4",
        reason="tenant-rate",
    )


_KEYS = [content_digest(("k", i)) for i in range(3)]
_BODY = {"kind": "bench", "command": "table4"}


class _Journal:
    def seed(self, d):
        j = Journal(d / "journal.jsonl")
        j.append("campaign-start", spec="smoke", seed=0)
        j.append("unit-start", unit="a")
        j.append("unit-done", unit="a", digest="d" * 64, status="OK")
        return j.path

    def open(self, d):
        return Journal.load(d / "journal.jsonl")

    def append(self, writer):
        return writer.append("resume", skipped=["a"], rerun=[])

    def read(self, path):
        return Journal.load(path, strict=True).records


class _Index:
    def seed(self, d):
        store = MemoStore(d / "cache")
        for i, key in enumerate(_KEYS):
            store.put(key, {"i": i})
        return store.index_path

    def open(self, d):
        return MemoStore(d / "cache")

    def append(self, writer):
        assert writer.get(_KEYS[0]) == {"i": 0}
        return seal_record({"v": INDEX_VERSION, "op": "touch", "key": _KEYS[0]})

    def read(self, path):
        return read_index(path)[0]


class _Queue:
    def seed(self, d):
        state = ServiceState(d / "svc")
        body = normalize_request(_BODY)
        state.journal_accepted("r-0", "t", body)
        state.journal_accepted("r-1", "t", body)
        state.journal_done("r-0", "done", "d" * 64)
        return state.queue_path

    def open(self, d):
        return ServiceState(d / "svc")

    def append(self, writer):
        body = normalize_request(_BODY)
        writer.journal_accepted("r-new", "t", body)
        return seal_record(
            {"v": QUEUE_VERSION, "op": "accepted", "request_id": "r-new",
             "tenant": "t", "request": body}
        )

    def read(self, path):
        return ServiceState(os.path.dirname(path)).read_queue()[0]


class _Events:
    def seed(self, d):
        bus = EventBus(d)
        bus.emit("campaign-start", sim_us=0.0, spec="smoke", spec_digest="x",
                 scenario=None, seed=0, units=1)
        bus.emit("unit-committed", sim_us=1.0, unit="a", status="OK",
                 digest="d" * 64, simulated_s=1e-6)
        bus.emit("campaign-done", sim_us=1.0, exit=0)
        return bus.events_path

    def open(self, d):
        return EventBus(d)

    def append(self, writer):
        return writer.emit("resume", sim_us=1.0, skipped=1, rerun=0)

    def read(self, path):
        return read_events(path)


class _Live(_Events):
    def seed(self, d):
        bus = EventBus(d)
        for index in range(3):
            bus.live("unit-dispatched", unit=f"u{index}", index=index)
        return bus.live_path

    def append(self, writer):
        return writer.live("pool-degraded")


class _Requests:
    def seed(self, d):
        log = RequestLog(d)
        for index in range(3):
            _shed(log, index)
        return log.path

    def open(self, d):
        return RequestLog(d)

    def append(self, writer):
        return _shed(writer, 99)

    def read(self, path):
        return read_requests(path)


STREAMS = {
    "journal": _Journal(),
    "index": _Index(),
    "queue": _Queue(),
    "events": _Events(),
    "live": _Live(),
    "requests": _Requests(),
}


class TestChopThenAppend:
    """A writer opened on the whole stream finds it cut at any byte (a
    crashed sibling appender, a power cut): its next append must heal,
    not extend the torn line."""

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_every_chop_then_one_append(self, name, tmp_path):
        stream = STREAMS[name]
        path = stream.seed(tmp_path)
        data = open(path, "rb").read()
        full = stream.read(path)
        assert len(full) == 3
        for chop in _chop_points(data):
            with open(path, "wb") as fh:
                fh.write(data)
            writer = stream.open(tmp_path)
            with open(path, "wb") as fh:
                fh.write(data[:chop])
            new = stream.append(writer)
            expected = full[: _intact_prefix_lines(data, chop)] + [new]
            assert stream.read(path) == expected, f"chop at byte {chop}"


# ----------------------------------------------------------------------
# byte flips, duplicated and reordered lines
# ----------------------------------------------------------------------

#: Each stream's check and whether it is sealed: what its reader passes
#: to the shared :func:`repro.ioutils.read_ndjson`.
CHECKS = {
    "journal": (journal_mod._check_record, True),
    "index": (memostore_mod._check_index_record, True),
    "queue": (state_mod._check_queue_record, True),
    "events": (validate_event, False),
    "live": (validate_event, False),
    "requests": (validate_request_record, False),
}

#: Derandomized, so tier-1 runs the same examples every time (~1 s).
TIER1 = settings(
    max_examples=300, derandomize=True, database=None, deadline=None
)

_EDIT = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("dup"), st.integers(0, 1 << 16), st.just(0)),
    st.tuples(st.just("swap"), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
)


@pytest.fixture(scope="module")
def clean_streams(tmp_path_factory):
    """Each stream's clean bytes and records, written by its own writer."""
    streams = {}
    for name, stream in STREAMS.items():
        path = stream.seed(tmp_path_factory.mktemp(name))
        data = open(path, "rb").read()
        streams[name] = (data, stream.read(path))
    return streams


def _mutate(data: bytes, edits) -> bytes:
    for op, a, b in edits:
        if op == "flip":
            buf = bytearray(data)
            buf[a % len(buf)] ^= b
            data = bytes(buf)
            continue
        lines = data.splitlines(keepends=True)
        i, j = a % len(lines), b % len(lines)
        if op == "dup":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        data = b"".join(lines)
    return data


class TestByteFlips:
    """Item 6's on-disk slice: whatever the damage, the shared reader
    never raises, never returns a record its stream's check rejects,
    never returns an altered sealed record, and trusts exactly the
    bytes its records came from — so the healing append that follows
    leaves the prefix plus the new record."""

    @TIER1
    @given(name=st.sampled_from(sorted(CHECKS)), edits=st.lists(_EDIT, min_size=1, max_size=4))
    def test_reader_trusts_only_intact_records(
        self, clean_streams, tmp_path_factory, name, edits
    ):
        data, originals = clean_streams[name]
        check, sealed = CHECKS[name]
        damaged = _mutate(data, edits)
        path = tmp_path_factory.getbasetemp() / f"flip-{name}.ndjson"
        path.write_bytes(damaged)

        scan = read_ndjson(path, check, sealed)
        for record in scan.records:
            check(record)
            if sealed:
                assert record_intact(record) and record in originals
        assert (scan.reason is None) == (scan.dropped == 0)
        path.write_bytes(damaged[: scan.trusted])
        assert read_ndjson(path, check, sealed) == (
            scan.records, 0, scan.trusted, None, None
        )

        path.write_bytes(damaged)
        body = {k: v for k, v in originals[0].items() if k != "sha256"}
        new = RecordLog(path, check, sealed=sealed, durable=False).append(body)
        assert read_ndjson(path, check, sealed).records == scan.records + [new]
