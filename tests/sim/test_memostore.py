"""MemoStore: persistence, LRU eviction, quarantine, crash recovery.

The store is the service's memory across restarts; these tests pin the
failure-first contract — corruption is quarantined not raised, the
index journal tolerates torn tails and disagreement with the disk, and
transient ENOSPC on the index append is absorbed by the shared bounded
retry (the ``io-enospc`` drill pointed at the cache).
"""

import errno
import json
import os

import pytest

from repro.ioutils import seal_record, set_io_fault_gate
from repro.sim.memo import content_digest
from repro.sim.memostore import MemoStore, read_index


def _digest(i: int) -> str:
    return content_digest(("key", i))


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        store.put(_digest(1), {"answer": 42})
        assert store.get(_digest(1)) == {"answer": 42}
        assert store.stats()["hits"] == 1

    def test_missing_key_is_miss(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        assert store.get(_digest(9)) is None
        assert store.stats()["misses"] == 1

    def test_none_rejected(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        with pytest.raises(ValueError, match="miss sentinel"):
            store.put(_digest(1), None)

    def test_survives_reopen(self, tmp_path):
        MemoStore(tmp_path / "cache").put(_digest(1), [1, 2, 3])
        reopened = MemoStore(tmp_path / "cache")
        assert reopened.get(_digest(1)) == [1, 2, 3]
        assert len(reopened) == 1

    def test_put_is_idempotent(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        store.put(_digest(1), "v")
        store.put(_digest(1), "v")
        assert len(store) == 1


class TestEviction:
    def test_lru_bound_holds(self, tmp_path):
        store = MemoStore(tmp_path / "cache", max_entries=3)
        for i in range(5):
            store.put(_digest(i), i)
        assert len(store) == 3
        assert store.stats()["evictions"] == 2
        # The two oldest are gone, from memory AND disk.
        assert store.get(_digest(0)) is None
        assert not os.path.exists(store.object_path(_digest(1)))
        assert store.get(_digest(4)) == 4

    def test_get_refreshes_recency(self, tmp_path):
        store = MemoStore(tmp_path / "cache", max_entries=2)
        store.put(_digest(0), 0)
        store.put(_digest(1), 1)
        assert store.get(_digest(0)) == 0  # 0 is now hottest
        store.put(_digest(2), 2)  # evicts 1, not 0
        assert store.get(_digest(0)) == 0
        assert store.get(_digest(1)) is None

    def test_recency_survives_restart(self, tmp_path):
        store = MemoStore(tmp_path / "cache", max_entries=2)
        store.put(_digest(0), 0)
        store.put(_digest(1), 1)
        store.get(_digest(0))
        reopened = MemoStore(tmp_path / "cache", max_entries=2)
        reopened.put(_digest(2), 2)
        assert reopened.get(_digest(0)) == 0
        assert reopened.get(_digest(1)) is None


class TestQuarantine:
    def test_garbage_object_quarantined_not_raised(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        store.put(_digest(1), {"v": 1})
        with open(store.object_path(_digest(1)), "w") as fh:
            fh.write("not json at all {{{")
        assert store.get(_digest(1)) is None
        assert store.stats()["quarantined"] == 1
        assert _digest(1) not in store
        assert len(os.listdir(store.quarantine_dir)) == 1

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        store.put(_digest(1), {"v": 1})
        path = store.object_path(_digest(1))
        doc = json.load(open(path))
        doc["value"] = {"v": 2}  # valid JSON, wrong seal
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert store.get(_digest(1)) is None
        assert store.stats()["quarantined"] == 1

    def test_recompute_after_quarantine(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        store.put(_digest(1), "good")
        with open(store.object_path(_digest(1)), "w") as fh:
            fh.write("X")
        assert store.get(_digest(1)) is None
        store.put(_digest(1), "good")  # the caller's recompute path
        assert store.get(_digest(1)) == "good"

    def test_quarantine_observer_called(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        seen = []
        store.on_quarantine = seen.append
        store.put(_digest(1), "v")
        with open(store.object_path(_digest(1)), "w") as fh:
            fh.write("X")
        store.get(_digest(1))
        assert seen == [_digest(1)]

    def test_failing_observer_does_not_fail_read(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        store.on_quarantine = lambda key: 1 / 0
        store.put(_digest(1), "v")
        with open(store.object_path(_digest(1)), "w") as fh:
            fh.write("X")
        assert store.get(_digest(1)) is None


class TestRecovery:
    def test_orphan_objects_adopted(self, tmp_path):
        """Crash between object write and index append: object survives."""
        store = MemoStore(tmp_path / "cache")
        store.put(_digest(1), "indexed")
        # Simulate the torn second phase: write the object by hand.
        orphan = _digest(2)
        path = store.object_path(orphan)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(seal_record({"key": orphan, "value": "orphan"}), fh)
        reopened = MemoStore(tmp_path / "cache")
        assert reopened.get(orphan) == "orphan"
        assert len(reopened) == 2

    def test_stale_index_entry_dropped(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        store.put(_digest(1), "v")
        os.unlink(store.object_path(_digest(1)))
        reopened = MemoStore(tmp_path / "cache")
        assert len(reopened) == 0
        assert _digest(1) not in reopened

    def test_torn_index_tail_dropped(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        store.put(_digest(1), "v")
        with open(store.index_path, "a") as fh:
            fh.write('{"v": 1, "op": "put", "key": "torn')
        reopened = MemoStore(tmp_path / "cache")
        assert reopened.get(_digest(1)) == "v"

    def test_index_compaction_bounds_journal(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        store.put(_digest(1), "v")
        for _ in range(100):
            store.get(_digest(1))
        records, dropped = read_index(store.index_path)
        assert dropped == 0
        # Compaction keeps the journal a small multiple of entry count.
        assert len(records) <= 16

    def test_missing_index_rebuilt_from_objects(self, tmp_path):
        store = MemoStore(tmp_path / "cache")
        for i in range(3):
            store.put(_digest(i), i)
        os.unlink(store.index_path)
        reopened = MemoStore(tmp_path / "cache")
        assert len(reopened) == 3
        assert reopened.get(_digest(2)) == 2


class TestEnospcDrill:
    """Satellite: the bounded ENOSPC retry covers memostore writes."""

    def test_transient_enospc_absorbed(self, tmp_path):
        failures = {"remaining": 2}

        def gate(op, path, attempt):
            if "index.jsonl" in str(path) and failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise OSError(errno.ENOSPC, "injected", str(path))

        store = MemoStore(tmp_path / "cache")
        set_io_fault_gate(gate)
        try:
            store.put(_digest(1), "squeezed")
        finally:
            set_io_fault_gate(None)
        assert failures["remaining"] == 0
        assert store.get(_digest(1)) == "squeezed"
        # The retried append left no torn or duplicate records.
        records, dropped = read_index(store.index_path)
        assert dropped == 0
        assert [r["key"] for r in records if r["op"] == "put"] == [_digest(1)]

    def test_persistent_enospc_surfaces(self, tmp_path):
        def gate(op, path, attempt):
            raise OSError(errno.ENOSPC, "disk full forever", str(path))

        store = MemoStore(tmp_path / "cache")
        set_io_fault_gate(gate)
        try:
            with pytest.raises(OSError):
                store.put(_digest(1), "v")
        finally:
            set_io_fault_gate(None)

