"""Write-ahead journal: checksums, tail recovery, atomic healing."""

import json

import pytest

import repro.ioutils as ioutils
from repro.campaign.journal import WRITE_VERSION, Journal
from repro.errors import CampaignCorruptError
from repro.ioutils import record_intact, seal_record


@pytest.fixture
def path(tmp_path):
    return tmp_path / "journal.jsonl"


class TestRecordIntegrity:
    def test_sealed_record_is_intact(self):
        rec = seal_record({"v": 1, "type": "unit-start", "unit": "x"})
        assert record_intact(rec)
        assert len(rec["sha256"]) == 64

    def test_tampered_record_detected(self):
        rec = seal_record({"v": 1, "type": "unit-start", "unit": "x"})
        rec["unit"] = "y"
        assert not record_intact(rec)

    def test_checksum_excludes_itself(self):
        rec = seal_record({"v": 1, "type": "resume"})
        resealed = seal_record(dict(rec))
        assert resealed["sha256"] == rec["sha256"]


class TestAppendAndLoad:
    def test_roundtrip(self, path):
        j = Journal(path)
        j.append("campaign-start", spec="smoke", seed=0)
        j.append("unit-start", unit="a")
        j.append("unit-done", unit="a", digest="d" * 64, status="OK")
        loaded = Journal.load(path)
        assert len(loaded) == 3
        assert loaded.dropped_tail == 0
        assert [r["type"] for r in loaded.records] == [
            "campaign-start",
            "unit-start",
            "unit-done",
        ]

    def test_unknown_record_type_rejected_at_append(self, path):
        with pytest.raises(ValueError):
            Journal(path).append("nonsense")

    def test_missing_file_loads_empty(self, path):
        j = Journal.load(path)
        assert len(j) == 0 and j.dropped_tail == 0

    def test_of_type_filters(self, path):
        j = Journal(path)
        j.append("unit-start", unit="a")
        j.append("unit-done", unit="a", digest="d", status="OK")
        j.append("unit-start", unit="b")
        assert [r["unit"] for r in j.of_type("unit-start")] == ["a", "b"]


class TestCorruptTail:
    def _journal_with_three(self, path):
        j = Journal(path)
        j.append("campaign-start", spec="smoke", seed=0)
        j.append("unit-done", unit="a", digest="d" * 64, status="OK")
        j.append("unit-done", unit="b", digest="e" * 64, status="OK")
        return j

    def test_truncated_last_record_is_detected_and_dropped(self, path):
        j = self._journal_with_three(path)
        j.truncate_tail()
        loaded = Journal.load(path)
        assert len(loaded) == 2
        assert loaded.dropped_tail == 1
        # Only the torn record is lost; the prefix survives verbatim.
        assert [r["unit"] for r in loaded.of_type("unit-done")] == ["a"]

    def test_strict_load_raises_on_torn_record(self, path):
        j = self._journal_with_three(path)
        j.truncate_tail()
        with pytest.raises(CampaignCorruptError):
            Journal.load(path, strict=True)

    def test_flipped_byte_mid_journal_drops_suffix(self, path):
        self._journal_with_three(path)
        lines = path.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["digest"] = "f" * 64  # checksum now wrong
        lines[1] = json.dumps(doc, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        loaded = Journal.load(path)
        assert len(loaded) == 1
        assert loaded.dropped_tail == 2

    def test_undecodable_torn_tail_is_dropped(self, path):
        self._journal_with_three(path)
        with open(path, "ab") as fh:
            fh.write(b'{"v":2,"type":"unit-start","unit":"x\xe2\x82')
        loaded = Journal.load(path)
        assert len(loaded) == 3
        assert loaded.dropped_tail == 1
        with pytest.raises(CampaignCorruptError, match=r":4: record is not valid"):
            Journal.load(path, strict=True)
        loaded.append("resume", skipped=["a", "b"], rerun=[])
        assert len(Journal.load(path, strict=True)) == 4

    def test_flipped_high_byte_mid_journal_fails_the_checksum(self, path):
        self._journal_with_three(path)
        lines = path.read_bytes().splitlines(keepends=True)
        # The unit id "a" becomes an undecodable byte: still valid JSON
        # once replaced, so only the sha256 check can reject it.
        lines[1] = lines[1].replace(b'"unit": "a"', b'"unit": "\xe1"')
        path.write_bytes(b"".join(lines))
        loaded = Journal.load(path)
        assert len(loaded) == 1
        assert loaded.dropped_tail == 2
        with pytest.raises(CampaignCorruptError, match=r":2: record fails its sha256"):
            Journal.load(path, strict=True)

    def test_append_after_recovery_heals_the_file(self, path):
        j = self._journal_with_three(path)
        j.truncate_tail()
        recovered = Journal.load(path)
        recovered.append("resume", skipped=["a"], rerun=["b"])
        # The rewritten journal is fully intact again.
        healed = Journal.load(path, strict=True)
        assert [r["type"] for r in healed.records] == [
            "campaign-start",
            "unit-done",
            "resume",
        ]

    def test_torn_first_record_after_campaign_start_heals(self, path):
        """The boundary case: the torn record is the *first* record after
        the header — the crash happened while journalling the very first
        unit.  The campaign-start prefix must survive and the next append
        must heal the file back to full integrity."""
        j = Journal(path)
        j.append("campaign-start", spec="smoke", seed=0)
        j.append("unit-start", unit="a")
        j.truncate_tail()
        loaded = Journal.load(path)
        assert len(loaded) == 1
        assert loaded.dropped_tail == 1
        assert loaded.records[0]["type"] == "campaign-start"
        loaded.append("unit-start", unit="a")
        healed = Journal.load(path, strict=True)
        assert [r["type"] for r in healed.records] == [
            "campaign-start",
            "unit-start",
        ]

    def test_torn_very_first_record_loads_empty_and_heals(self, path):
        """Even the campaign-start record itself can tear (crash during
        the very first append).  The journal then loads empty — the
        resume CLI reports 'no campaign to resume' — and a fresh run can
        heal the file from scratch."""
        j = Journal(path)
        j.append("campaign-start", spec="smoke", seed=0)
        j.truncate_tail()
        loaded = Journal.load(path)
        assert len(loaded) == 0
        assert loaded.dropped_tail == 1
        loaded.append("campaign-start", spec="smoke", seed=0)
        healed = Journal.load(path, strict=True)
        assert [r["type"] for r in healed.records] == ["campaign-start"]

    def test_record_missing_trailing_newline_is_torn(self, path):
        """A record that parses and checksums but lost its newline is a
        torn append: trusting it would corrupt the next write."""
        self._journal_with_three(path)
        text = path.read_text()
        assert text.endswith("\n")
        path.write_text(text[:-1])
        loaded = Journal.load(path)
        assert len(loaded) == 2
        assert loaded.dropped_tail == 1
        with pytest.raises(CampaignCorruptError, match="newline"):
            Journal.load(path, strict=True)


class TestFormatV2:
    """The O(1)-append format: fsync'd lines, versioned records."""

    def _counting(self, monkeypatch):
        """Count whole-file rewrites, heals (an append that first
        rescans the file and cuts what follows its intact prefix) and
        plain O(1) appends."""
        calls = {"rewrites": 0, "heals": 0, "appends": 0}
        real_write = ioutils.atomic_write_text
        real_append = ioutils.fsync_append_text
        real_heal = ioutils.RecordLog._trusted

        def counting_write(*args, **kwargs):
            calls["rewrites"] += 1
            return real_write(*args, **kwargs)

        def counting_heal(self):
            calls["heals"] += 1
            return real_heal(self)

        def counting_append(*args, **kwargs):
            heals = calls["heals"]
            result = real_append(*args, **kwargs)
            if calls["heals"] == heals:
                calls["appends"] += 1
            return result

        monkeypatch.setattr(ioutils, "atomic_write_text", counting_write)
        monkeypatch.setattr(ioutils, "fsync_append_text", counting_append)
        monkeypatch.setattr(ioutils.RecordLog, "_trusted", counting_heal)
        return calls

    def test_appends_are_o1_after_the_first(self, path, monkeypatch):
        calls = self._counting(monkeypatch)
        j = Journal(path)
        for i in range(20):
            j.append("unit-start", unit=f"u{i}")
        # A fresh Journal doesn't know the disk state, so the first
        # append pays one heal; every later record is one fsync'd
        # append — the whole file is never rescanned or rewritten.
        assert calls == {"rewrites": 0, "heals": 1, "appends": 19}

    def test_loaded_clean_journal_never_rewrites(self, path, monkeypatch):
        j = Journal(path)
        for i in range(3):
            j.append("unit-start", unit=f"u{i}")
        calls = self._counting(monkeypatch)
        loaded = Journal.load(path)
        loaded.append("resume", skipped=[], rerun=[])
        assert calls == {"rewrites": 0, "heals": 0, "appends": 1}

    def test_heal_after_torn_tail_then_back_to_o1(self, path, monkeypatch):
        j = Journal(path)
        for i in range(3):
            j.append("unit-done", unit=f"u{i}", digest="d" * 64, status="OK")
        j.truncate_tail()
        calls = self._counting(monkeypatch)
        recovered = Journal.load(path)
        recovered.append("resume", skipped=[], rerun=["u2"])
        recovered.append("unit-start", unit="u2")
        # One heal for the torn tail, then O(1) appends again.
        assert calls == {"rewrites": 0, "heals": 1, "appends": 1}
        Journal.load(path, strict=True)

    def test_foreign_bytes_on_disk_trigger_a_heal(self, path):
        j = Journal(path)
        j.append("unit-start", unit="a")
        with open(path, "a") as fh:
            fh.write("junk that is not a record")
        j.append("unit-start", unit="b")
        healed = Journal.load(path, strict=True)
        assert [r["unit"] for r in healed.records] == ["a", "b"]

    def test_new_records_carry_the_write_version(self, path):
        j = Journal(path)
        rec = j.append("unit-start", unit="a")
        assert rec["v"] == WRITE_VERSION == 2

    def _write_raw(self, path, docs):
        with open(path, "w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(seal_record(doc), sort_keys=True) + "\n")

    def test_v1_journals_still_load(self, path):
        self._write_raw(
            path,
            [
                {"v": 1, "type": "campaign-start", "spec": "smoke"},
                {"v": 1, "type": "unit-start", "unit": "a"},
            ],
        )
        loaded = Journal.load(path, strict=True)
        assert [r["v"] for r in loaded.records] == [1, 1]

    def test_mixed_version_journal_is_legal(self, path):
        """An old campaign resumed by a new binary appends v2 after v1."""
        self._write_raw(path, [{"v": 1, "type": "campaign-start", "spec": "smoke"}])
        loaded = Journal.load(path)
        loaded.append("resume", skipped=[], rerun=[])
        reloaded = Journal.load(path, strict=True)
        assert [r["v"] for r in reloaded.records] == [1, 2]

    def test_unsupported_version_ends_the_trusted_prefix(self, path):
        self._write_raw(
            path,
            [
                {"v": 2, "type": "unit-start", "unit": "a"},
                {"v": 99, "type": "unit-start", "unit": "b"},
            ],
        )
        loaded = Journal.load(path)
        assert len(loaded) == 1
        assert loaded.dropped_tail == 1

    def test_bytes_are_a_pure_function_of_the_records(self, path, tmp_path):
        """Same record sequence -> same file bytes, whatever mix of
        fresh appends, reloads, and heals produced it.  This is the
        property that lets serial and parallel runs be cmp-compared."""
        other = tmp_path / "other.jsonl"
        j = Journal(path)
        j.append("campaign-start", spec="smoke", seed=0)
        j.append("unit-start", unit="a")
        j.append("unit-done", unit="a", digest="d" * 64, status="OK")
        k = Journal(other)
        k.append("campaign-start", spec="smoke", seed=0)
        k = Journal.load(other)
        k.append("unit-start", unit="a")
        k = Journal.load(other)
        k.append("unit-done", unit="a", digest="d" * 64, status="OK")
        assert path.read_bytes() == other.read_bytes()
