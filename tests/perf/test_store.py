"""HistoryStore: append-only JSONL, dedup, schema version, corruption."""

import json

import pytest

from repro.decode import DocumentError
from repro.perf import HistoryStore, RunRecord, SCHEMA_VERSION, load_jsonl


class TestAppendDedup:
    def test_append_and_read_back(self, tmp_path, make_record):
        store = HistoryStore(tmp_path / "h")
        assert store.append(make_record()) is True
        records = store.records()
        assert len(records) == 1
        assert records[0].workload == "fourier"

    def test_duplicate_content_is_a_noop(self, tmp_path, make_record):
        store = HistoryStore(tmp_path / "h")
        assert store.append(make_record()) is True
        # Same content, different bookkeeping: deduplicated.
        assert store.append(make_record(run_id="other",
                                        created=42.0)) is False
        assert len(store.records()) == 1

    def test_dedup_survives_reopen(self, tmp_path, make_record):
        HistoryStore(tmp_path / "h").append(make_record())
        reopened = HistoryStore(tmp_path / "h")
        assert reopened.append(make_record()) is False
        assert len(reopened) == 1

    def test_extend_reports_new_count(self, tmp_path, make_record):
        store = HistoryStore(tmp_path / "h")
        batch = [make_record(), make_record(repeat=1), make_record()]
        assert store.extend(batch) == 2

    def test_append_stamps_created(self, tmp_path, make_record):
        store = HistoryStore(tmp_path / "h")
        record = make_record(created=0.0)
        store.append(record)
        assert store.records()[0].created > 0


class TestRuns:
    def test_run_ids_ordered_by_first_appearance(self, tmp_path,
                                                 make_record):
        store = HistoryStore(tmp_path / "h")
        store.append(make_record(run_id="a"))
        store.append(make_record(run_id="b", repeat=1))
        store.append(make_record(run_id="a", variant="insert"))
        assert store.run_ids() == ["a", "b"]

    def test_latest_runs_newest_first(self, tmp_path, make_record):
        store = HistoryStore(tmp_path / "h")
        store.append(make_record(run_id="old"))
        store.append(make_record(run_id="new", repeat=1))
        batches = store.latest_runs(2)
        assert [b[0].run_id for b in batches] == ["new", "old"]

    def test_records_for_run(self, tmp_path, make_record):
        store = HistoryStore(tmp_path / "h")
        store.append(make_record(run_id="a"))
        store.append(make_record(run_id="b", repeat=1))
        assert [r.run_id for r in store.records_for_run("b")] == ["b"]


class TestRobustness:
    def test_corrupt_lines_skipped(self, tmp_path, make_record):
        store = HistoryStore(tmp_path / "h")
        store.append(make_record())
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write("{truncated json\n")
            handle.write('{"valid_json": "but not a record"}\n')
        store2 = HistoryStore(tmp_path / "h")
        assert len(store2.records()) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        assert load_jsonl(tmp_path / "nope.jsonl") == []
        assert HistoryStore(tmp_path / "nope").records() == []


class TestMigration:
    def test_newer_schema_is_skipped(self, tmp_path, make_record):
        document = make_record().to_dict()
        document["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(DocumentError, match="schema_version"):
            RunRecord.from_dict(document)
        path = tmp_path / "newer.jsonl"
        path.write_text(json.dumps(document) + "\n")
        assert load_jsonl(path) == []

    def test_unversioned_record_skipped_on_load(self, tmp_path,
                                                make_record):
        """No record predates ``SCHEMA_VERSION``, so a document with an
        older version, or none, has no usable version."""
        path = tmp_path / "old.jsonl"
        current = make_record().to_dict()
        older = {**current, "schema_version": 0}
        unversioned = {k: v for k, v in current.items()
                       if k != "schema_version"}
        path.write_text("".join(json.dumps(document) + "\n" for document
                                in (older, unversioned, current)))
        records = load_jsonl(path)
        assert len(records) == 1
        assert records[0].schema_version == SCHEMA_VERSION
