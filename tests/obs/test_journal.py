"""JournalWriter, read_journal and the journal's merge order."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.journal import (
    JOURNAL,
    JOURNAL_FILENAME,
    VOLATILE_FIELDS,
    JournalWriter,
    read_journal,
)


class TestWriter:
    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path, worker=7) as journal:
            journal.write("run_started", scenario="s", seed=0)
            journal.write("run_finished", scenario="s", seed=0)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "run_started"
        assert first["worker"] == 7
        assert "t_wall" in first

    def test_flushes_eagerly(self, tmp_path):
        journal = JournalWriter(tmp_path / "j.jsonl")
        journal.write("run_started")
        # Readable before close: a crashed worker keeps its events.
        assert len(read_journal(tmp_path / "j.jsonl")) == 1
        journal.close()

    def test_write_after_close_raises(self, tmp_path):
        journal = JournalWriter(tmp_path / "j.jsonl")
        journal.close()
        with pytest.raises(ObservabilityError):
            journal.write("run_started")


class TestMerge:
    def test_merge_removes_partials_and_appends(self, tmp_path):
        with JournalWriter(tmp_path / "worker-100.jsonl", worker=100) as j:
            j.write("run_started", item=0)
            j.write("run_finished", item=0)
        with JournalWriter(tmp_path / JOURNAL_FILENAME) as main:
            main.write("batch_started")
            JOURNAL.merge_workers(tmp_path, into=main)
        assert list(tmp_path.glob("worker-*.jsonl")) == []
        events = read_journal(tmp_path)
        assert [e["event"] for e in events] == [
            "batch_started", "run_started", "run_finished",
        ]

    def test_events_without_item_sort_after_items(self, tmp_path):
        with JournalWriter(tmp_path / "worker-1.jsonl", worker=1) as j:
            j.write("span", phase="sim_loop")
            j.write("run_finished", item=0)
        with JournalWriter(tmp_path / JOURNAL_FILENAME) as main:
            JOURNAL.merge_workers(tmp_path, into=main)
        events = read_journal(tmp_path)
        assert [e["event"] for e in events] == ["run_finished", "span"]

    def test_volatile_fields_are_the_documented_set(self):
        assert VOLATILE_FIELDS == {"t_wall", "worker", "wall_s", "events_per_s"}
