"""JournalWriter, read_journal and the journal's merge order."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.journal import (
    JOURNAL,
    JOURNAL_FILENAME,
    VOLATILE_FIELDS,
    JournalWriter,
    journal_path,
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


class TestRead:
    def test_directory_resolves_to_main_journal(self, tmp_path):
        with JournalWriter(tmp_path / JOURNAL_FILENAME) as journal:
            journal.write("sweep_started")
        assert journal_path(tmp_path) == tmp_path / JOURNAL_FILENAME
        assert len(read_journal(tmp_path)) == 1

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no journal"):
            read_journal(tmp_path / "absent.jsonl")

    def test_bad_line_raises_with_location(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "ok"}\nnot json\n')
        with pytest.raises(ObservabilityError, match=":2"):
            read_journal(path)

    def test_record_without_event_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"seed": 3}\n')
        with pytest.raises(ObservabilityError, match="event"):
            read_journal(path)

    def test_torn_final_line_is_skipped(self, tmp_path):
        # A last line without its newline is a write in progress (the
        # sweep is live, or was killed mid-write) — not corruption.
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "run_started"}\n{"event": "run_fini')
        events = read_journal(path)
        assert [e["event"] for e in events] == ["run_started"]

    def test_torn_tail_skipped_even_when_it_parses(self, tmp_path):
        # A complete-looking unterminated object is still in progress:
        # the writer commits record + newline in one buffered write, so
        # until the newline lands more bytes may follow.
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b"}')
        assert [e["event"] for e in read_journal(path)] == ["a"]

    def test_torn_tail_is_read_once_committed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b')
        assert len(read_journal(path)) == 1
        with path.open("a", encoding="utf-8") as handle:
            handle.write('"}\n')
        assert [e["event"] for e in read_journal(path)] == ["a", "b"]

    def test_bad_terminated_line_still_raises(self, tmp_path):
        # Only the *unterminated* tail gets the benefit of the doubt.
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "a"}\nnot json\n{"event": "b"}\n')
        with pytest.raises(ObservabilityError, match="bad journal line"):
            read_journal(path)


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
