"""The record-stream life cycle, once, over all three trace files.

Journal, telemetry and profile share one writer/reader/merger
(:mod:`repro.obs.stream`); what they differ in is their
:class:`~repro.obs.stream.StreamSpec`. Every case here runs against all
three, so a behaviour cannot hold for one file and rot for another.
Stream-specific record shapes (journal event stamping, telemetry sinks,
the profile's ``cProfile`` fold) stay in the per-stream test modules.
"""

import json
from types import SimpleNamespace

import pytest

from repro.errors import ObservabilityError
from repro.obs.journal import JOURNAL, JournalWriter
from repro.obs.profile import PROFILE, ProfileWriter
from repro.obs.telemetry import TELEMETRY, TelemetryWriter


def journal_record(rank):
    return {"event": "run_finished", "item": rank}


def telemetry_record(rank):
    return {
        "scenario": f"s{rank}", "seed": 0, "channel": "cwnd_bytes",
        "entity": "flow-1", "times": [0.0, 1.0], "values": [10.0, 20.0],
    }


def profile_record(rank):
    run, push = "sim/engine.py:Simulator.run", "sim/engine.py:Simulator.push"
    return {
        "scenario": f"s{rank}", "seed": 0, "calls": {run: 1, push: 3},
        "edges": {run: {push: 3}},
        "self_s": {run: 0.001, push: 0.0005},
        "total_s": {run: 0.0025, push: 0.0005},
    }


#: per stream: its spec, its writer, ``rank -> valid record`` (records
#: sort by rank), and the on-disk name of worker 7's partial
STREAMS = [
    SimpleNamespace(spec=JOURNAL, writer=JournalWriter,
                    record=journal_record, partial="worker-7.jsonl"),
    SimpleNamespace(spec=TELEMETRY, writer=TelemetryWriter,
                    record=telemetry_record,
                    partial="telemetry-worker-7.jsonl"),
    SimpleNamespace(spec=PROFILE, writer=ProfileWriter,
                    record=profile_record, partial="profile-worker-7.jsonl"),
]

pytestmark = pytest.mark.parametrize(
    "stream", STREAMS, ids=[s.spec.kind for s in STREAMS]
)


def write(stream, path, records):
    with stream.writer(path) as writer:
        for item in records:
            writer.write_record(item)


def test_write_then_read_round_trips(tmp_path, stream):
    spec = stream.spec
    records = [stream.record(0), stream.record(1)]
    write(stream, tmp_path / spec.filename, records)
    # a trace directory resolves to the stream's own file
    assert spec.path(tmp_path) == tmp_path / spec.filename
    assert spec.read(tmp_path) == records
    lines = (tmp_path / spec.filename).read_text().splitlines()
    assert lines == [json.dumps(r, sort_keys=True) for r in records]


def test_missing_file_raises(tmp_path, stream):
    with pytest.raises(ObservabilityError, match=f"no {stream.spec.kind}"):
        stream.spec.read(tmp_path / "absent.jsonl")


def test_write_after_close_raises(tmp_path, stream):
    writer = stream.writer(tmp_path / stream.spec.filename)
    writer.close()
    with pytest.raises(ObservabilityError, match="closed"):
        writer.write_record(stream.record(0))


@pytest.mark.parametrize("torn", ["half", "whole"])
def test_unterminated_tail_is_skipped(tmp_path, stream, torn):
    # A last line without its newline is a write in progress (the sweep
    # is live, or was killed mid-write) — skipped even when the fragment
    # happens to parse, since more bytes may still follow.
    spec, first, second = stream.spec, stream.record(0), stream.record(1)
    path = tmp_path / spec.filename
    tail = json.dumps(second)
    if torn == "half":
        tail = tail[: len(tail) // 2]
    path.write_text(json.dumps(first) + "\n" + tail)
    assert spec.read(path) == [first]
    # ...and is read once its newline lands
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    assert spec.read(path) == [first, second]


def test_terminated_garbage_raises_with_line_number(tmp_path, stream):
    # Only the *unterminated* tail gets the benefit of the doubt.
    spec = stream.spec
    path = tmp_path / spec.filename
    path.write_text(
        json.dumps(stream.record(0))
        + "\nnot json\n"
        + json.dumps(stream.record(1))
        + "\n"
    )
    with pytest.raises(
        ObservabilityError, match=rf":2: bad {spec.kind} line"
    ):
        spec.read(path)
    # ...the last line too, once its newline has landed
    path.write_text(json.dumps(stream.record(0)) + "\nnot json\n")
    with pytest.raises(
        ObservabilityError, match=rf":2: bad {spec.kind} line"
    ):
        spec.read(path)


def test_missing_required_field_raises(tmp_path, stream):
    path = tmp_path / stream.spec.filename
    for missing in stream.spec.required:
        broken = stream.record(0)
        del broken[missing]
        path.write_text(json.dumps(broken) + "\n")
        with pytest.raises(ObservabilityError, match=f":1: .* lacks .*{missing}"):
            stream.spec.read(path)


def test_partials_merge_in_key_order_and_are_removed(tmp_path, stream):
    spec, record = stream.spec, stream.record
    assert spec.worker_path(tmp_path, 7) == tmp_path / stream.partial
    # two workers, each holding every other record
    write(stream, spec.worker_path(tmp_path, 7), [record(1), record(3)])
    write(stream, spec.worker_path(tmp_path, 8), [record(0), record(2)])
    with stream.writer(tmp_path / spec.filename) as main:
        main.write_record(record(9))
        main.merge_workers(tmp_path)
    assert list(tmp_path.glob(spec.worker_glob)) == []
    # appended after what the coordinator had already written
    assert spec.read(tmp_path) == [
        record(9), record(0), record(1), record(2), record(3),
    ]


def test_equal_keys_keep_each_workers_write_order(tmp_path, stream):
    # the journal's events of one item, or two records of one run: the
    # worker that wrote them wrote them in the order they happened
    spec, record = stream.spec, stream.record
    first, second = dict(record(1), tag="first"), dict(record(1), tag="second")
    write(stream, spec.worker_path(tmp_path, 7), [first, second])
    write(stream, spec.worker_path(tmp_path, 8), [record(0)])
    with stream.writer(tmp_path / spec.filename) as main:
        spec.merge_workers(tmp_path, into=main)
    assert spec.read(tmp_path) == [record(0), first, second]


def test_merge_without_partials_is_a_noop(tmp_path, stream):
    spec = stream.spec
    with stream.writer(tmp_path / spec.filename) as main:
        spec.merge_workers(tmp_path, into=main)
    assert spec.read(tmp_path) == []
    assert list(tmp_path.iterdir()) == [tmp_path / spec.filename]


def test_canonicalize_sorts_and_is_idempotent(tmp_path, stream):
    spec, record = stream.spec, stream.record
    assert spec.canonicalize(tmp_path) == 0  # missing file: a no-op
    path = tmp_path / spec.filename
    write(stream, path, [record(2), record(0), record(1)])
    before = path.read_bytes()
    assert spec.canonicalize(tmp_path) == 3
    assert path.read_bytes() != before
    assert spec.read(path) == [record(0), record(1), record(2)]
    after = path.read_bytes()
    spec.canonicalize(tmp_path)
    assert path.read_bytes() == after
