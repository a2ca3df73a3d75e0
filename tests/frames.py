"""``make frames``: the "Life of a packet" table of docs/architecture.md.

Counts, with :func:`tests.conftest.count_calls`, the Python frames one
run of the ``dumbbell_sweep`` shape of ``tests/test_work_counters.py``
enters under ``src/repro/{sim,net,tcp,cc,energy}``, and prints them by
stage, each divided by the unit the stage works on. A report to paste
into the table's frames column (``tests/test_frames_table.py`` compares
the two); the gate on its last row is ``FRAMES_PER_SEGMENT_CEILING``.
On Python 3.11 it prints, beside the frames, the bytecodes each stage
executed per unit (opcode trace events, a second run of the same
shape): a frame is one count whatever it does, and a push written in
place is no frame at all but still some bytecodes. The bytecodes column
is pasted too and gates nothing. Not a test and not collected as one.
"""

import gc
import sys

from repro.harness.runner import run_once
from repro.net.link import Link
from repro.tcp.sender import SegmentInfo, TcpSender

from tests.conftest import count_calls
from tests.test_work_counters import DATA_PATH, RUNS

#: the sender's transmit half; every other frame of tcp/sender.py is
#: spent on an arriving ACK
EMIT = {
    fn.__code__
    for fn in (
        TcpSender.start,
        TcpSender.write,
        TcpSender._on_qdisc_drain,
        TcpSender._try_send,
        TcpSender._cwnd_allows,
        TcpSender._pacing_gate,
        TcpSender._pacing_wakeup,
        TcpSender._peek_retransmit,
        TcpSender._transmit_new,
        TcpSender._transmit_segment,
        TcpSender._send_packet,
        SegmentInfo.__init__,
    )
}
EMIT_STAGE = "sender emits a segment"
OTHER_STAGE = "the rest: counters, probes, set-up"

#: stage -> (the unit it is divided by, the files whose frames it
#: counts), in the table's row order
STAGES = {
    "kernel: clock reads, heap pushes, cancels": ("push", ("sim/engine.py",)),
    "timers: RTO, delayed ACK, energy sampler": ("push", ("sim/timer.py",)),
    EMIT_STAGE: ("segment", ()),  # the functions of EMIT
    "host: send, receive, demux, Packet()": (
        "packet", ("net/host.py", "net/packet.py")),
    "host NIC: qdisc, per-packet gap, spray": ("packet", ("net/nic.py",)),
    "link hop: enqueue, serialise, deliver, dequeue": (
        "hop", ("net/link.py", "net/queue.py")),
    "switch forwarding": ("packet", ("net/switch.py",)),
    "energy: per-flow package, sampler": ("packet", ("energy/",)),
    "receiver: reassembly, ACK decision, ACK": (
        "segment", ("tcp/receiver.py", "tcp/ranges.py")),
    "sender processes an ACK": ("ACK", ("tcp/sender.py", "tcp/rtt.py")),
    "congestion control": ("ACK", ("cc/",)),
    OTHER_STAGE: ("segment", ("",)),  # whatever no row above claimed
}


def stage_of(code):
    if code in EMIT:
        return EMIT_STAGE
    path = code.co_filename.split("/repro/")[-1]
    return next(
        stage for stage, (_unit, files) in STAGES.items()
        if path.startswith(files)
    )


def run_and_keep_the_links(scenario, seed):
    """``run_once``, and every :class:`Link` it built: a hop is a frame
    put on a wire, which no single function's frames count any more (a
    packet that finds the wire free starts inside ``enqueue``), and the
    links share the run's simulator, whose ``_seq`` counts its pushes
    (most are written in place and enter no frame)."""
    links = []
    init = Link.__init__

    def remember(link, *args, **kwargs):
        links.append(link)
        init(link, *args, **kwargs)

    Link.__init__ = remember
    try:
        run_once(scenario, seed)
    finally:
        Link.__init__ = init
    return links


def count_bytecodes(fn, *args):
    """Run ``fn``; return its result and how many bytecodes each code
    object under ``DATA_PATH`` executed (``{code: opcodes}``)."""
    counts = {}

    def opcodes(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return opcodes

    def calls(frame, event, arg):
        if any(part in frame.f_code.co_filename for part in DATA_PATH):
            frame.f_trace_opcodes = True
            return opcodes
        return None

    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.settrace(calls)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
        if gc_was_enabled:
            gc.enable()
    return result, counts


def by_stage(counts):
    """``{stage: total}`` of a ``{code: n}`` tally of the data path."""
    totals = dict.fromkeys(STAGES, 0)
    for code, n in counts.items():
        if any(part in code.co_filename for part in DATA_PATH):
            totals[stage_of(code)] += n
    return totals


def table(bytecodes=False):
    """What ``make frames`` prints: the units of the run, and one
    ``(frames, bytecodes, unit, stage)`` row per line of the table
    (``bytecodes`` None unless asked for, and on its one row that is a
    count, not a cost)."""
    links, calls = count_calls(run_and_keep_the_links, *RUNS["dumbbell_sweep"])
    segments = calls[TcpSender._send_packet.__code__]
    acks = calls[TcpSender._handle_packet.__code__]
    units = {
        "push": links[0].sim._seq,
        "segment": segments,
        "ACK": acks,
        "packet": segments + acks,
        "hop": int(sum(link.counters.get("tx_packets") for link in links)),
    }
    frames = by_stage(calls)
    opcodes = dict.fromkeys(STAGES)
    if bytecodes:
        _, counted = count_bytecodes(
            run_and_keep_the_links, *RUNS["dumbbell_sweep"]
        )
        opcodes = by_stage(counted)
    rows = [
        (
            frames[stage] / units[unit],
            None if opcodes[stage] is None else opcodes[stage] / units[unit],
            unit,
            stage,
        )
        for stage, (unit, _files) in STAGES.items()
    ]
    rows.append((units["push"] / segments, None, "segment", "heap pushes"))
    rows.append((
        sum(frames.values()) / segments,
        sum(opcodes.values()) / segments if bytecodes else None,
        "segment",
        "whole run",
    ))
    return units, rows


def main():
    units, rows = table(bytecodes=sys.version_info[:2] == (3, 11))
    print(", ".join(f"{unit}: {n}" for unit, n in units.items()))
    print(" frames bytecodes")
    for frames, opcodes, unit, stage in rows:
        column = "" if opcodes is None else f"{opcodes:.1f}"
        print(f"{frames:7.2f} {column:>9} per {unit:<8}{stage}")


if __name__ == "__main__":
    main()
