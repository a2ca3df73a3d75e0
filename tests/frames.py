"""``make frames``: the "Life of a packet" table of docs/architecture.md.

Counts, with :func:`tests.conftest.count_calls`, the Python frames one
run of the ``dumbbell_sweep`` shape of ``tests/test_work_counters.py``
enters under ``src/repro/{sim,net,tcp,cc,energy}``, and prints them by
stage, each divided by the unit the stage works on. A report to paste
into the table's last column (``tests/test_frames_table.py`` compares
the two); the gate on its last row is ``FRAMES_PER_SEGMENT_CEILING``.
Not a test and not collected as one.
"""

from repro.harness.runner import run_once
from repro.net.link import Link
from repro.sim.engine import Simulator
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
    packet that finds the wire free starts inside ``enqueue``)."""
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


def table():
    """What ``make frames`` prints: the units of the run, and one
    ``(frames, unit, stage)`` row per line of the table."""
    links, calls = count_calls(run_and_keep_the_links, *RUNS["dumbbell_sweep"])
    segments = calls[TcpSender._send_packet.__code__]
    acks = calls[TcpSender._handle_packet.__code__]
    units = {
        "push": calls[Simulator.push.__code__],
        "segment": segments,
        "ACK": acks,
        "packet": segments + acks,
        "hop": int(sum(link.counters.get("tx_packets") for link in links)),
    }
    frames = dict.fromkeys(STAGES, 0)
    for code, n in calls.items():
        if any(part in code.co_filename for part in DATA_PATH):
            frames[stage_of(code)] += n
    rows = [
        (total / units[STAGES[stage][0]], STAGES[stage][0], stage)
        for stage, total in frames.items()
    ]
    rows.append((units["push"] / segments, "segment", "heap pushes"))
    rows.append((sum(frames.values()) / segments, "segment", "whole run"))
    return units, rows


def main():
    units, rows = table()
    print(", ".join(f"{unit}: {n}" for unit, n in units.items()))
    for frames, unit, stage in rows:
        print(f"{frames:7.2f} per {unit:<8}{stage}")


if __name__ == "__main__":
    main()
