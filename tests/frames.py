"""``make frames``: the "Life of a packet" table of docs/architecture.md.

Counts, with :func:`tests.conftest.count_calls`, the Python frames one
run of the ``dumbbell_sweep`` shape of ``tests/test_work_counters.py``
enters under ``src/repro/{sim,net,tcp,cc,energy}``, and prints them by
stage, each divided by the unit the stage works on. A report to paste
into the table's last column; the gate on its last row is
``FRAMES_PER_SEGMENT_CEILING``. Not a test and not collected as one.
"""

from repro.harness.runner import run_once
from repro.net.link import Interface
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
    "energy listener and sampler": ("packet", ("energy/",)),
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


def main():
    _, calls = count_calls(run_once, *RUNS["dumbbell_sweep"])
    segments = calls[TcpSender._send_packet.__code__]
    acks = calls[TcpSender._handle_packet.__code__]
    units = {
        "push": calls[Simulator.schedule_at.__code__],
        "segment": segments,
        "ACK": acks,
        "packet": segments + acks,
        "hop": calls[Interface._start_transmission.__code__],
    }
    frames = dict.fromkeys(STAGES, 0)
    for code, n in calls.items():
        if any(part in code.co_filename for part in DATA_PATH):
            frames[stage_of(code)] += n
    print(", ".join(f"{unit}: {n}" for unit, n in units.items()))
    for stage, total in frames.items():
        unit = STAGES[stage][0]
        print(f"{total / units[unit]:7.2f} per {unit:<8}{stage}")
    print(f"{units['push'] / segments:7.2f} per segment heap pushes")
    print(f"{sum(frames.values()) / segments:7.2f} per segment whole run")


if __name__ == "__main__":
    main()
