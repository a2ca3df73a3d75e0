"""The regression list: hand-written mutants of ``tcp``/``cc``/``energy``.

``python -m mutants.regressions`` makes each row's exact edit (file, old
text, new text) in a scratch tree, runs ``tests/<package>`` and, unless a
behavioural test there fails, all of tier-1, and prints each mutant as
killed, pin-only, survived or gone (its old text is not there exactly once).
"""

from __future__ import annotations

import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from mutants.probe import ROOT, classify, mutated, pytest, tree_pool

# (origin, what it breaks, file under src/repro, old text, new text)
REGRESSIONS = (
    # the first hand-written probe of tcp/ and cc/: seven guarded constants, seven mechanisms
    ("first", "RTT gain ALPHA 1/8 -> 1/4", "tcp/rtt.py", "ALPHA = 1.0 / 8.0", "ALPHA = 1.0 / 4.0"),
    ("first", "RTO variance factor K 4 -> 2", "tcp/rtt.py", "K = 4.0", "K = 2.0"),
    ("first", "a valid sample keeps the backoff", "tcp/rtt.py", "        self._backoff = 1  # a valid", "        pass  # a valid"),
    ("first", "backoff cap 64 -> 128", "tcp/rtt.py", "self._backoff * 2, 64)", "self._backoff * 2, 128)"),
    ("first", "RTO not capped at max_rto", "tcp/rtt.py", "self.rto = min(max(self.min_rto, base) * self._backoff, self.max_rto)", "self.rto = max(self.min_rto, base) * self._backoff"),
    ("first", "Reno loss keeps the window (no halving)", "cc/base.py", "self.cwnd / 2.0)\n        self.cwnd = self.ssthresh", "self.cwnd / 1.0)\n        self.cwnd = self.ssthresh"),
    ("first", "DUPACK_THRESHOLD 3 -> 2", "tcp/sender.py", "DUPACK_THRESHOLD = 3", "DUPACK_THRESHOLD = 2"),
    ("first", "Karn's rule off", "tcp/sender.py", "if not seg.retransmitted:\n                best = seg", "if True:\n                best = seg"),
    ("first", "CUBIC fast convergence off", "cc/cubic.py", "if cwnd_seg < self._w_max:\n            self._w_max = cwnd_seg * (1.0 + CUBIC_BETA) / 2.0", "if False:\n            self._w_max = cwnd_seg * (1.0 + CUBIC_BETA) / 2.0"),
    ("first", "CUBIC_C 0.4 -> 0.8", "cc/cubic.py", "CUBIC_C = 0.4", "CUBIC_C = 0.8"),
    ("first", "CUBIC TCP-friendly region removed", "cc/cubic.py", "target = max(target, self._tcp_cwnd)", "target = target"),
    ("first", "BBR full-pipe threshold 1.25 -> 1.05", "cc/bbr.py", "bw >= self._full_bw * 1.25", "bw >= self._full_bw * 1.05"),
    ("first", "BBR PROBE_BW drain phase 0.75 -> 1.0", "cc/bbr.py", "PROBE_BW_GAINS = (1.25, 0.75,", "PROBE_BW_GAINS = (1.25, 1.0,"),
    ("first", "DCTCP gain g 1/16 -> 1/4", "cc/dctcp.py", "DCTCP_GAIN = 1.0 / 16.0", "DCTCP_GAIN = 1.0 / 4.0"),
    # the mutation re-probe of a later re-anchor
    ("reprobe", "Reno beta 0.5 -> 0.67", "cc/base.py", "self.cwnd / 2.0)\n        self.cwnd = self.ssthresh", "self.cwnd * 0.67)\n        self.cwnd = self.ssthresh"),
    ("reprobe", "RTO leaves cwnd at ssthresh", "cc/base.py", "self.cwnd = self.min_cwnd", "self.cwnd = self.ssthresh"),
    ("reprobe", "no cwnd deflation at recovery exit", "cc/base.py", "self.cwnd = max(self.min_cwnd, self.ssthresh)", "pass"),
    ("reprobe", "DUPACK_THRESHOLD 3 -> 4", "tcp/sender.py", "DUPACK_THRESHOLD = 3", "DUPACK_THRESHOLD = 4"),
    ("reprobe", "SACK-loss trigger x2", "tcp/sender.py", "total_bytes >= DUPACK_THRESHOLD * self.mss", "total_bytes >= 2 * DUPACK_THRESHOLD * self.mss"),
    ("reprobe", "RTO backoff cap 64 -> 2", "tcp/rtt.py", "self._backoff * 2, 64)", "self._backoff * 2, 2)"),
    ("reprobe", "CC power coefficient x2", "energy/calibration.py", "BETA_CC_W_PER_UNIT_PER_S = usec(9)", "BETA_CC_W_PER_UNIT_PER_S = usec(18)"),
    ("reprobe", "Reno congestion avoidance at twice its rate", "cc/base.py", "max(1, mss * remainder // max(self.cwnd, 1))", "max(1, 2 * mss * remainder // max(self.cwnd, 1))"),
    ("reprobe", "MIN_CWND_SEGMENTS 2 -> 1", "cc/base.py", "MIN_CWND_SEGMENTS = 2", "MIN_CWND_SEGMENTS = 1"),
    ("reprobe", "retransmission power coefficient x2", "energy/calibration.py", "BETA_RETX_W_PER_RPS = usec(40)", "BETA_RETX_W_PER_RPS = usec(80)"),
    ("reprobe", "DRAM retransmission coefficient x2", "energy/calibration.py", "BETA_DRAM_RETX_W_PER_RPS = usec(", "BETA_DRAM_RETX_W_PER_RPS = 2 * usec("),
    # the reference constants the calibration closes on (ROADMAP item 17)
    ("calibration", "REF_CC_UNITS_PER_ACK x2", "energy/calibration.py", "REF_CC_UNITS_PER_ACK = 1.35", "REF_CC_UNITS_PER_ACK = 2.7"),
    ("calibration", "REF_EVENTS_PER_DATA_PACKET 1.5 -> 2.5", "energy/calibration.py", "REF_EVENTS_PER_DATA_PACKET = 1.0 +", "REF_EVENTS_PER_DATA_PACKET = 2.0 +"),
)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        trees = tree_pool(ROOT, Path(scratch))
        slots = trees.qsize()

        def run(row: tuple[str, ...]) -> str:
            origin, what, path, old, new = row
            tree = trees.get()
            target = tree / "src" / "repro" / path
            try:
                if target.read_text(encoding="utf-8").count(old) != 1:
                    return f"gone | {origin} | {what} | {path}"
                with mutated(target, lambda text: text.replace(old, new)):
                    killers = pytest(tree, [f"tests/{path.split('/')[0]}"], None, 600)
                    if classify(killers) != "killed":
                        killers |= pytest(tree, ["tests"], None, 1800)
                shown = " ".join(sorted(killers))
                return f"{classify(killers)} | {origin} | {what} | {path} | {shown}"
            finally:
                trees.put(tree)

        with ThreadPoolExecutor(slots) as pool:
            for line in pool.map(run, REGRESSIONS):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
