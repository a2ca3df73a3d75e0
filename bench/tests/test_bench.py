"""Checks of the benchmark itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import ast
import json
import re
import subprocess
import sys

import pytest

from bench import compare
from bench.metrics import END_TO_END, PER_LAYER, summarize
from bench.run import ROOT, WORKLOAD_NAMES, visit
from bench.trace import Span, self_time_by_name, self_times

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One complete smoke run through the front end."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, json.loads(out.read_text(encoding="utf-8")), out


class TestNames:
    def test_manifest_matches_the_metric_tables(self):
        assert [m["name"] for m in MANIFEST["end_to_end"]] == [
            m.name for m in END_TO_END
        ]
        assert [m["name"] for m in MANIFEST["per_layer"]] == [
            m.name for m in PER_LAYER
        ]
        from bench.workloads import WORKLOADS

        assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOAD_NAMES)
        assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
            (w.name, w.why) for w in WORKLOADS.values()
        ]
        for listed, metric in zip(MANIFEST["end_to_end"], END_TO_END):
            assert listed == {
                "name": metric.name, "unit": metric.unit,
                "better": metric.better, "bound": metric.bound,
            }

    def test_names_are_well_formed_and_unique(self):
        names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
        assert len(names) == len(set(names))
        assert len(PER_LAYER) <= 128
        for name in names + list(WORKLOAD_NAMES):
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name

    def test_every_listed_name_is_printed(self, smoke):
        stdout, result, _out = smoke
        assert "SMOKE — numbers not comparable" in stdout
        assert set(result["workloads"]) == set(WORKLOAD_NAMES)
        for name, record in result["workloads"].items():
            assert set(record["end_to_end"]) == {m.name for m in END_TO_END}
            assert set(record["per_layer"]) == {m.name for m in PER_LAYER}
            for metric in list(record["end_to_end"]) + list(record["per_layer"]):
                assert re.search(
                    rf"^{name}\s+{re.escape(metric)}\s", stdout, re.MULTILINE
                ), (name, metric)
            assert re.search(
                rf"^{name}\s+fail_rate\s+0 fraction \(0 failed of \d+ attempted\)",
                stdout, re.MULTILINE,
            )
            assert record["correct"], record["problems"]

    def test_spans_are_written_beside_the_result(self, smoke):
        _stdout, _result, out = smoke
        for name in WORKLOAD_NAMES:
            spans = json.loads(
                out.with_name(f"{out.stem}.{name}.spans.json").read_text()
            )
            by_name = {span["name"] for span in spans}
            assert {"iteration", "item", "build", "sim_loop", "measure"} <= by_name
            ids = {span["id"] for span in spans}
            assert all(
                span["parent"] is None or span["parent"] in ids for span in spans
            )


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span(0, None, "iteration", 0.0, 10.0),
            Span(1, 0, "item", 1.0, 9.0),
            Span(2, 1, "build", 1.0, 2.0),
            Span(3, 1, "sim_loop", 2.0, 7.5),
            Span(4, 1, "measure", 8.0, 9.0),
            Span(5, 0, "report", 9.0, 9.5),
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 8.0 - 0.5)
        assert own[1] == pytest.approx(8.0 - 1.0 - 5.5 - 1.0)
        assert own[3] == pytest.approx(5.5)
        assert sum(own.values()) == pytest.approx(10.0)
        assert self_time_by_name(spans)["item"] == pytest.approx(0.5)

    def test_overlapping_children_are_not_counted_twice(self):
        spans = [
            Span(0, None, "parent", 0.0, 4.0),
            Span(1, 0, "a", 0.0, 3.0),
            Span(2, 0, "b", 2.0, 5.0),  # overlaps a, runs past the parent
        ]
        assert self_times(spans)[0] == pytest.approx(0.0)


class TestDigestAndFailures:
    def test_digest_is_stable_and_follows_the_seed(self):
        for name in WORKLOAD_NAMES:
            first, again, other = (
                visit(name, seed, 1.0, trace=False, smoke=True,
                      iterations=1, probes=1)["sim_digest"]
                for seed in (0, 0, 1)
            )
            assert first == again, name
            assert first != other, name

    def test_a_lost_byte_raises_the_fail_rate(self, monkeypatch, tmp_path):
        from repro.apps.iperf import IperfSession

        from bench.trace import Tracer
        from bench.workloads import SMOKE, WORKLOADS, Scope, evaluate

        original = IperfSession.result

        def short_by_one(self):
            result = original(self)
            if self.flow_id == 1:
                result.bytes_transferred -= 1
            return result

        monkeypatch.setattr(IperfSession, "result", short_by_one)
        outcome = WORKLOADS["lossy_mix"].run(0, SMOKE, Scope(tmp_path, Tracer()))
        attempted, failed, problems = evaluate(outcome)
        assert attempted == 8 and failed == 1
        assert "flow 1" in problems[0]


class TestCalibration:
    def test_kernel_imports_nothing_from_repro(self):
        source = (ROOT / "bench" / "calibrate.py").read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[0])
        assert imported <= {"__future__", "heapq", "signal", "time", "typing"}
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, bench.calibrate as c; c.calibrate(c.Kernel(), 1); "
             "sys.exit(any(m.split('.')[0] == 'repro' for m in sys.modules))"],
            cwd=ROOT,
        )
        assert done.returncode == 0


class TestCompare:
    @staticmethod
    def _run(walls, failed=0):
        record = {
            "end_to_end": {
                m.name: {"unit": m.unit, "samples": [1.0] * 9, **summarize([1.0] * 9)}
                for m in END_TO_END
            },
            "attempted": 100, "failed": failed, "fail_rate": failed / 100,
            "sim_digest": "d",
            "per_layer": {m.name: {"value": 1.0, "unit": m.unit} for m in PER_LAYER},
        }
        record["end_to_end"]["wall_s"] = {
            "unit": "s", "samples": walls, **summarize(walls)
        }
        return {"seed": 0, "workloads": {"dumbbell_sweep": record}}

    def test_verdicts(self):
        base = self._run([2.0, 2.02, 1.98, 2.01, 1.99])
        same = self._run([2.05, 2.0, 2.04, 2.02, 2.06])
        slower = self._run([2.8, 2.82, 2.78, 2.81, 2.79])
        faster = self._run([1.2, 1.22, 1.18, 1.21, 1.19])
        for other, word, ok in (
            (same, "unchanged", True), (slower, "regressed", False),
            (faster, "improved", True),
        ):
            lines, passed = compare.compare(base, other)
            assert word in lines[0] and passed is ok

    def test_wide_spread_is_unresolved_unless_separated(self):
        noisy = self._run([2.0, 2.9, 1.5, 2.6, 1.6])
        lines, ok = compare.compare(noisy, self._run([2.3, 2.5, 1.9, 2.2, 2.1]))
        assert "unresolved" in lines[0] and ok
        lines, ok = compare.compare(noisy, self._run([1.2, 1.3, 1.1, 1.25, 1.15]))
        assert "improved" in lines[0] and ok

    def test_failures_and_counters_are_reported(self):
        base = self._run([2.0, 2.0, 2.0])
        worse = self._run([2.0, 2.0, 2.0], failed=3)
        worse["workloads"]["dumbbell_sweep"]["per_layer"]["sim.heap_pushes"][
            "value"
        ] = 2.0
        lines, ok = compare.compare(base, worse)
        assert not ok
        assert any("fail_rate rose" in line for line in lines)
        assert any("sim.heap_pushes differs" in line for line in lines)
