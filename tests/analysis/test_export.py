"""Tests for result export."""

import json

import pytest

from repro.analysis.export import (
    run_to_dict,
    repeated_to_dict,
    save_json,
    to_json,
)
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once, run_repeated


@pytest.fixture(scope="module")
def repeated():
    return run_repeated(
        Scenario("export", flows=[FlowSpec(1_000_000)], packages=1),
        repetitions=2,
    )


class TestDictExport:
    def test_run_record_fields(self, repeated):
        record = run_to_dict(repeated.runs[0])
        assert record["scenario"] == "export"
        assert record["energy_j"] > 0
        assert len(record["flows"]) == 1
        assert record["flows"][0]["bytes"] == 1_000_000

    def test_repeated_record_includes_stats_and_runs(self, repeated):
        record = repeated_to_dict(repeated)
        assert record["repetitions"] == 2
        assert len(record["runs"]) == 2
        assert record["mean_energy_j"] == pytest.approx(
            repeated.mean_energy_j
        )

    def test_json_round_trips(self, repeated):
        parsed = json.loads(to_json([repeated]))
        assert parsed[0]["scenario"] == "export"


class TestFileExport:
    def test_save_json(self, repeated, tmp_path):
        target = tmp_path / "results.json"
        save_json([repeated], str(target))
        assert json.loads(target.read_text())[0]["repetitions"] == 2
