"""Tests for the generic parameter sweep."""

import pytest

from repro.errors import ExperimentError
from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.sweep import Sweep


def tiny_factory(mtu, cca):
    return Scenario(
        f"sweep-{cca}-{mtu}",
        flows=[FlowSpec(1_000_000, cca=cca)],
        mtu_bytes=mtu,
        packages=1,
    )


class TestGrid:
    def test_size_and_points(self):
        sweep = Sweep({"a": [1, 2, 3], "b": ["x", "y"]})
        points = sweep.points()
        assert len(points) == 6
        assert {"a": 1, "b": "x"} in points
        assert {"a": 3, "b": "y"} in points

    def test_empty_axes_rejected(self):
        with pytest.raises(ExperimentError):
            Sweep({})
        with pytest.raises(ExperimentError):
            Sweep({"a": []})


class TestRun:
    @pytest.fixture(scope="class")
    def results(self):
        sweep = Sweep({"mtu": [1500, 9000], "cca": ["cubic", "bbr"]})
        return sweep.run(tiny_factory, repetitions=1)

    def test_one_row_per_point(self, results):
        assert len(results) == 4

    def test_where_filters(self, results):
        cubic_rows = results.where(cca="cubic")
        assert len(cubic_rows) == 2
        assert all(r["cca"] == "cubic" for r in cubic_rows.rows)

    def test_one_selects_unique(self, results):
        row = results.one(mtu=9000, cca="bbr")
        assert row.result.mean_energy_j > 0

    def test_one_rejects_ambiguity(self, results):
        with pytest.raises(ExperimentError):
            results.one(cca="cubic")

    def test_series_extraction(self, results):
        energy = {row.params["mtu"]: row.result.mean_energy_j for row in results.where(cca="cubic").rows}
        assert sorted(energy) == [1500, 9000]
        # 1500 is pps-bound and slower, so costlier
        assert energy[1500] > energy[9000]

    def test_measurements_sane(self, results):
        for row in results.rows:
            assert row.result.mean_power_w > 20.0
