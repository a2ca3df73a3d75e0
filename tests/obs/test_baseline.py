"""Baselines: snapshotting journals, tolerance-gated drift comparison."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.baseline import (
    DriftRow,
    compare,
    format_drift_table,
    has_regression,
    load_baseline,
    save_baseline,
    snapshot_from_journal,
)


def run_finished(scenario, energy_j, sim_time_s=2.0, retrans=3.0,
                 drops=5.0, wall_s=0.5):
    return {
        "event": "run_finished",
        "scenario": scenario,
        "energy_j": energy_j,
        "sim_time_s": sim_time_s,
        "counters": {
            "retransmissions": retrans,
            "bottleneck_drops": drops,
        },
        "wall_s": wall_s,
    }


def two_arm_events():
    return [
        {"event": "batch_started"},
        run_finished("fig1-fair", 10.0, wall_s=0.4),
        run_finished("fig1-fair", 12.0, wall_s=0.6),
        run_finished("fig1-fsti", 8.0),
        {"event": "batch_finished"},
    ]


class TestSnapshot:
    def test_per_scenario_means_and_run_count(self):
        snapshot = snapshot_from_journal(two_arm_events())
        metrics = snapshot["metrics"]
        assert metrics["total/runs"] == 3.0
        assert metrics["fig1-fair/energy_j"] == pytest.approx(11.0)
        assert metrics["fig1-fsti/energy_j"] == pytest.approx(8.0)
        assert metrics["fig1-fair/sim_time_s"] == pytest.approx(2.0)
        assert metrics["fig1-fair/retransmissions"] == pytest.approx(3.0)
        assert metrics["fig1-fair/bottleneck_drops"] == pytest.approx(5.0)

    def test_savings_derived_against_fair_sibling(self):
        metrics = snapshot_from_journal(two_arm_events())["metrics"]
        # (11 - 8) / 11 energy saved versus the fair arm
        assert metrics["fig1-fsti/savings_vs_fair_percent"] == pytest.approx(
            100.0 * 3.0 / 11.0
        )
        # the fair arm itself carries no savings metric
        assert "fig1-fair/savings_vs_fair_percent" not in metrics

    def test_no_fair_sibling_no_savings(self):
        metrics = snapshot_from_journal(
            [run_finished("solo-run", 5.0)]
        )["metrics"]
        assert not any("savings" in key for key in metrics)

    def test_wall_time_is_not_in_a_snapshot(self):
        snapshot = snapshot_from_journal(two_arm_events())
        assert sorted(snapshot) == ["metrics", "version"]
        assert not any("wall" in key for key in snapshot["metrics"])

    def test_empty_journal_raises(self):
        with pytest.raises(ObservabilityError, match="run_finished"):
            snapshot_from_journal([{"event": "batch_started"}])


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        snapshot = snapshot_from_journal(two_arm_events())
        path = tmp_path / "baselines" / "seed.json"
        save_baseline(snapshot, path)
        assert load_baseline(path) == snapshot
        # committed-friendly: stable text, trailing newline
        assert path.read_text().endswith("\n")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no baseline"):
            load_baseline(tmp_path / "nope.json")

    def test_garbage_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ObservabilityError, match="bad baseline JSON"):
            load_baseline(path)

    def test_wrong_shape_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ObservabilityError, match="metrics"):
            load_baseline(path)


def doc(metrics):
    return {"version": 1, "metrics": metrics}


class TestCompare:
    def test_identical_snapshots_all_ok(self):
        snapshot = snapshot_from_journal(two_arm_events())
        rows = compare(snapshot, snapshot)
        assert rows
        assert all(row.status == "ok" for row in rows)
        assert not has_regression(rows)

    def test_drift_beyond_tolerance_regresses(self):
        base = doc({"fig1-fair/energy_j": 10.0})
        cur = doc({"fig1-fair/energy_j": 10.1})  # 1% >> 1e-4
        (row,) = compare(base, cur)
        assert row.status == "regressed"
        assert row.tolerance == 1e-4
        assert row.rel_delta == pytest.approx(0.01)
        assert has_regression([row])

    def test_drift_within_tolerance_is_ok(self):
        base = doc({"fig1-fair/energy_j": 10.0})
        cur = doc({"fig1-fair/energy_j": 10.0 * (1 + 5e-5)})
        (row,) = compare(base, cur)
        assert row.status == "ok"

    def test_counters_have_zero_tolerance(self):
        base = doc({"fig1-fair/retransmissions": 3.0})
        cur = doc({"fig1-fair/retransmissions": 4.0})
        (row,) = compare(base, cur)
        assert row.tolerance == 0.0
        assert row.status == "regressed"

    @pytest.mark.parametrize("factor, status", [(1.5, "regressed"), (0.5, "ok")])
    @pytest.mark.parametrize(
        "leaf, tolerance",
        [
            ("energy_j", 1e-4),
            ("sim_time_s", 1e-4),
            ("savings_vs_fair_percent", 1e-3),
            ("host_energy_j", 1e-4),  # not in the table: FALLBACK_REL_TOL
        ],
    )
    def test_each_documented_tolerance_is_the_boundary(
        self, leaf, tolerance, factor, status
    ):
        key = f"fig1-fsti/{leaf}"
        drifted = 40.0 * (1.0 + factor * tolerance)
        (row,) = compare(doc({key: 40.0}), doc({key: drifted}))
        assert row.status == status

    @pytest.mark.parametrize(
        "key", ["fig1-fair/retransmissions", "fig1-fair/bottleneck_drops", "total/runs"]
    )
    def test_a_count_that_moves_by_one_regresses(self, key):
        (row,) = compare(doc({key: 1000.0}), doc({key: 1001.0}))
        assert row.status == "regressed"

    def test_missing_metric_gates(self):
        rows = compare(doc({"gone/energy_j": 1.0}), doc({}))
        (row,) = rows
        assert row.status == "missing"
        assert row.current is None
        assert has_regression(rows)

    def test_new_metric_is_informational(self):
        rows = compare(doc({}), doc({"fresh/energy_j": 1.0}))
        (row,) = rows
        assert row.status == "new"
        assert row.baseline is None
        assert not has_regression(rows)

    def test_tolerance_override_by_leaf_name(self):
        base = doc({"fig1-fair/energy_j": 10.0})
        cur = doc({"fig1-fair/energy_j": 10.1})
        (row,) = compare(base, cur, tolerances={"energy_j": 0.05})
        assert row.status == "ok"
        assert row.tolerance == 0.05

    def test_rows_sorted_by_key(self):
        base = doc({"z/energy_j": 1.0, "a/energy_j": 1.0})
        keys = [row.key for row in compare(base, base)]
        assert keys == sorted(keys)


class TestDriftTable:
    def test_gating_rows_shout_and_verdict_counts_them(self):
        rows = [
            DriftRow("a/energy_j", 1.0, 1.0, 0.0, 1e-4, "ok"),
            DriftRow("b/energy_j", 1.0, 2.0, 1.0, 1e-4, "regressed"),
            DriftRow("c/energy_j", 1.0, None, float("inf"), 1e-4, "missing"),
        ]
        text = format_drift_table(rows)
        assert "REGRESSED" in text
        assert "MISSING" in text
        assert "DRIFT: 2 metric(s) beyond tolerance" in text

    def test_clean_rows_get_ok_verdict(self):
        rows = [DriftRow("a/energy_j", 1.0, 1.0, 0.0, 1e-4, "ok")]
        assert "ok: 1 metric(s) within tolerance" in format_drift_table(rows)

    def test_no_rows(self):
        assert format_drift_table([]) == "no metrics to compare"
