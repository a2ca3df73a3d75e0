"""Tests for the subflow-multiplexing (MPTCP) energy experiment."""

import pytest

from repro.figures.mptcp import run_mptcp_comparison


@pytest.fixture(scope="module")
def result():
    return run_mptcp_comparison(total_bytes=8_000_000, subflows=4)


class TestMptcp:
    def test_shared_subflows_cost_like_single(self, result):
        """Multiplexing on one package is nearly free ([59]'s good case)."""
        assert result.arms["subflows-shared"].mean_energy_j == pytest.approx(
            result.arms["single"].mean_energy_j, rel=0.1
        )

    def test_spreading_subflows_is_expensive(self, result):
        """One package per subflow keeps k idle floors awake."""
        assert result.spread_penalty() > 1.0

    def test_penalty_at_least_the_idle_floors(self, result):
        """Spreading pays (k-1) extra idle floors plus each package's
        concave ramp for its C/k share — so the extra energy exceeds the
        pure idle-floor estimate but stays the same order of magnitude."""
        single = result.arms["single"].runs[0]
        spread = result.arms["subflows-spread"].runs[0]
        extra = spread.energy_j - single.energy_j
        from repro.energy import calibration as cal

        idle_floors = (result.subflows - 1) * cal.P_IDLE_W * single.duration_s
        assert idle_floors < extra < 2.5 * idle_floors

    def test_durations_comparable(self, result):
        durations = [result.arms[name].mean_duration_s for name in result.arms]
        assert max(durations) < 1.3 * min(durations)

    def test_table_renders(self, result):
        table = result.format_table()
        assert "subflows-spread" in table
