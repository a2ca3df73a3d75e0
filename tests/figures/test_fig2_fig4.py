"""Tests for the Figure 2 and Figure 4 pipelines."""

import pytest

from repro.analysis.concavity import is_concave, is_increasing
from repro.energy import calibration as cal
from repro.energy.power_model import PowerModel
from repro.figures.fig2 import run_fig2
from repro.figures.fig4 import run_fig4
from repro.obs.journal import read_journal
from repro.obs.observer import TracingObserver

THROUGHPUTS = (0.0, 2.0, 5.0, 8.0, 10.0)


@pytest.fixture(scope="module")
def fig2():
    return run_fig2(
        throughputs_gbps=THROUGHPUTS, window_s=5e-3, repetitions=2
    )


class TestFig2:
    def test_idle_point_matches_paper(self, fig2):
        idle = fig2.smooth[0]
        assert idle.mean_power_w == PowerModel().smooth_sending_power_w(0.0)

    def test_half_rate_near_anchor(self, fig2):
        half = [p for p in fig2.smooth if p.target_gbps == 5.0][0]
        assert half.mean_power_w == pytest.approx(cal.P_HALF_RATE_W, rel=0.03)

    def test_smooth_curve_concave_increasing(self, fig2):
        points = fig2.smooth_curve()
        assert is_increasing(points, tol=0.3)
        assert is_concave(points, tol=0.3)

    def test_chord_below_curve(self, fig2):
        smooth = {t: p for t, p in fig2.smooth_curve()}
        for t, chord_power in fig2.chord_curve():
            if 0 < t < 10:
                assert chord_power < smooth[t]

    def test_burst_series_roughly_linear(self, fig2):
        pts = fig2.chord_curve()
        (x0, y0), (xn, yn) = pts[0], pts[-1]
        slope = (yn - y0) / (xn - x0)
        for x, y in pts[1:-1]:
            assert y == pytest.approx(y0 + slope * (x - x0), abs=1.5)

    def test_table_renders(self, fig2):
        assert "throughput" in fig2.format_table()

    def test_pooled_traced_run_is_bit_identical_and_journals_sweeps(
        self, fig2, tmp_path
    ):
        # Both series go through Sweep like every other figure: a
        # process pool and a trace move no bit of either series, and
        # the journal brackets each series with the sweep events.
        with TracingObserver(tmp_path) as obs:
            pooled = run_fig2(
                throughputs_gbps=THROUGHPUTS, window_s=5e-3, repetitions=2,
                jobs=2, observer=obs,
            )
        assert pooled == fig2
        events = [e["event"] for e in read_journal(tmp_path)]
        assert events.count("sweep_started") == 2
        assert events.count("sweep_finished") == 2
        assert events.count("batch_started") == 2


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(
        loads=(0.0, 0.25, 0.75),
        throughputs_gbps=(0.0, 5.0, 10.0),
        window_s=5e-3,
        repetitions=2,
    )


class TestFig4:
    def test_load_shifts_curve_up(self, fig4):
        idle_curve = {p.target_gbps: p.mean_power_w for p in fig4.curves[0.0]}
        loaded_curve = {p.target_gbps: p.mean_power_w for p in fig4.curves[0.75]}
        for t in (0.0, 5.0, 10.0):
            assert loaded_curve[t] > idle_curve[t] + 55

    def test_savings_shrink_with_load(self, fig4):
        s0 = fig4.savings_fsti_vs_fair_percent(0.0)
        s25 = fig4.savings_fsti_vs_fair_percent(0.25)
        s75 = fig4.savings_fsti_vs_fair_percent(0.75)
        assert s0 > s25 > s75 > 0

    def test_savings_match_paper_bands(self, fig4):
        assert fig4.savings_fsti_vs_fair_percent(0.0) == pytest.approx(16.3, abs=1.5)
        assert fig4.savings_fsti_vs_fair_percent(0.25) == pytest.approx(1.0, abs=0.5)
        assert fig4.savings_fsti_vs_fair_percent(0.75) == pytest.approx(0.17, abs=0.15)

    def test_table_renders(self, fig4):
        table = fig4.format_table()
        assert "load 75%" in table
