"""Two competing flows of one CCA converge on a fair split."""

from repro.harness.experiment import FlowSpec, Scenario
from repro.harness.runner import run_once


def jain_index(rates):
    """Jain's index, (sum x)^2 / (n * sum x^2): 1 for an even split, 1/n
    when one flow takes everything."""
    return sum(rates) ** 2 / (len(rates) * sum(x * x for x in rates))


class TestConvergenceAnalysis:
    def test_two_competing_cubic_flows_converge(self):
        """End to end: real competing flows approach fair sharing, sample
        by sample while either runs, an idle flow's zero included."""
        scenario = Scenario(
            "conv",
            flows=[FlowSpec(10_000_000, cca="cubic"), FlowSpec(10_000_000, cca="cubic")],
            probe_interval_s=1e-3,
        )
        m = run_once(scenario, seed=0)
        samples = zip(*(s.values for s in m.throughput_series.values()))
        over_time = [jain_index(sample) for sample in samples if any(sample)]
        assert sum(over_time) / len(over_time) > 0.8
