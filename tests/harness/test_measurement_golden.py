"""Golden measurements: every field ``measurement_to_dict`` writes, for
three runs at seed 0 that no other pin covers.

- a fat-tree fabric (the only topology no figure golden builds);
- a small leaf-spine fabric;
- a DCTCP + CUBIC pair on the testbed, each flow's ECN negotiated from
  its CCA (DCTCP's packets are marked, CUBIC's are not).

Floats are compared exactly (JSON writes each as its ``repr``). A
change that means to keep every run the same run must leave
``tests/golden/runs/measurements.json`` unchanged. To regenerate after
a deliberate change, run ``PYTHONPATH=src python -m
tests.harness.test_measurement_golden`` and review the diff.
"""

import json
from pathlib import Path

from repro.harness.cache import measurement_to_dict
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.harness.runner import run_once

GOLDEN = (
    Path(__file__).resolve().parent.parent / "golden" / "runs" / "measurements.json"
)

SCENARIOS = (
    FabricScenario("golden-fat-tree", topology="fat-tree", n_flows=50, mix="web-search"),
    FabricScenario(
        "golden-leaf-spine",
        n_flows=50,
        mix="web-search",
        leaves=2,
        spines=1,
        hosts_per_leaf=8,
    ),
    Scenario(
        "golden-dctcp-cubic",
        flows=[FlowSpec(1_000_000, cca="dctcp"), FlowSpec(1_000_000)],
    ),
)


def render():
    runs = {s.name: measurement_to_dict(run_once(s, seed=0)) for s in SCENARIOS}
    return json.dumps(runs, indent=1, sort_keys=True) + "\n"


def test_measurements_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(), encoding="utf-8")
