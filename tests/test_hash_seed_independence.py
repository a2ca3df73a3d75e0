"""Results do not depend on the interpreter's string-hash seed.

``PYTHONHASHSEED`` moves the iteration order of every ``set`` of strings
(host names, flow names, CCA names) from one interpreter to the next.
The ``det-set-iteration`` lint rule bans the syntactic form in the
packages that produce results; this is the measured half, which catches
a set reaching flow or event order by any route. ``bench/`` pins
``PYTHONHASHSEED=0`` and the jobs=1 == jobs=N suites fork workers that
share one seed, so nothing else in the tree varies it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: run in a fresh interpreter: a line that moves with the hash seed
#: (proof the variable arrived), then one measurement per line
CHILD = """
import json
from repro.harness.cache import measurement_to_dict
from repro.harness.experiment import FabricScenario, FlowSpec, Scenario
from repro.harness.runner import run_once

SCENARIOS = [
    # the paper's unfair pair on one bottleneck
    Scenario(
        name="cubic-vs-bbr",
        flows=[
            FlowSpec(total_bytes=400_000, cca="cubic"),
            FlowSpec(total_bytes=400_000, cca="bbr"),
        ],
    ),
    # 60 rpc flows placed by host name on a 16-host leaf-spine fabric
    FabricScenario(
        name="fabric-60", cca="dctcp", policy="fair", n_flows=60,
        mix="rpc", leaves=4, spines=2, hosts_per_leaf=4,
    ),
]
print(list({"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}))
for scenario in SCENARIOS:
    measurement = measurement_to_dict(run_once(scenario, 0))
    print(json.dumps(measurement, sort_keys=True))
"""


def lines_under_hash_seed(seed):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": str(seed)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return done.stdout.splitlines()


def test_measurements_are_byte_equal_across_hash_seeds():
    set_order_1, link_1, fabric_1 = lines_under_hash_seed(1)
    set_order_2, link_2, fabric_2 = lines_under_hash_seed(2)
    assert set_order_1 != set_order_2, "PYTHONHASHSEED did not reach the child"
    assert link_1 == link_2
    assert fabric_1 == fabric_2
