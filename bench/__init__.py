"""The repository's benchmark: four workloads, end to end and per layer.

``BENCHMARK.json`` at the repository root is the machine-readable
contract (``python3 bench/run.py --workload W --seed S --seconds T
--trace 0|1``); ``python -m bench`` is the multi-round front end people
run, and ``python -m bench compare A.json B.json`` judges two runs.
See ``bench/README.md``.

This package touches ``repro`` from outside only, and importing it
imports nothing from ``repro`` (the calibration kernel depends on that).
"""
