# Developer entry points. `make check` is the full gate CI runs:
# tier-1 tests, the domain linter, and (when installed) ruff + mypy.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test bench-check loc lint lint-baseline sarif ruff mypy bench bench-sim bench-fabric bench-all obs-bench obs-profile perf-diff fabric-perf-diff baseline obs-diff fabric-baseline fabric-obs-diff pareto-baseline pareto

check: test lint ruff mypy

test:
	$(PYTHON) -m pytest -x -q

# the benchmark's own tests (not tier-1): a refactor that breaks a name
# or option bench/ depends on fails here, not at measurement time
bench-check:
	$(PYTHON) -m pytest bench/tests -q

# source lines per package and in total; every removal PR reports
# the before/after of exactly this
loc:
	@for pkg in src/repro/*/; do \
		printf '%6d %s\n' "$$(find $$pkg -name '*.py' | xargs cat | wc -l)" "$$pkg"; \
	done
	@printf '%6d src (all *.py)\n' "$$(find src -name '*.py' | xargs cat | wc -l)"

LINT_BASELINE = lint-baseline.json

# gate against the committed baseline: pre-existing findings are
# absorbed, anything new fails the build
lint:
	$(PYTHON) -m repro.cli lint src --baseline $(LINT_BASELINE)

# regenerate the committed baseline (deterministic: sorted findings,
# repo-anchored paths, no line numbers); commit the updated JSON
# together with whatever introduced the findings it absorbs
lint-baseline:
	$(PYTHON) -m repro.cli lint src --write-baseline $(LINT_BASELINE)

# machine-readable findings for code-scanning UIs (also a CI artifact)
sarif:
	$(PYTHON) -m repro.cli lint src --sarif > lint.sarif; test $$? -le 1

# ruff/mypy ship in the `lint` extra (pip install -e .[lint]); skip
# gracefully where they are not installed so `make check` stays usable
# in the dependency-free environment the library itself targets.
ruff:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi

mypy:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# how many sweep attempts the BENCH snapshots keep the fastest of;
# min-of-N suppresses scheduler noise in committed numbers
BENCH_BEST_OF ?= 3

# refresh the committed events/sec snapshot (benchmarks/BENCH_sim.json);
# runs the BASELINE_SWEEP scenario set under a recording observer
bench-sim:
	$(PYTHON) benchmarks/bench_sim.py --best-of $(BENCH_BEST_OF)

# refresh the committed 1k-flow fabric snapshot (BENCH_fabric.json);
# runs the FABRIC_SWEEP under a recording observer
bench-fabric:
	$(PYTHON) benchmarks/bench_fabric.py --best-of $(BENCH_BEST_OF)

# refresh both committed perf snapshots in one shot. The workflow after
# an intentional engine change: `make bench-all`, eyeball the deltas,
# commit the updated BENCH_*.json together with the change so the
# perf-diff gate measures the next change against this one.
bench-all: bench-sim bench-fabric

# the observability zero-overhead gate (also a CI step)
obs-bench:
	$(PYTHON) -m pytest -q benchmarks/test_obs_overhead.py

# profile the canonical sweep and export flamegraph/callgrind/chrome
# views (also a CI artifact)
PROFILE_TRACE ?= /tmp/greenenvy-profile-trace
obs-profile:
	rm -rf $(PROFILE_TRACE)
	$(PYTHON) -m repro.cli obs profile $(PROFILE_TRACE)

# re-run the committed perf sweeps and fail on an events/sec regression
# beyond tolerance (the CI perf gate; min-of-N on the fresh side too)
perf-diff:
	$(PYTHON) -m repro.cli obs perf-diff --kind sim --best-of $(BENCH_BEST_OF)

fabric-perf-diff:
	$(PYTHON) -m repro.cli obs perf-diff --kind fabric --best-of $(BENCH_BEST_OF)

# the small traced sweep the committed baseline snapshots; the CI
# obs-diff gate replays exactly this and diffs against it
BASELINE_SWEEP = fig1 --bytes 400000 --reps 2
BASELINE_FILE = benchmarks/baselines/seed.json
BASELINE_TRACE ?= /tmp/greenenvy-baseline-trace

# regenerate the committed baseline (run after an intentional
# behavior change, then commit the updated JSON with the change)
baseline:
	rm -rf $(BASELINE_TRACE)
	$(PYTHON) -m repro.cli $(BASELINE_SWEEP) --trace $(BASELINE_TRACE) >/dev/null
	$(PYTHON) -m repro.cli obs snapshot $(BASELINE_TRACE) -o $(BASELINE_FILE)

# replay the baseline sweep and fail on drift (the CI regression gate)
obs-diff:
	rm -rf $(BASELINE_TRACE)
	$(PYTHON) -m repro.cli $(BASELINE_SWEEP) --trace $(BASELINE_TRACE) >/dev/null
	$(PYTHON) -m repro.cli obs diff $(BASELINE_FILE) $(BASELINE_TRACE)

# the 1k-flow leaf-spine sweep the committed fabric baseline snapshots;
# the CI fabric-obs-diff gate replays exactly this and diffs against it
FABRIC_SWEEP = fabric --flows 1000 --ccas dctcp,dcqcn --mix rpc
FABRIC_BASELINE_FILE = benchmarks/baselines/fabric.json
FABRIC_TRACE ?= /tmp/greenenvy-fabric-trace

# regenerate the committed fabric baseline (run after an intentional
# behavior change, then commit the updated JSON with the change)
fabric-baseline:
	rm -rf $(FABRIC_TRACE)
	$(PYTHON) -m repro.cli $(FABRIC_SWEEP) --trace $(FABRIC_TRACE) >/dev/null
	$(PYTHON) -m repro.cli obs snapshot $(FABRIC_TRACE) -o $(FABRIC_BASELINE_FILE)

# replay the fabric sweep and fail on drift (the CI regression gate)
fabric-obs-diff:
	rm -rf $(FABRIC_TRACE)
	$(PYTHON) -m repro.cli $(FABRIC_SWEEP) --trace $(FABRIC_TRACE) >/dev/null
	$(PYTHON) -m repro.cli obs diff $(FABRIC_BASELINE_FILE) $(FABRIC_TRACE)

# the every-policy FCT-vs-energy sweep (both workloads) the committed
# pareto baseline snapshots; the CI pareto gate replays exactly this
PARETO_SWEEP = pareto
PARETO_BASELINE_FILE = benchmarks/baselines/pareto.json
PARETO_TRACE ?= /tmp/greenenvy-pareto-trace

# regenerate the committed pareto baseline (run after an intentional
# scheduling-policy change, then commit the updated JSON with it)
pareto-baseline:
	rm -rf $(PARETO_TRACE)
	$(PYTHON) -m repro.cli $(PARETO_SWEEP) --trace $(PARETO_TRACE) >/dev/null
	$(PYTHON) -m repro.cli obs snapshot $(PARETO_TRACE) -o $(PARETO_BASELINE_FILE)

# replay the pareto sweep and fail on drift (the CI regression gate)
pareto:
	rm -rf $(PARETO_TRACE)
	$(PYTHON) -m repro.cli $(PARETO_SWEEP) --trace $(PARETO_TRACE) >/dev/null
	$(PYTHON) -m repro.cli obs diff $(PARETO_BASELINE_FILE) $(PARETO_TRACE)
