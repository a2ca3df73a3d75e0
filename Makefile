# Developer entry points. `make check` is the code gate CI runs: tier-1
# tests, the benchmark's contract tests (bench-check), the mutation
# probe's own tests (mutants-check), the domain linter, and (when
# installed) ruff + mypy. Beyond it CI replays the three
# committed behaviour baselines and fails on drift: `make obs-diff`,
# `make fabric-obs-diff` and `make pareto` (plus artifact-only steps:
# the obs watch smoke, obs-profile), and on one Python version checks the
# paper's claims at reproduction size with `make claims`.
#
# The perf gates are exact counts inside tier-1, never a timing:
# tests/test_work_counters.py (work per run, frames per segment),
# tests/obs/test_overhead_frames.py (tracing off costs no frame) and
# tests/test_import_budget.py (the modules a run imports). Three targets
# print numbers and gate nothing: `make loc` (source lines per package),
# `make imports` (the numbers behind the import budget) and `make frames`
# (frames per stage of a packet's life: the table in docs/architecture.md,
# which tests/test_frames_table.py compares with it on Python 3.11). One
# target prints numbers beside `make loc`'s and gates a count: `make reach`
# (never-run lines per package; it fails on a function no entry point runs
# that has no REACH_KEPT row, CI on one Python version).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test bench-check mutants-check loc reach imports frames lint ruff mypy claims obs-profile baseline obs-diff fabric-baseline fabric-obs-diff pareto-baseline pareto

check: test bench-check mutants-check lint ruff mypy

test:
	$(PYTHON) -m pytest -x -q

# the benchmark's own tests (not tier-1, ~25 s): a refactor that inlines
# away or renames a function bench/trace.py counts frames of
# (Simulator.schedule_at, Event.cancel, Switch.receive,
# TcpSender._send_packet/_handle_packet/_on_rto, CpuPackage.flush) or a
# name or option bench/layers.py builds with fails here, not at
# measurement time
bench-check:
	$(PYTHON) -m pytest bench/tests -q

# the mutation probe's own tests (not tier-1, ~15 s): its operators, its
# stable site ids, a killed and a surviving mutant reported, a run past
# its timeout killed with its process group, and the execution census on
# a toy package. The probe itself is
# `python -m mutants repro.obs repro.harness` (mutants/README.md)
mutants-check:
	$(PYTHON) -m pytest mutants/tests -q

# source lines per package ([a-z]*: not __pycache__), per top-level
# module (cli.py ...) and in total; every removal PR reports the
# before/after of exactly this
loc:
	@for pkg in src/repro/[a-z]*/; do \
		printf '%6d %s\n' "$$(find $$pkg -name '*.py' | xargs cat | wc -l)" "$$pkg"; \
	done
	@for module in src/repro/*.py; do \
		printf '%6d %s\n' "$$(wc -l < $$module)" "$$module"; \
	done
	@printf '%6d src (all *.py)\n' "$$(find src -name '*.py' | xargs cat | wc -l)"

# the execution census (not tier-1, ~3 min): every entry point run
# in-process under the mutation probe's tracer (mutants/entries.py), then
# the never-run lines per package and the functions no entry point runs;
# exits 1 on such a function without a REACH_KEPT row (mutants/reach.py)
# or on a stale row
reach:
	$(PYTHON) -m mutants.reach

# what four entry points import: `repro` modules loaded, and the
# `-X importtime` cumulative time (fastest of five fresh interpreters),
# cold and warm. Cold is how bench/run.py's children import: with
# PYTHONDONTWRITEBYTECODE=1 and no bytecode of the repo's own modules,
# so each is compiled from source (the standard library's bytecode is
# read, as it is there); warm reads a bytecode cache of both. Both
# caches live in throwaway PYTHONPYCACHEPREFIX directories.
# The gate on the first number is tests/test_import_budget.py.
IMPORT_ENTRY_POINTS = repro.harness.runner repro.harness.executor repro.figures.fig1 repro.cli
imports:
	@warm=$$(mktemp -d); cold=$$(mktemp -d); \
	for module in $(IMPORT_ENTRY_POINTS); do \
		env -u PYTHONDONTWRITEBYTECODE PYTHONPYCACHEPREFIX=$$warm $(PYTHON) -c "import $$module"; \
	done; \
	cp -R $$warm/. $$cold; rm -rf "$$cold$(CURDIR)/src"; \
	for module in $(IMPORT_ENTRY_POINTS); do \
		count=$$($(PYTHON) -c "import $$module, sys; print(sum(name.split('.')[0] == 'repro' for name in sys.modules))"); \
		for cache in $$cold $$warm; do \
			for run in 1 2 3 4 5; do \
				PYTHONDONTWRITEBYTECODE=1 PYTHONPYCACHEPREFIX=$$cache $(PYTHON) -X importtime -c "import $$module" 2>&1 | tail -1 | cut -d'|' -f2; \
			done | sort -n | head -1; \
		done | { read cold_us; read warm_us; \
			printf '%-22s %3d repro modules %4d ms cold %4d ms warm\n' $$module $$count $$((cold_us / 1000)) $$((warm_us / 1000)); }; \
	done; \
	rm -rf $$warm $$cold

# the "Life of a packet" table of docs/architecture.md: Python frames
# per stage on the dumbbell_sweep shape of tests/test_work_counters.py,
# counted with tests.conftest.count_calls. Paste its output into the
# table's last column (tests/test_frames_table.py fails until it is);
# the gate on its last row is FRAMES_PER_SEGMENT_CEILING.
frames:
	@$(PYTHON) -m tests.frames

# the one gate mode: the tree lints clean, nothing absorbs a finding
lint:
	$(PYTHON) -m repro.cli lint src examples

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

# the paper's claims at reproduction size: every command whose claims
# have a tolerance (figures/specs.py), at 12.5 MB per two-flow transfer
# and 20 MB per grid cell, 2 repetitions; stops at the first command
# that exits non-zero
claims:
	$(PYTHON) -m repro.cli validate
	$(PYTHON) -m repro.cli theorem --flows 2 --trials 2000
	$(PYTHON) -m repro.cli theorem --flows 3 --trials 2000
	$(PYTHON) -m repro.cli theorem --flows 4 --trials 2000
	$(PYTHON) -m repro.cli theorem --flows 8 --trials 2000
	$(PYTHON) -m repro.cli fig2 --reps 2
	$(PYTHON) -m repro.cli fig4 --reps 2
	$(PYTHON) -m repro.cli srpt
	$(PYTHON) -m repro.cli incast --bytes 20000000
	$(PYTHON) -m repro.cli workload --distribution web-search
	$(PYTHON) -m repro.cli workload --distribution data-mining
	$(PYTHON) -m repro.cli report --bytes 12500000 --reps 2
	$(PYTHON) -m repro.cli grid --bytes 20000000 --reps 2

# run the canonical sweep with cProfile over each sim loop and export
# flamegraph/callgrind/chrome views, layer -> function (also a CI
# artifact)
PROFILE_TRACE ?= /tmp/greenenvy-profile-trace
obs-profile:
	$(PYTHON) -m repro.cli obs profile $(PROFILE_TRACE)

# Three committed baselines share one pair of recipes: a traced sweep
# is snapshotted into its baseline file (run after an intentional
# behavior change, then commit the updated JSON with the change), and
# replayed + diffed against it (the CI regression gates).
# $(1) = sweep arguments, $(2) = baseline file, $(3) = trace directory
define snapshot-baseline
	$(PYTHON) -m repro.cli $(1) --trace $(3) >/dev/null
	$(PYTHON) -m repro.cli obs snapshot $(3) -o $(2)
endef

define diff-baseline
	$(PYTHON) -m repro.cli $(1) --trace $(3) >/dev/null
	$(PYTHON) -m repro.cli obs diff $(2) $(3)
endef

# the small traced fig1 sweep
BASELINE_SWEEP = fig1 --bytes 400000 --reps 2
BASELINE_FILE = benchmarks/baselines/seed.json
BASELINE_TRACE ?= /tmp/greenenvy-baseline-trace

baseline:
	$(call snapshot-baseline,$(BASELINE_SWEEP),$(BASELINE_FILE),$(BASELINE_TRACE))

obs-diff:
	$(call diff-baseline,$(BASELINE_SWEEP),$(BASELINE_FILE),$(BASELINE_TRACE))

# the 1k-flow leaf-spine sweep
FABRIC_SWEEP = fabric --flows 1000 --ccas dctcp,dcqcn --mix rpc
FABRIC_BASELINE_FILE = benchmarks/baselines/fabric.json
FABRIC_TRACE ?= /tmp/greenenvy-fabric-trace

fabric-baseline:
	$(call snapshot-baseline,$(FABRIC_SWEEP),$(FABRIC_BASELINE_FILE),$(FABRIC_TRACE))

fabric-obs-diff:
	$(call diff-baseline,$(FABRIC_SWEEP),$(FABRIC_BASELINE_FILE),$(FABRIC_TRACE))

# the every-policy FCT-vs-energy sweep (both workloads)
PARETO_SWEEP = pareto
PARETO_BASELINE_FILE = benchmarks/baselines/pareto.json
PARETO_TRACE ?= /tmp/greenenvy-pareto-trace

pareto-baseline:
	$(call snapshot-baseline,$(PARETO_SWEEP),$(PARETO_BASELINE_FILE),$(PARETO_TRACE))

pareto:
	$(call diff-baseline,$(PARETO_SWEEP),$(PARETO_BASELINE_FILE),$(PARETO_TRACE))
