"""Shared helpers for the simlint test suite.

Fixture sources live under ``fixtures/``; they are lint *inputs*, not
importable code, so several deliberately contain violations (one does
not even parse). The ``lint`` fixture runs the engine over named
fixture paths, optionally restricted to a rule subset.
"""

from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: every fixture file expected to pass the full rule set
CLEAN_FIXTURES = (
    "units/clean_units.py",
    "determinism/clean_entropy.py",
    "determinism/outside_scope.py",
    "determinism/obs_outside_scope.py",
    "determinism/sim/clean_sets.py",
    "determinism/sim/rng.py",
    "determinism/clean_probe.py",
    "contract/cc/base.py",
    "contract/cc/good.py",
    "contract/cc/good_child.py",
    "contract/cc/registry.py",
    "contract_noreg/cc/orphan.py",
    "hygiene/clean_hygiene.py",
    "hygiene/sched_literals_ok.py",
    "hygiene/sched/in_package.py",
)


@pytest.fixture
def lint():
    def _lint(*rel, select=None, ignore=None):
        return run_lint(
            [str(FIXTURES / r) for r in rel], select=select, ignore=ignore
        )

    return _lint


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def clean_fixture_names():
    return CLEAN_FIXTURES
