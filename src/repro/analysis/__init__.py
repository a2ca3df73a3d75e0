"""Analysis: statistics, concavity diagnostics, table formatting."""

from __future__ import annotations

from repro.analysis.concavity import (
    chord_always_below,
    chord_gap,
    has_decreasing_marginals,
    is_concave,
    is_increasing,
    marginal_powers,
)
from repro.analysis.convergence import (
    convergence_time,
    fairness_over_time,
    mean_fairness,
)
from repro.analysis.export import (
    run_to_dict,
    repeated_to_dict,
    runs_to_csv,
    save_csv,
    save_json,
    to_json,
)
from repro.analysis.report import Report, ReportSection, quick_report
from repro.analysis.stats import (
    bootstrap_ci,
    geometric_mean,
    linear_fit,
    mean,
    pearson,
    percentile,
    sample_std,
)
from repro.analysis.tables import format_series, format_table

__all__ = [
    "Report",
    "ReportSection",
    "quick_report",
    "bootstrap_ci",
    "fairness_over_time",
    "convergence_time",
    "mean_fairness",
    "run_to_dict",
    "repeated_to_dict",
    "runs_to_csv",
    "to_json",
    "save_json",
    "save_csv",
    "mean",
    "sample_std",
    "pearson",
    "percentile",
    "linear_fit",
    "geometric_mean",
    "is_concave",
    "is_increasing",
    "marginal_powers",
    "has_decreasing_marginals",
    "chord_gap",
    "chord_always_below",
    "format_table",
    "format_series",
]
