"""Analysis: statistics, concavity diagnostics, table formatting."""

from __future__ import annotations

from repro._lazy import lazy_exports

#: public name -> the submodule that defines it, imported on first use
_EXPORTS = {
    "bootstrap_ci": "stats",
    "fairness_over_time": "convergence",
    "convergence_time": "convergence",
    "mean_fairness": "convergence",
    "run_to_dict": "export",
    "repeated_to_dict": "export",
    "runs_to_csv": "export",
    "to_json": "export",
    "save_json": "export",
    "save_csv": "export",
    "mean": "stats",
    "sample_std": "stats",
    "pearson": "stats",
    "percentile": "stats",
    "linear_fit": "stats",
    "geometric_mean": "stats",
    "is_concave": "concavity",
    "is_increasing": "concavity",
    "marginal_powers": "concavity",
    "has_decreasing_marginals": "concavity",
    "chord_gap": "concavity",
    "chord_always_below": "concavity",
    "format_table": "tables",
    "format_series": "tables",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
