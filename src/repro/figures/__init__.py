"""Per-figure reproduction pipelines (Figures 1-8 plus ablations)."""
