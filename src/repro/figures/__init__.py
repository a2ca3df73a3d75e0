"""Per-figure reproduction pipelines (Figures 1-8 and the §5 extensions)."""
