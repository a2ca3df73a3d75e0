"""Analysis: statistics, concavity diagnostics, table formatting."""
