"""The paper's primary contribution: energy-aware allocation analysis."""
