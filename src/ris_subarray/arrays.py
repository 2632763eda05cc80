"""Empty: the subarray couplings and phases are in ris_subarray.design, the
per-axis phase slopes in ris_subarray.phases.
Kept only because bench/tracing.py imports it; it goes with that import."""
