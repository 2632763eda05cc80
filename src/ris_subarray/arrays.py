"""Empty: the subarray layout is computed per axis in ris_subarray.phases.
Kept only because bench/tracing.py imports it; it goes with that import."""
