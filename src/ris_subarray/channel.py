"""Empty: the Rician split and channel model are in ris_subarray.metrics.
Kept only because bench/tracing.py imports it; it goes with that import."""
