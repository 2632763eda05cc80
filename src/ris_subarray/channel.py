"""Empty: the channel law is ris_subarray.sampler._law_rate, and only the
Rician split (rician_split) is in ris_subarray.metrics.
Kept only because bench/tracing.py imports it; it goes with that import."""
