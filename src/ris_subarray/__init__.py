"""Subarray-based reconfigurable-surface downlink: phase design and SE/EE."""

import importlib

__version__ = "0.1.0"

# Public name -> submodule defining it. A name is imported on first use
# (PEP 562), so `import ris_subarray` loads no submodule, while
# `from ris_subarray import ...` works as before.
_MODULE_OF = {name: module for module, names in (
    ("config", "Angles ConfigError PowerConstants SystemConfig config_from_dict"
               " load_config ris_power"),
    ("design", "optimal_phases"),
    ("metrics", "max_se_upper_bound"),
    ("phases", "coherence_factor"),
    ("regional", "sweep_ris_size sweep_subarray_count"),
    ("sampler", "monte_carlo_se"),
    ("sweeps", "SweepResult sweep_rician_factor write_csv"),
) for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    globals()[name] = value = getattr(module, name)
    return value
