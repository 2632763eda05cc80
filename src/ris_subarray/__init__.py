"""Subarray-based reconfigurable-surface downlink: phase design and SE/EE."""

from .config import (Angles, ConfigError, PowerConstants, SystemConfig,
                     config_from_dict, load_config, validate_config)
from .metrics import (energy_efficiency, max_se_upper_bound, monte_carlo_se,
                      ris_power, se_upper_bound)
from .phases import (PhaseAssignment, coherence_factor, los_cascade_gain,
                     optimal_phases)
from .sweeps import (SweepResult, draw_angle_tuples, exhaustive_phase_search,
                     sweep_rician_factor, sweep_ris_size, sweep_subarray_count,
                     write_csv)

__version__ = "0.1.0"

__all__ = [
    "Angles", "ConfigError", "PhaseAssignment", "PowerConstants",
    "SweepResult", "SystemConfig", "coherence_factor", "config_from_dict",
    "draw_angle_tuples", "energy_efficiency", "exhaustive_phase_search",
    "load_config", "los_cascade_gain", "max_se_upper_bound", "monte_carlo_se",
    "optimal_phases", "ris_power", "se_upper_bound", "sweep_rician_factor",
    "sweep_ris_size", "sweep_subarray_count", "validate_config", "write_csv",
]
