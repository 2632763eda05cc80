"""Subarray-based reconfigurable-surface downlink: phase design and SE/EE."""

from .arrays import (arrival_phase_offsets, departure_phase_offsets,
                     ula_steering, upa_steering)
from .channel import los_bs_to_ris, los_ris_to_user, rician_mixing_weights
from .config import (Angles, ConfigError, SystemConfig, config_from_dict,
                     element_index, load_config, subarray_grid_offsets,
                     subarray_origin, validate_config, with_subarray_size)
from .metrics import (PowerConstants, RicianWeights, SeGap, energy_efficiency,
                      max_se_upper_bound, max_se_upper_bound_element,
                      monte_carlo_se, rician_weights, ris_power, se_bound_gap,
                      se_upper_bound)
from .phases import (PhaseAssignment, coherence_factor,
                     coherence_factor_from_slopes, los_cascade_gain,
                     optimal_phases, phase_slopes, subarray_couplings)
from .sweeps import (SweepResult, default_l0_grid, draw_angle_tuples,
                     exhaustive_phase_search, grid_resolution_slack,
                     point_seed, rows_to_csv, sweep_rician_factor,
                     sweep_ris_size, sweep_subarray_count, write_csv)

__version__ = "0.1.0"

__all__ = [
    "Angles", "ConfigError", "PhaseAssignment", "PowerConstants",
    "RicianWeights", "SeGap", "SweepResult", "SystemConfig",
    "arrival_phase_offsets", "coherence_factor", "coherence_factor_from_slopes",
    "config_from_dict", "default_l0_grid", "departure_phase_offsets",
    "draw_angle_tuples", "element_index", "energy_efficiency",
    "exhaustive_phase_search", "grid_resolution_slack", "load_config",
    "los_bs_to_ris", "los_cascade_gain", "los_ris_to_user",
    "max_se_upper_bound", "max_se_upper_bound_element", "monte_carlo_se",
    "optimal_phases", "phase_slopes", "point_seed", "rician_mixing_weights",
    "rician_weights", "ris_power", "rows_to_csv", "se_bound_gap",
    "se_upper_bound", "subarray_couplings", "subarray_grid_offsets",
    "subarray_origin", "sweep_rician_factor", "sweep_ris_size",
    "sweep_subarray_count", "ula_steering", "upa_steering", "validate_config",
    "with_subarray_size", "write_csv",
]
