"""Closed-form subarray phase design and coherent-alignment analysis.

A phase configuration assigns one shift per subarray; applying it scales each
length-L segment of the surface-to-user response. The closed-form design
aligns every subarray's LoS coupling, and the coherence factor quantifies the
LoS array gain retained relative to per-element control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import arrival_phase_offsets, departure_phase_offsets, upa_steering
from .config import TWO_PI, SystemConfig, subarray_grid_offsets

# Below this, sin(p) is treated as exactly at a grating point p = k*pi, where
# the normalized kernel has a removable singularity with limit of modulus 1.
_SING_TOL = 1e-9


@dataclass
class PhaseAssignment:
    """One phase shift per subarray, stored in [0, 2*pi)."""

    phases: np.ndarray

    def __post_init__(self):
        self.phases = np.mod(np.asarray(self.phases, dtype=float), TWO_PI)


def phase_slopes(cfg: SystemConfig) -> tuple[float, float]:
    """Per-axis, per-element phase progression mismatch between the departure
    and arrival paths across the surface. Both lie in [-pi, pi] for spacings
    up to half a wavelength."""
    a = cfg.angles
    d = cfg.d2_over_lambda
    p1 = math.pi * d * (math.sin(a.theta_d2) - math.sin(a.theta_a1))
    p2 = math.pi * d * (math.sin(a.phi_d2) * math.cos(a.theta_d2)
                        - math.sin(a.phi_a1) * math.cos(a.theta_a1))
    return p1, p2


def optimal_phases(cfg: SystemConfig) -> PhaseAssignment:
    """Closed-form phase assignment maximizing the LoS cascade gain.

    Each subarray cancels the accumulated offset of its origin plus half the
    within-subarray progression, so all subarray couplings add coherently.
    """
    p1, p2 = phase_slopes(cfg)
    x, y = subarray_grid_offsets(cfg)
    raw = -(2.0 * p1 * x + 2.0 * p2 * y
            + p1 * (cfg.Lx - 1) + p2 * (cfg.Ly - 1))
    return PhaseAssignment(raw)


def _normalized_kernel(L: int, p: float) -> float:
    """sin(L*p) / (L*sin(p)) with its removable singularities filled in.

    At p = k*pi both sines vanish at matching order and the ratio tends to
    +-1; the factor is squared downstream, so 1.0 is returned.
    """
    if abs(math.sin(p)) < _SING_TOL:
        return 1.0
    return math.sin(L * p) / (L * math.sin(p))


def coherence_factor_from_slopes(Lx: int, p1: float, Ly: int, p2: float) -> float:
    """Squared product of the per-axis normalized kernels, in [0, 1]."""
    fx = min(1.0, max(-1.0, _normalized_kernel(Lx, p1)))
    fy = min(1.0, max(-1.0, _normalized_kernel(Ly, p2)))
    return (fx * fy) ** 2


def coherence_factor(cfg: SystemConfig) -> float:
    """Fraction of the coherent LoS array gain a subarray of shared-phase
    elements retains. Equals 1 for per-element control (Lx = Ly = 1) and for
    specular geometry; equals 0 when a subarray straddles a full grating null."""
    p1, p2 = phase_slopes(cfg)
    return coherence_factor_from_slopes(cfg.Lx, p1, cfg.Ly, p2)


def subarray_couplings(cfg: SystemConfig) -> np.ndarray:
    """Length-Q LoS coupling of each subarray before its phase is applied.

    The cascade through subarray q is its departure offset times its arrival
    offset times the inner product of the two surface responses restricted to
    one subarray; the inner product is shared by all subarrays.
    """
    a_arr = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                         cfg.angles.theta_a1, cfg.angles.phi_a1)
    a_dep = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                         cfg.angles.theta_d2, cfg.angles.phi_d2)
    inner = np.sum(a_dep * a_arr.conj())
    return departure_phase_offsets(cfg) * arrival_phase_offsets(cfg) * inner


def los_cascade_gain(cfg: SystemConfig, assignment: PhaseAssignment) -> float:
    """Squared norm of the LoS cascade row vector under the given phases.

    Equals |sum_q e^{j phi_q} w_q|^2 * M for the subarray couplings w_q; at
    the optimum this is coherence_factor * N^2 * M.
    """
    phases = _checked_phases(cfg, assignment)
    z = np.sum(np.exp(1j * phases) * subarray_couplings(cfg))
    return float((z * z.conjugate()).real * cfg.M)


def _checked_phases(cfg: SystemConfig, assignment: PhaseAssignment) -> np.ndarray:
    phases = assignment.phases
    if phases.shape != (cfg.Q,):
        raise ValueError(
            f"phase assignment has {phases.shape[0]} entries, config has Q={cfg.Q}")
    return phases
