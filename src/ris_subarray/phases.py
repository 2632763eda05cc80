"""Closed-form subarray phase design and coherent-alignment analysis.

Phases are a length-Q array of shifts in radians, one per subarray, each
scaling a length-L segment of the surface-to-user response. The LoS
geometry enters only through two per-axis phase slopes: they give the
subarray couplings, the closed-form design aligning them, and the coherence
factor, the LoS array gain retained relative to per-element control. Only
the functions on phase or coupling arrays import numpy, when they run.
"""

from __future__ import annotations

import math

from .config import TWO_PI, SystemConfig

# Below this, sin(p) is treated as exactly at a grating point p = k*pi, where
# the normalized kernel has a removable singularity with limit of modulus 1.
_SING_TOL = 1e-9


def phase_slopes(cfg: SystemConfig, angles=None) -> tuple[float, float]:
    """Per-axis, per-element phase progression mismatch between the departure
    and arrival paths across the surface, in [-pi, pi] for spacings up to
    half a wavelength, for one unchecked tuple of finite angles in Angles
    field order; by default the config's own."""
    theta_a1, phi_a1, theta_d2, phi_d2 = cfg.angles if angles is None else angles
    d = cfg.d2_over_lambda
    p1 = math.pi * d * (math.sin(theta_d2) - math.sin(theta_a1))
    p2 = math.pi * d * (math.sin(phi_d2) * math.cos(theta_d2)
                        - math.sin(phi_a1) * math.cos(theta_a1))
    return p1, p2


def optimal_phases(cfg: SystemConfig):
    """Closed-form phases in [0, 2*pi) maximizing the LoS cascade gain.

    Each subarray cancels the accumulated offset of its origin plus half the
    within-subarray progression, so all subarray couplings add coherently.
    The origin offsets are per axis; subarrays are numbered x-major.
    """
    import numpy as np
    p1, p2 = phase_slopes(cfg)
    x, y = np.arange(cfg.Qx) * float(cfg.Lx), np.arange(cfg.Qy) * float(cfg.Ly)
    raw = -(np.add.outer(2.0 * p1 * x, 2.0 * p2 * y).ravel()
            + p1 * (cfg.Lx - 1) + p2 * (cfg.Ly - 1))
    return np.mod(raw, TWO_PI)


def _normalized_kernel(L: int, p: float) -> float:
    """sin(L*p) / (L*sin(p)), with its removable singularities filled in and
    clamped to [-1, 1]; exactly 1 for L = 1, as the ratio s / s is.

    At p = k*pi both sines vanish at matching order and the ratio tends to
    +-1; the factor is squared downstream, so 1.0 is filled in. Just past
    the fill threshold rounding can leave the ratio beyond +-1.
    """
    if L == 1 or abs(s := math.sin(p)) < _SING_TOL:
        return 1.0
    ratio = math.sin(L * p) / (L * s)
    return 1.0 if ratio > 1.0 else -1.0 if ratio < -1.0 else ratio


def coherence_factor_from_slopes(Lx: int, p1: float, Ly: int, p2: float) -> float:
    """Squared product of the per-axis normalized kernels, in [0, 1]."""
    # x * x differs from pow(x, 2) in the last bit on about 0.1% of values,
    # and the regional CSVs are pinned to pow's.
    return math.pow(_normalized_kernel(Lx, p1) * _normalized_kernel(Ly, p2), 2)


def coherence_factor(cfg: SystemConfig) -> float:
    """Fraction of the coherent LoS array gain a subarray of shared-phase
    elements retains. Equals 1 for per-element control (Lx = Ly = 1) and for
    specular geometry; equals 0 when a subarray straddles a full grating null."""
    p1, p2 = phase_slopes(cfg)
    return coherence_factor_from_slopes(cfg.Lx, p1, cfg.Ly, p2)


def subarray_couplings(cfg: SystemConfig):
    """Length-Q LoS coupling of each subarray before its phase is applied:
    the sum over its elements (ix, iy) of e^{2j(p1*ix + p2*iy)}, the
    departure response times the conjugated arrival response. The sum
    factorizes per axis; subarrays are numbered x-major."""
    import numpy as np
    p1, p2 = phase_slopes(cfg)
    ex = np.exp(2j * p1 * np.arange(cfg.Nx)).reshape(cfg.Qx, cfg.Lx).sum(axis=1)
    ey = np.exp(2j * p2 * np.arange(cfg.Ny)).reshape(cfg.Qy, cfg.Ly).sum(axis=1)
    return np.outer(ex, ey).ravel()


def los_cascade_gain(cfg: SystemConfig, phases) -> float:
    """Squared norm of the LoS cascade row vector under length-Q phases.

    Equals |sum_q e^{j phi_q} w_q|^2 * M for the subarray couplings w_q; at
    the optimum this is coherence_factor * N^2 * M.
    """
    import numpy as np
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (cfg.Q,):
        raise ValueError(
            f"phases must have shape ({cfg.Q},) for Q={cfg.Q}, got {phases.shape}")
    z = np.sum(np.exp(1j * phases) * subarray_couplings(cfg))
    return float((z * z.conjugate()).real * cfg.M)
