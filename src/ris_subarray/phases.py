"""The per-axis phase slopes and the coherence factor.

The LoS geometry enters only through two per-axis phase slopes: they give
the coherence factor, the LoS array gain a subarray design retains relative
to per-element control, and, in ris_subarray.design, the subarray couplings
and the closed-form phases aligning them. It is all float math on the
standard library, with no numpy.
"""

import math

from .config import SystemConfig

# Below this, sin(p) is treated as exactly at a grating point p = k*pi, where
# the normalized kernel has a removable singularity with limit of modulus 1.
_SING_TOL = 1e-9


def phase_slopes(cfg: SystemConfig, angles=None) -> tuple[float, float]:
    """Per-axis, per-element phase progression mismatch between the departure
    and arrival paths across the surface, for one unchecked tuple of finite
    angles in Angles field order (by default the config's own), reduced mod
    pi into (-pi, pi): e^{2j*p*n} has period pi in p, and fmod is exact, so
    products with element indices keep their precision at any spacing."""
    theta_a1, phi_a1, theta_d2, phi_d2 = cfg.angles if angles is None else angles
    d = cfg.d2_over_lambda
    p1 = math.pi * d * (math.sin(theta_d2) - math.sin(theta_a1))
    p2 = math.pi * d * (math.sin(phi_d2) * math.cos(theta_d2)
                        - math.sin(phi_a1) * math.cos(theta_a1))
    return math.fmod(p1, math.pi), math.fmod(p2, math.pi)


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
