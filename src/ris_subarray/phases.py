"""The per-axis phase slopes and the coherence factor.

The LoS geometry enters only through two per-axis phase slopes: they give
the coherence factor, the LoS array gain a subarray design retains relative
to per-element control, and, in ris_subarray.design, the subarray couplings
and the closed-form phases aligning them. It is all float math on the
standard library, with no numpy.
"""

import math
from itertools import repeat
from operator import mul, sub

from .config import SystemConfig, check_type

# Below this, sin(p) is treated as exactly at a grating point p = k*pi, where
# the normalized kernel has a removable singularity with limit of modulus 1.
_SING_TOL = 1e-9


def slope_columns(cfg: SystemConfig, theta_a1, phi_a1, theta_d2, phi_d2):
    """Per-axis, per-element phase progression mismatch between the departure
    and arrival paths across cfg's surface, as two lazy columns (p1, p2) over
    four columns of finite angles in Angles field order, each reduced mod pi
    into (-pi, pi): e^{2j*p*n} has period pi in p, and fmod is exact, so
    products with element indices keep their precision at any spacing. The
    theta columns are read twice, so they must be sequences."""
    scale, pis = repeat(math.pi * cfg.d2_over_lambda), repeat(math.pi)
    p1 = map(mul, map(sub, map(math.sin, theta_d2), map(math.sin, theta_a1)), scale)
    p2 = map(mul, map(sub, map(mul, map(math.sin, phi_d2), map(math.cos, theta_d2)),
                      map(mul, map(math.sin, phi_a1), map(math.cos, theta_a1))), scale)
    return map(math.fmod, p1, pis), map(math.fmod, p2, pis)


def phase_slopes(cfg: SystemConfig) -> tuple[float, float]:
    """The slopes of the config's own angle tuple: one-element columns."""
    (p1,), (p2,) = slope_columns(cfg, *zip(cfg.angles))
    return p1, p2


def _normalized_kernels(L: int, slopes, sines) -> list:
    """sin(L*p) / (L*s) for each slope p and its sine s, clamped to [-1, 1];
    exactly 1 for L = 1, as s / s is. At a grating point p = k*pi both sines
    vanish at matching order and the ratio tends to +-1; the factor is
    squared downstream, so 1.0 is filled in. Just past the fill threshold
    rounding can leave the ratio beyond +-1."""
    return [1.0 if -_SING_TOL < s < _SING_TOL
            else 1.0 if (r := math.sin(L * p) / (L * s)) > 1.0 else -1.0 if r < -1.0 else r
            for p, s in zip(slopes, sines)]


def coherence_factors(kx, ky):
    """Squared products of two per-axis kernel columns, in [0, 1], lazily, by
    pow: x * x differs in the last bit on 0.1% of values, and the CSVs pin pow."""
    return map(math.pow, map(mul, kx, ky), repeat(2))


def coherence_factor(cfg: SystemConfig) -> float:
    """Fraction of the coherent LoS array gain a subarray of shared-phase
    elements retains. Equals 1 for per-element control (Lx = Ly = 1) and for
    specular geometry; equals 0 when a subarray straddles a full grating null."""
    p1, p2 = phase_slopes(check_type("cfg", cfg, SystemConfig))
    return next(coherence_factors(_normalized_kernels(cfg.Lx, [p1], [math.sin(p1)]),
                                  _normalized_kernels(cfg.Ly, [p2], [math.sin(p2)])))
