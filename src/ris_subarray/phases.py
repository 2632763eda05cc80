"""Closed-form subarray phase design and coherent-alignment analysis.

Phases are a length-Q sequence of shifts in radians, one per subarray, each
scaling a length-L segment of the surface-to-user response. The LoS
geometry enters only through two per-axis phase slopes: they give the
subarray couplings, the closed-form design aligning them, and the coherence
factor, the LoS array gain retained relative to per-element control. It is
all float math on the standard library, with no numpy.
"""

from __future__ import annotations

import math

from .config import TWO_PI, SystemConfig

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


def optimal_phases(cfg: SystemConfig) -> tuple[float, ...]:
    """Closed-form phases in [0, 2*pi) maximizing the LoS cascade gain.

    Each subarray cancels the accumulated offset of its origin plus half the
    within-subarray progression, so all subarray couplings add coherently.
    The origin offsets are per axis; subarrays are numbered x-major.
    """
    p1, p2 = phase_slopes(cfg)
    ox, oy = p1 * (cfg.Lx - 1), p2 * (cfg.Ly - 1)
    # grouped ((x + y) + ox) + oy: a regrouped sum differs in the last bit
    return tuple(-(((2.0 * p1 * (qx * cfg.Lx) + 2.0 * p2 * (qy * cfg.Ly)) + ox) + oy)
                 % TWO_PI for qx in range(cfg.Qx) for qy in range(cfg.Qy))


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


def _axis_couplings(N: int, L: int, p: float) -> list[complex]:
    """Sum of e^{2j*p*n} over each length-L run of the N indices n of an axis."""
    cos, sin, fsum = math.cos, math.sin, math.fsum
    return [complex(fsum(cos(2.0 * p * n) for n in range(s, s + L)),
                    fsum(sin(2.0 * p * n) for n in range(s, s + L)))
            for s in range(0, N, L)]


def subarray_couplings(cfg: SystemConfig) -> tuple[complex, ...]:
    """Length-Q LoS coupling of each subarray before its phase is applied:
    the sum over its elements (ix, iy) of e^{2j(p1*ix + p2*iy)}, the
    departure response times the conjugated arrival response. The sum
    factorizes per axis; subarrays are numbered x-major."""
    p1, p2 = phase_slopes(cfg)
    ey = _axis_couplings(cfg.Ny, cfg.Ly, p2)
    return tuple(ex * e for ex in _axis_couplings(cfg.Nx, cfg.Lx, p1) for e in ey)


def _gain(couplings, phases, M: int) -> float:
    """|sum_q e^{j phi_q} w_q|^2 * M, summed with fsum per component."""
    terms = [complex(math.cos(phi), math.sin(phi)) * w
             for phi, w in zip(phases, couplings)]
    re, im = math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    return (re * re + im * im) * M


def los_cascade_gain(cfg: SystemConfig, phases) -> float:
    """Squared norm of the LoS cascade row vector under length-Q phases.

    Equals |sum_q e^{j phi_q} w_q|^2 * M for the subarray couplings w_q; at
    the optimum this is coherence_factor * N^2 * M.
    """
    from numbers import Real    # numpy's float and integer scalars register
    try:
        phases = list(phases)
    except TypeError:           # a scalar
        phases = []
    # An element that is itself an array, as in a (Q, 1) input, is no Real.
    if len(phases) != cfg.Q or not all(isinstance(phi, Real) for phi in phases):
        raise ValueError(f"phases must have shape ({cfg.Q},) for Q={cfg.Q}: "
                         "one real number per subarray")
    return _gain(subarray_couplings(cfg), map(float, phases), cfg.M)


def phase_certificate(cfg: SystemConfig) -> tuple[float, float]:
    """The LoS cascade gain of the closed-form phases, and the coherent
    bound (sum_q |w_q|)^2 * M over the subarray couplings w_q: by the
    triangle inequality no phases give a larger gain, and phases that align
    every coupling reach it. Both come from one pass over the couplings."""
    w = subarray_couplings(cfg)
    return (_gain(w, optimal_phases(cfg), cfg.M),
            math.fsum(map(abs, w)) ** 2 * cfg.M)
