"""Closed-form subarray phase design and its certificate.

Phases are a length-Q sequence of shifts in radians, one per subarray. The
subarray couplings follow from the slopes of ris_subarray.phases; the
closed-form phases align them, and the certificate checks that they reach
the coherent bound. Of the commands, only eta loads this module.
"""

import math

from .config import TWO_PI, SystemConfig
from .phases import phase_slopes


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
