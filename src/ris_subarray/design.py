"""Closed-form subarray phase design and its certificate.

Phases are a length-Q sequence of shifts in radians, one per subarray. The
subarray couplings follow from the slopes of ris_subarray.phases; the
closed-form phases align them, and the certificate checks that they reach
the coherent bound. Of the commands, only eta loads this module, and
eta_record() is what it prints.
"""

import math

from .config import TWO_PI, SystemConfig, check_type
from .phases import coherence_factor, phase_slopes


def optimal_phases(cfg: SystemConfig) -> tuple[float, ...]:
    """Closed-form phases in [0, 2*pi) maximizing the LoS cascade gain.

    Each subarray cancels the accumulated offset of its origin plus half the
    within-subarray progression, so all subarray couplings add coherently.
    The origin offsets are per axis; subarrays are numbered x-major.
    """
    p1, p2 = phase_slopes(check_type("cfg", cfg, SystemConfig))
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


def phase_certificate(cfg: SystemConfig) -> tuple[float, float]:
    """The LoS cascade gain |sum_q e^{j phi_q} w_q|^2 * M of the closed-form
    phases, coherence_factor * N^2 * M, and the coherent bound
    (sum_q |w_q|)^2 * M over the subarray couplings w_q, which no phases beat
    (triangle inequality) and phases aligning every coupling reach. Both
    come from one pass over the couplings, each sum an fsum per component."""
    w = subarray_couplings(cfg)
    terms = [complex(math.cos(phi), math.sin(phi)) * w_q
             for phi, w_q in zip(optimal_phases(cfg), w)]
    re, im = math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    return (re * re + im * im) * cfg.M, math.fsum(map(abs, w)) ** 2 * cfg.M


def eta_record(cfg: SystemConfig) -> dict[str, float]:
    """eta's record by name, in its print order: the phase slopes, the
    coherence factor and its loss -log2(eta), the certificate's closed-form
    gain and coherent bound, and the shortfall of the one below the other.
    The shortfall is scaled by N^2 * M, not by the bound: at a grating null
    the couplings, and so the bound, are rounding noise themselves."""
    eta, (p1, p2) = coherence_factor(cfg), phase_slopes(cfg)
    gain, bound = phase_certificate(cfg)
    return {"p1": p1, "p2": p2, "eta": eta,
            "-log2(eta)": math.inf if eta == 0.0 else -math.log2(eta) + 0.0,
            "closed_form_gain": gain, "coherent_bound": bound,
            "shortfall": (bound - gain) / (cfg.N ** 2 * cfg.M)}
