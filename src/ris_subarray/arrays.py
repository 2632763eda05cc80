"""Surface steering vectors, subarray origins and per-subarray phase offsets.

All responses are unit-modulus complex arrays. The surface is a UPA with
spacing d2, element order x-major.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig


def upa_steering(Lx: int, Ly: int, d_over_lambda: float,
                 theta: float, phi: float) -> np.ndarray:
    """Length Lx*Ly UPA response for elevation theta and azimuth phi.

    Element (lx, ly), zero-based, carries phase
    2*pi*d*(sin(theta)*lx + sin(phi)*cos(theta)*ly); the flattening is
    x-major, so the result equals kron(x_factor, y_factor).
    """
    if Lx < 1 or Ly < 1:
        raise ValueError(f"grid sides must be positive, got {Lx}x{Ly}")
    px = np.sin(theta) * np.arange(Lx)
    py = np.sin(phi) * np.cos(theta) * np.arange(Ly)
    return np.exp(2j * np.pi * d_over_lambda * (px[:, None] + py[None, :])).ravel()


def subarray_grid_offsets(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based origin offsets (x_q - 1, y_q - 1) for all Q subarrays."""
    q = np.arange(cfg.Q)
    qx, qy = np.divmod(q, cfg.Qy)
    return (qx * cfg.Lx).astype(float), (qy * cfg.Ly).astype(float)


def arrival_phase_offsets(cfg: SystemConfig) -> np.ndarray:
    """Unit-modulus offset of each subarray's origin along the arrival path.

    Note the sign: arrival offsets conjugate the propagation phase while the
    departure offsets do not. The closed-form phase design relies on this
    asymmetry, so the two functions must not be unified.
    """
    x, y = subarray_grid_offsets(cfg)
    a = cfg.angles
    trip = np.sin(a.theta_a1) * x + np.cos(a.theta_a1) * np.sin(a.phi_a1) * y
    return np.exp(-2j * np.pi * cfg.d2_over_lambda * trip)


def departure_phase_offsets(cfg: SystemConfig) -> np.ndarray:
    """Unit-modulus offset of each subarray's origin along the departure path."""
    x, y = subarray_grid_offsets(cfg)
    a = cfg.angles
    trip = np.sin(a.theta_d2) * x + np.cos(a.theta_d2) * np.sin(a.phi_d2) * y
    return np.exp(2j * np.pi * cfg.d2_over_lambda * trip)
