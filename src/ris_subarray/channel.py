"""Deterministic LoS components and the Rician power split of the links.

The two-hop link is transmitter -> surface (H1, N-by-M) and surface -> user
(h2, length N), both Rician; the direct transmitter -> user link g (length M)
is Rayleigh. Scatter entries are CN(0, 1). A hop with Rician factor K is
w_los * (LoS component) + w_sc * (scatter), where (w_los^2, w_sc^2) is
rician_split(K).
"""

from __future__ import annotations

import math

import numpy as np

from .arrays import (arrival_phase_offsets, departure_phase_offsets,
                     ula_steering, upa_steering)
from .config import SystemConfig


def los_bs_to_ris(cfg: SystemConfig) -> np.ndarray:
    """Deterministic N-by-M LoS component of the transmitter-to-surface hop.

    Rank one with nonzero singular value sqrt(N*M); every entry has unit
    modulus. Row block q is the subarray offset times the outer product of
    the conjugated surface response and the transmit response.
    """
    b = arrival_phase_offsets(cfg)
    a_ris = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                         cfg.angles.theta_a1, cfg.angles.phi_a1)
    a_tx = ula_steering(cfg.M, cfg.d1_over_lambda, cfg.angles.theta_d1)
    block = np.outer(a_ris.conj(), a_tx)
    return (b[:, None, None] * block[None, :, :]).reshape(cfg.N, cfg.M)


def los_ris_to_user(cfg: SystemConfig) -> np.ndarray:
    """Deterministic length-N LoS component of the surface-to-user hop."""
    c = departure_phase_offsets(cfg)
    a_ris = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                         cfg.angles.theta_d2, cfg.angles.phi_d2)
    return (c[:, None] * a_ris[None, :]).ravel()


def rician_split(K: float) -> tuple[float, float]:
    """Power split (LoS, scatter) of a hop with Rician factor K; inf is pure LoS.

    The amplitude weights of the hop are the square roots of the two parts.
    """
    if math.isinf(K):
        return 1.0, 0.0
    return K / (K + 1.0), 1.0 / (K + 1.0)
