"""Subarray origins on the surface, a UPA of Lx-by-Ly subarrays numbered
x-major. The LoS responses reduce to the two per-axis phase slopes of
ris_subarray.phases; their steering vectors are built only by the
per-element oracle in the tests."""

from __future__ import annotations

import numpy as np

from .config import SystemConfig


def subarray_grid_offsets(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based origin offsets (x_q - 1, y_q - 1) for all Q subarrays."""
    q = np.arange(cfg.Q)
    qx, qy = np.divmod(q, cfg.Qy)
    return (qx * cfg.Lx).astype(float), (qy * cfg.Ly).astype(float)
