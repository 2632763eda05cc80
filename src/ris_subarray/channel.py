"""The Rician power split of the links.

The two-hop link is transmitter -> surface (H1, N-by-M) and surface -> user
(h2, length N), both Rician; the direct transmitter -> user link g (length M)
is Rayleigh. Scatter entries are CN(0, 1). A hop with Rician factor K is
w_los * (LoS component) + w_sc * (scatter), where (w_los^2, w_sc^2) is
rician_split(K). The library needs only this split: the bounds and the Monte
Carlo sampler reduce the LoS components to closed forms, and the matrices
themselves are built by the per-element oracle in the tests.
"""

from __future__ import annotations

import math


def rician_split(K: float) -> tuple[float, float]:
    """Power split (LoS, scatter) of a hop with Rician factor K; inf is pure LoS.

    The amplitude weights of the hop are the square roots of the two parts.
    """
    if math.isinf(K):
        return 1.0, 0.0
    return K / (K + 1.0), 1.0 / (K + 1.0)
