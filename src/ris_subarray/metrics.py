"""Spectral-efficiency bounds and power accounting.

The ergodic spectral efficiency of the maximum-ratio-transmission downlink
has a closed-form upper bound (Jensen over the channel statistics) that the
closed-form phase design maximizes; energy efficiency divides SE by the total
consumed power, where the surface contributes one driver circuit per
independently controlled phase.

The two-hop link is transmitter -> surface (H1, N-by-M) and surface -> user
(h2, length N), both Rician; the direct transmitter -> user link g (length M)
is Rayleigh. Scatter entries are CN(0, 1). A hop with Rician factor K is
w_los * (LoS component) + w_sc * (scatter), where (w_los^2, w_sc^2) is
rician_split(K). The bounds and the Monte Carlo sampler reduce the LoS
components to closed forms, and the matrices themselves are built by the
per-element reference model in the tests. The Monte Carlo estimator is
ris_subarray.sampler, which only sweep-k loads.
"""

import math

from .config import PowerConstants, SystemConfig, total_power
from .phases import coherence_factor

_LN2 = math.log(2.0)


def rician_split(K: float) -> tuple[float, float]:
    """Power split (LoS, scatter) of a hop with Rician factor K; inf is pure
    LoS. The hop's amplitude weights are the square roots of the two parts."""
    if math.isinf(K):
        return 1.0, 0.0
    return K / (K + 1.0), 1.0 / (K + 1.0)


def _gammas(cfg: SystemConfig) -> tuple[float, float]:
    """Power split of the cascaded two-hop link: gamma1 weighs the coherent
    LoS-times-LoS part, gamma2 everything that scatters at least once. They
    sum to one exactly."""
    gamma1 = rician_split(cfg.K1)[0] * rician_split(cfg.K2)[0]
    return gamma1, 1.0 - gamma1


def _bound_from_eta(cfg: SystemConfig):
    """The SE upper bound under the optimal phases as a function of the
    coherence factor eta; the regional sweeps call it once per angle draw."""
    gamma1, gamma2 = _gammas(cfg)
    snr_m, n_sq, scatter = cfg.P / cfg.sigma_w2 * cfg.M, cfg.N ** 2, gamma2 * cfg.N

    def bound(eta: float) -> float:
        x = snr_m * (gamma1 * eta * n_sq + scatter + 1.0)
        # log2(1 + x) loses the relative precision of a small x. Every committed
        # config has x >= snr * M >= 40, so the regional CSVs take log2.
        return math.log2(1.0 + x) if x >= 1.0 else math.log1p(x) / _LN2
    return bound


def max_se_upper_bound(cfg: SystemConfig) -> float:
    """Upper bound under the optimal phases, via the coherence factor.

    Per-element control is the same formula on the Lx = Ly = 1 copy of cfg,
    where the coherence factor is exactly 1.
    """
    return _bound_from_eta(cfg)(coherence_factor(cfg))


def energy_efficiency(se: float, num_drivers: int, power: PowerConstants) -> float:
    """Spectral efficiency per watt of total consumed power."""
    return se / total_power(num_drivers, power)
