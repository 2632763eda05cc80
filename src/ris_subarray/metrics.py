"""The spectral-efficiency upper bound and the Rician power split.

The ergodic spectral efficiency of the maximum-ratio-transmission downlink
has a closed-form upper bound (Jensen over the channel statistics) that the
closed-form phase design maximizes. The energy efficiency divides it by the
total consumed power, config.total_power, in the regional sweeps' rows.

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

from .config import SystemConfig, check_type
from .phases import coherence_factor

_LN2 = math.log(2.0)


def rician_split(K: float) -> tuple[float, float]:
    """Power split (LoS, scatter) of a hop with Rician factor K; inf is pure
    LoS. The hop's amplitude weights are the square roots of the two parts."""
    if math.isinf(K):
        return 1.0, 0.0
    return K / (K + 1.0), 1.0 / (K + 1.0)


def _law_constants(cfg: SystemConfig):
    """cfg's hop splits ((w1_los^2, w1_sc^2), (w2_los^2, w2_sc^2)) and SNR P / sigma_w2."""
    return rician_split(cfg.K1), rician_split(cfg.K2), cfg.P / cfg.sigma_w2


def _jensen_means(cfg: SystemConfig, etas):
    """E[X] = snr * M * (gamma1 * eta * N^2 + (1 - gamma1) * N + 1), lazily, for
    each coherence factor eta in a column. gamma1 weighs the cascade's coherent
    LoS-times-LoS part, 1 - gamma1 everything that scatters at least once."""
    (w1_los_sq, _), (w2_los_sq, _), snr = _law_constants(cfg)
    gamma1 = w1_los_sq * w2_los_sq
    snr_m, n_sq, scatter = snr * cfg.M, cfg.N ** 2, (1.0 - gamma1) * cfg.N
    return (snr_m * (gamma1 * eta * n_sq + scatter + 1.0) for eta in etas)


def _bounds_from_etas(cfg: SystemConfig, etas) -> list:
    """The SE upper bound under the optimal phases, log2(1 + E[X]), of each eta, as a list."""
    # log2(1 + x) loses the relative precision of a small x. Every committed
    # config has x >= snr * M >= 40, so the regional CSVs take log2.
    return [math.log2(1.0 + x) if x >= 1.0 else math.log1p(x) / _LN2
            for x in _jensen_means(cfg, etas)]


def max_se_upper_bound(cfg: SystemConfig) -> float:
    """Upper bound under the optimal phases, via the coherence factor.

    Per-element control is the same formula on the Lx = Ly = 1 copy of cfg,
    where the coherence factor is exactly 1.
    """
    return _bounds_from_etas(check_type("cfg", cfg, SystemConfig), [coherence_factor(cfg)])[0]
