"""Spectral-efficiency bounds, Monte Carlo evaluation, and power accounting.

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
per-element oracle in the tests. Only the Monte Carlo code imports numpy.
"""

from __future__ import annotations

import math

from .config import MAX_SEED, PowerConstants, SystemConfig, check_int, ris_power
from .phases import coherence_factor, los_cascade_gain

# Monte Carlo samples are drawn in chunks of this many consecutive indices,
# chunk c from the Philox stream keyed (master_seed, c). A chunk's values do
# not depend on how many samples a run asks for beyond it, and memory stays
# bounded at any sample count.
MC_CHUNK = 1 << 16


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
        return math.log2(1.0 + x) if x >= 1.0 else math.log1p(x) / math.log(2.0)
    return bound


def max_se_upper_bound(cfg: SystemConfig) -> float:
    """Upper bound under the optimal phases, via the coherence factor.

    Per-element control is the same formula on the Lx = Ly = 1 copy of cfg,
    where the coherence factor is exactly 1.
    """
    return _bound_from_eta(cfg)(coherence_factor(cfg))


def _rate_chunks(cfg: SystemConfig, phases, num_samples: int,
                 master_seed: int):
    """Per-sample rates log2(1 + snr * ||h2 Phi H1 + g||^2), one array per chunk.

    The rate depends on the channels only through that squared norm, which
    is drawn from its exact law instead of from the N-by-M matrices. With
    f = (per-element phase factor) * (first column of the LoS of H1), the
    rank-one LoS hop gives h2 Phi H1_los = sqrt(N) * alpha * a_tx^T where
    alpha = sum_n h2_n f_n / sqrt(N) ~ CN(alpha0, w2_sc^2). The law of
    |alpha|^2 depends on alpha0 only through |alpha0|^2, which is
    w2_los^2 * los_cascade_gain / (N * M). The rest of h2, orthogonal to
    conj(f), is independent of alpha, and its squared norm is
    (w2_sc^2 / 2) * chi'^2(2(N-1), 2 * perp / w2_sc^2), where
    perp = w2_los^2 * N - |alpha0|^2 is the squared norm of the LoS part of
    that rest. Given h2, the scattered hop and g add CN(0, sigma2 I_M) with
    sigma2 = w1_sc^2 * ||h2||^2 + 1, so
    ||v||^2 = (sigma2 / 2) * chi'^2(2M, 2 * w1_los^2 * N * M * |alpha|^2 / sigma2).
    Each sample costs one complex normal and at most two chi-square draws.
    """
    import numpy as np
    w1_los, w1_sc = map(math.sqrt, rician_split(cfg.K1))
    w2_los, w2_sc = map(math.sqrt, rician_split(cfg.K2))
    alpha0_sq = w2_los ** 2 * los_cascade_gain(cfg, phases) / (cfg.N * cfg.M)
    alpha0 = math.sqrt(alpha0_sq)
    perp = max(0.0, w2_los ** 2 * cfg.N - alpha0_sq)
    los_gain = 2.0 * w1_los ** 2 * cfg.N * cfg.M
    snr = cfg.P / cfg.sigma_w2
    for chunk, start in enumerate(range(0, num_samples, MC_CHUNK)):
        size = min(MC_CHUNK, num_samples - start)
        # A uint64 array: a list key would go through float64 from 2**63 up.
        key = np.array([master_seed, chunk], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        z = rng.standard_normal((size, 2)) * (w2_sc * math.sqrt(0.5))
        alpha_sq = (alpha0 + z[:, 0]) ** 2 + z[:, 1] ** 2
        if cfg.N == 1:          # nothing of h2 is orthogonal to f
            h2_sq = alpha_sq
        elif w2_sc == 0.0:      # pure-LoS hop: the orthogonal part is fixed
            h2_sq = alpha_sq + perp
        else:
            h2_sq = alpha_sq + 0.5 * w2_sc ** 2 * rng.noncentral_chisquare(
                2 * (cfg.N - 1), 2.0 * perp / w2_sc ** 2, size)
        sigma2 = w1_sc ** 2 * h2_sq + 1.0
        v_sq = 0.5 * sigma2 * rng.noncentral_chisquare(
            2 * cfg.M, los_gain * alpha_sq / sigma2)
        yield np.log1p(snr * v_sq) / math.log(2.0)


def monte_carlo_se(cfg: SystemConfig, phases, num_samples: int,
                   master_seed: int) -> tuple[float, float]:
    """Sample-mean ergodic SE and its standard error, in bits, under phases,
    a length-Q array of one shift per subarray.

    Maximum-ratio transmission is folded in analytically: the rate of a
    sample is log2(1 + snr * ||h2 Phi H1 + g||^2), drawn as in _rate_chunks.
    The result is a pure function of (cfg, phases, num_samples,
    master_seed), independent of evaluation order. Chunk means and squared
    deviations are merged in chunk order (Chan et al.).
    num_samples must be an integer >= 1 and master_seed one in [0, 2**64).
    """
    import numpy as np
    num_samples = check_int("num_samples", num_samples)
    master_seed = check_int("master_seed", master_seed, 0, MAX_SEED)
    count, mean, sq_dev = 0, 0.0, 0.0
    for rates in _rate_chunks(cfg, phases, num_samples, master_seed):
        chunk_mean = float(np.mean(rates))
        delta = chunk_mean - mean
        sq_dev += (float(np.sum((rates - chunk_mean) ** 2))
                   + delta ** 2 * count * rates.size / (count + rates.size))
        count += rates.size
        mean += delta * (rates.size / count)
    if num_samples < 2:
        return mean, 0.0
    return mean, math.sqrt(sq_dev / (count - 1) / count)


def total_power(num_drivers: int, power: PowerConstants) -> float:
    """Total consumed power in watts with num_drivers phase-shift drivers."""
    total = power.p_rest + ris_power(num_drivers, power)
    if total <= 0.0:
        raise ValueError("total power must be positive")
    return total


def energy_efficiency(se: float, num_drivers: int, power: PowerConstants) -> float:
    """Spectral efficiency per watt of total consumed power."""
    return se / total_power(num_drivers, power)
