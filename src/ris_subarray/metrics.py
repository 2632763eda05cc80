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
per-element reference model in the tests. The sampler is
ris_subarray.sampler, which monte_carlo_se imports when a run starts. Only
Monte Carlo runs longer than SMALL_RUN samples load numpy; a shorter one
draws from random.Random.random() alone.
"""

from __future__ import annotations

import math

from .config import (MAX_SEED, PowerConstants, SystemConfig, check_int,
                     check_real, check_sequence, total_power)
from .phases import coherence_factor

# A run of at most this many samples draws them in Python, from the standard
# library, and loads no numpy: below it, numpy's import costs more than the
# draws it would speed up (README, "Start-up and exit").
SMALL_RUN = 512
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


def monte_carlo_se(cfg: SystemConfig, etas, num_samples: int,
                   master_seed: int) -> list[tuple[float, float]]:
    """Sample-mean ergodic SE and its standard error, in bits, one
    (mean, stderr) per gain fraction in etas, all from one draw. A gain
    fraction is los_cascade_gain / (N^2 * M) of the phases, which is
    coherence_factor(cfg) at the optimal ones.

    Maximum-ratio transmission is folded in analytically: the rate of a
    sample is log2(1 + snr * ||h2 Phi H1 + g||^2), whose law sampler._rate
    states. A run of at most SMALL_RUN samples draws them from
    the standard library (sampler._small_run_rates), a longer one from
    numpy's Philox in chunks. Each sample's variates are standardized, so
    eta and the Rician factors enter only as constants of the law, and every
    eta is evaluated from one draw (common random numbers): the estimates
    of two etas are correlated, and the variance of their difference is
    smaller than with independent draws. Each result is a pure function of
    (cfg, eta, num_samples, master_seed), whatever the other etas are, and
    its stderr is its own. Chunk moments are merged in chunk order (Chan et al.).
    etas must be a sequence of finite reals in [0, 1], num_samples an integer
    >= 1 and master_seed one in [0, 2**64).
    """
    etas = [check_real("etas", eta, 0.0, high=1.0)
            for eta in check_sequence("etas", etas, "gain fractions")]
    num_samples = check_int("num_samples", num_samples)
    master_seed = check_int("master_seed", master_seed, 0, MAX_SEED)
    return _monte_carlo_se([(cfg, eta) for eta in etas], num_samples, master_seed)


def _monte_carlo_se(laws: list, num_samples: int, master_seed: int) -> list:
    """monte_carlo_se of checked (cfg, eta) laws, which share N and M."""
    from . import sampler       # loaded by a run, as numpy by a long one
    if num_samples <= SMALL_RUN:
        runs = []
        for rates in sampler._small_run_rates(laws, num_samples, master_seed):
            mean = math.fsum(rates) / num_samples
            runs.append([(num_samples, mean,
                          math.fsum([(r - mean) ** 2 for r in rates]))])
    else:
        runs = zip(*sampler._chunk_moments(
            sampler._rate_chunks(laws, num_samples, master_seed)))
    return [_merged(chunks) for chunks in runs]


def _merged(chunks) -> tuple[float, float]:
    """(mean, stderr of the mean) of the rates whose per-chunk
    (count, mean, sum of squared deviations) are chunks."""
    count, mean, sq_dev = 0, 0.0, 0.0
    for size, chunk_mean, chunk_sq_dev in chunks:
        delta = chunk_mean - mean
        sq_dev += chunk_sq_dev + delta ** 2 * count * size / (count + size)
        count += size
        mean += delta * (size / count)
    if count < 2:
        return mean, 0.0
    return mean, math.sqrt(sq_dev / (count - 1) / count)


def energy_efficiency(se: float, num_drivers: int, power: PowerConstants) -> float:
    """Spectral efficiency per watt of total consumed power."""
    return se / total_power(num_drivers, power)
