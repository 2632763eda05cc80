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
per-element oracle in the tests. Only Monte Carlo runs longer than SMALL_RUN
samples import numpy; a shorter one draws from random.Random.random() alone.
"""

from __future__ import annotations

import math

from .config import (MAX_SEED, PowerConstants, SystemConfig, check_int,
                     check_real, ris_power)
from .phases import coherence_factor

# Monte Carlo samples are drawn in chunks of this many consecutive indices,
# chunk c from the Philox stream keyed (master_seed, c). A chunk's values do
# not depend on how many samples a run asks for beyond it, and memory stays
# bounded at any sample count.
MC_CHUNK = 1 << 16
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
        return math.log2(1.0 + x) if x >= 1.0 else math.log1p(x) / math.log(2.0)
    return bound


def max_se_upper_bound(cfg: SystemConfig) -> float:
    """Upper bound under the optimal phases, via the coherence factor.

    Per-element control is the same formula on the Lx = Ly = 1 copy of cfg,
    where the coherence factor is exactly 1.
    """
    return _bound_from_eta(cfg)(coherence_factor(cfg))


def _rate_law(cfg: SystemConfig, eta: float) -> tuple:
    """Parameters of the law of the rate under the gain fraction eta, shared
    by both samplers: (alpha0, w2_sc^2, perp, w1_sc^2, los_gain, snr)."""
    w1_los_sq, w1_sc_sq = rician_split(cfg.K1)
    w2_los_sq, w2_sc_sq = rician_split(cfg.K2)
    return (math.sqrt(w2_los_sq * eta * cfg.N), w2_sc_sq,
            w2_los_sq * cfg.N * (1.0 - eta), w1_sc_sq,
            2.0 * w1_los_sq * cfg.N * cfg.M, cfg.P / cfg.sigma_w2)


def _rate_chunks(cfg: SystemConfig, eta: float, num_samples: int,
                 master_seed: int):
    """Per-sample rates log2(1 + snr * ||h2 Phi H1 + g||^2), one array per chunk.

    The rate depends on the channels only through that squared norm, which
    is drawn from its exact law instead of from the N-by-M matrices. With
    f = (per-element phase factor) * (first column of the LoS of H1), the
    rank-one LoS hop gives h2 Phi H1_los = sqrt(N) * alpha * a_tx^T where
    alpha = sum_n h2_n f_n / sqrt(N) ~ CN(alpha0, w2_sc^2). The law of
    |alpha|^2 depends on the phases only through
    |alpha0|^2 = w2_los^2 * los_cascade_gain / (N * M) = w2_los^2 * eta * N,
    where eta is the gain as a fraction of N^2 * M (coherence_factor at the
    optimal phases). The rest of h2, orthogonal to conj(f), is independent
    of alpha, and its squared norm is
    (w2_sc^2 / 2) * chi'^2(2(N-1), 2 * perp / w2_sc^2), where
    perp = w2_los^2 * N - |alpha0|^2 is the squared norm of the LoS part of
    that rest. Given h2, the scattered hop and g add CN(0, sigma2 I_M) with
    sigma2 = w1_sc^2 * ||h2||^2 + 1, so
    ||v||^2 = (sigma2 / 2) * chi'^2(2M, 2 * w1_los^2 * N * M * |alpha|^2 / sigma2).
    Each sample costs one complex normal and at most two chi-square draws.
    """
    import numpy as np
    alpha0, w2_sc_sq, perp, w1_sc_sq, los_gain, snr = _rate_law(cfg, eta)
    for chunk, start in enumerate(range(0, num_samples, MC_CHUNK)):
        size = min(MC_CHUNK, num_samples - start)
        # A uint64 array: a list key would go through float64 from 2**63 up.
        key = np.array([master_seed, chunk], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        z = rng.standard_normal((size, 2)) * math.sqrt(0.5 * w2_sc_sq)
        alpha_sq = (alpha0 + z[:, 0]) ** 2 + z[:, 1] ** 2
        if cfg.N == 1:          # nothing of h2 is orthogonal to f
            h2_sq = alpha_sq
        elif w2_sc_sq == 0.0:   # pure-LoS hop: the orthogonal part is fixed
            h2_sq = alpha_sq + perp
        else:
            h2_sq = alpha_sq + 0.5 * w2_sc_sq * rng.noncentral_chisquare(
                2 * (cfg.N - 1), 2.0 * perp / w2_sc_sq, size)
        sigma2 = w1_sc_sq * h2_sq + 1.0
        v_sq = 0.5 * sigma2 * rng.noncentral_chisquare(
            2 * cfg.M, los_gain * alpha_sq / sigma2)
        yield np.log1p(snr * v_sq) / _LN2


def _gamma_draw(uniform, shape: int):
    """A function that draws Gamma(shape, 1), for an integer shape >= 0, from
    the uniforms on [0, 1) that uniform() returns: Marsaglia and Tsang's
    method with its squeeze (ACM TOMS 26(3), 2000), each normal by
    Box-Muller on two uniforms. Gamma(0) is exactly 0 and draws nothing."""
    if shape == 0:
        return lambda: 0.0
    d, log, sqrt, cos, tau = shape - 1.0 / 3.0, math.log, math.sqrt, math.cos, math.tau
    c = 1.0 / sqrt(9.0 * d)
    def draw() -> float:
        while True:
            x = sqrt(-2.0 * log(1.0 - uniform())) * cos(tau * uniform())
            if (v := 1.0 + c * x) > 0.0:
                v, u, x = v * v * v, 1.0 - uniform(), x * x
                if u < 1.0 - 0.0331 * x * x or log(u) < 0.5 * x + d * (1.0 - v + log(v)):
                    return d * v
    return draw


def _small_run_rates(cfg: SystemConfig, eta: float, num_samples: int,
                     master_seed: int) -> list[float]:
    """The rates of _rate_chunks' law, drawn with no numpy from
    random.Random(master_seed).random() alone, the one method whose stream
    Python keeps across versions.

    A scaled noncentral chi-square (var / 2) * chi'^2(2k, 2 * mu^2 / var) is
    |mu + CN(0, var)|^2 + var * Gamma(k - 1): one complex coordinate carries
    the whole mean, the other k - 1 are central. The first term takes two
    uniforms, -var * ln(1 - U) for the squared modulus r^2 and 2 * pi * U'
    for the phase, and sums (mu + r * c)^2 + r^2 * (1 - c^2) with c its
    cosine: the expanded mu^2 + 2 * mu * r * c + r^2 can round below zero.
    """
    import random               # loaded by a small run, as numpy by a long one
    alpha0, w2_sc_sq, perp, w1_sc_sq, los_gain, snr = _rate_law(cfg, eta)
    uniform = random.Random(master_seed).random
    log, log1p, sqrt, cos, tau = math.log, math.log1p, math.sqrt, math.cos, math.tau
    def shifted(mu: float, var: float) -> float:    # |mu + CN(0, var)|^2
        e, c = -var * log(1.0 - uniform()), cos(tau * uniform())
        return (mu + sqrt(e) * c) ** 2 + e * (1.0 - c * c)
    rest, v_rest = _gamma_draw(uniform, max(cfg.N - 2, 0)), _gamma_draw(uniform, cfg.M - 1)
    root_perp, n, rates = sqrt(perp), cfg.N, []
    for _ in range(num_samples):
        alpha_sq = h2_sq = shifted(alpha0, w2_sc_sq)
        if n > 1:               # as in _rate_chunks
            h2_sq += shifted(root_perp, w2_sc_sq) + w2_sc_sq * rest()
        sigma2 = w1_sc_sq * h2_sq + 1.0
        v_sq = shifted(sqrt(0.5 * los_gain * alpha_sq), sigma2) + sigma2 * v_rest()
        rates.append(log1p(snr * v_sq) / _LN2)
    return rates


def _chunk_moments(chunks):
    """(count, mean, sum of squared deviations) of each array of rates."""
    import numpy as np
    for rates in chunks:
        mean = float(np.mean(rates))
        yield rates.size, mean, float(np.sum((rates - mean) ** 2))


def monte_carlo_se(cfg: SystemConfig, eta: float, num_samples: int,
                   master_seed: int) -> tuple[float, float]:
    """Sample-mean ergodic SE and its standard error, in bits, at the gain
    fraction eta: los_cascade_gain / (N^2 * M) of the phases, which is
    coherence_factor(cfg) at the optimal ones.

    Maximum-ratio transmission is folded in analytically: the rate of a
    sample is log2(1 + snr * ||h2 Phi H1 + g||^2), drawn as in _rate_chunks.
    A run of at most SMALL_RUN samples draws them from the standard library
    (_small_run_rates), a longer one from numpy's Philox in chunks. The
    result is a pure function of (cfg, eta, num_samples, master_seed).
    Chunk moments are merged in chunk order (Chan et al.).
    eta must be a finite real in [0, 1], num_samples an integer >= 1 and
    master_seed one in [0, 2**64).
    """
    eta = check_real("eta", eta, 0.0, high=1.0)
    num_samples = check_int("num_samples", num_samples)
    master_seed = check_int("master_seed", master_seed, 0, MAX_SEED)
    if num_samples <= SMALL_RUN:
        rates = _small_run_rates(cfg, eta, num_samples, master_seed)
        mean = math.fsum(rates) / num_samples
        chunks = [(num_samples, mean, math.fsum([(r - mean) ** 2 for r in rates]))]
    else:
        chunks = _chunk_moments(_rate_chunks(cfg, eta, num_samples, master_seed))
    count, mean, sq_dev = 0, 0.0, 0.0
    for size, chunk_mean, chunk_sq_dev in chunks:
        delta = chunk_mean - mean
        sq_dev += chunk_sq_dev + delta ** 2 * count * size / (count + size)
        count += size
        mean += delta * (size / count)
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
