"""The law of the Monte Carlo rate and its two samplers.

metrics.monte_carlo_se imports this module when a run starts, so the
closed-form commands (validate, eta, sweep-q, sweep-n) never compile it.
A run of at most metrics.SMALL_RUN samples draws from
random.Random.random() alone (_small_run_rates), a longer one from numpy's
Philox in chunks (_rate_chunks).
"""

from __future__ import annotations

import math

from .config import SystemConfig
from .metrics import _LN2, rician_split

# Monte Carlo samples are drawn in chunks of this many consecutive indices,
# chunk c from the Philox stream keyed (master_seed, c). A chunk's values do
# not depend on how many samples a run asks for beyond it, and memory stays
# bounded at any sample count.
MC_CHUNK = 1 << 16


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
