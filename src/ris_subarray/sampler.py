"""The law of the Monte Carlo rate and its two samplers.

metrics.monte_carlo_se imports this module when a run starts, so the
closed-form commands (validate, eta, sweep-q, sweep-n) never compile it.
A run of at most metrics.SMALL_RUN samples draws from
random.Random.random() alone (_small_run_rates), a longer one from numpy's
Philox in chunks (_rate_chunks). Both draw each sample's variates once and
evaluate every gain fraction of the run from them.
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


def _rate_law(cfg: SystemConfig, etas: list) -> tuple:
    """Parameters of the law of the rate, shared by both samplers:
    (w2_sc^2, w1_sc^2, los_gain, snr) and, for each gain fraction eta in
    etas, (alpha0, sqrt(perp)), the only two that depend on eta."""
    w1_los_sq, w1_sc_sq = rician_split(cfg.K1)
    w2_los_sq, w2_sc_sq = rician_split(cfg.K2)
    return (w2_sc_sq, w1_sc_sq, 2.0 * w1_los_sq * cfg.N * cfg.M,
            cfg.P / cfg.sigma_w2,
            [(math.sqrt(w2_los_sq * eta * cfg.N),
              math.sqrt(w2_los_sq * cfg.N * (1.0 - eta))) for eta in etas])


def _rate_chunks(cfg: SystemConfig, etas: list, num_samples: int,
                 master_seed: int):
    """Per-sample rates log2(1 + snr * ||h2 Phi H1 + g||^2): per chunk, one
    array for each gain fraction in etas, all from the chunk's one draw.

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

    A scaled noncentral chi-square (var / 2) * chi'^2(2k, 2 * mu^2 / var) is
    (mu + sqrt(var / 2) * z)^2 + var * Gamma(k - 1/2) with z standard
    normal: one real coordinate carries the whole mean. So a sample costs
    four standard normals and two standard gammas, none of which depends on
    eta, and each eta reuses them.
    """
    import numpy as np
    w2_sc_sq, w1_sc_sq, los_gain, snr, laws = _rate_law(cfg, etas)
    scatter, half_los_gain = math.sqrt(0.5 * w2_sc_sq), 0.5 * los_gain
    for chunk, start in enumerate(range(0, num_samples, MC_CHUNK)):
        size = min(MC_CHUNK, num_samples - start)
        # A uint64 array: a list key would go through float64 from 2**63 up.
        key = np.array([master_seed, chunk], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        alpha_re, alpha_im_sq = scatter * rng.standard_normal((2, size))
        alpha_im_sq *= alpha_im_sq
        if cfg.N > 1:           # nothing of h2 is orthogonal to f at N = 1
            rest_re = scatter * rng.standard_normal(size)
            rest = w2_sc_sq * rng.standard_gamma(cfg.N - 1.5, size)
        v_re = math.sqrt(0.5) * rng.standard_normal(size)
        v_rest = rng.standard_gamma(cfg.M - 0.5, size)
        rates = []
        for alpha0, root_perp in laws:
            # in place where it can be, so that an eta adds only a few
            # passes over the chunk to the draws that all etas share
            alpha_sq = alpha0 + alpha_re
            alpha_sq *= alpha_sq
            alpha_sq += alpha_im_sq
            sigma2 = w1_sc_sq * alpha_sq    # w1_sc^2 * ||h2||^2 + 1
            if cfg.N > 1:
                orth = root_perp + rest_re
                orth *= orth
                orth += rest
                orth *= w1_sc_sq
                sigma2 += orth
            sigma2 += 1.0
            v = np.sqrt(sigma2)
            v *= v_re
            alpha_sq *= half_los_gain
            v += np.sqrt(alpha_sq, out=alpha_sq)
            np.square(v, out=v)
            sigma2 *= v_rest
            v += sigma2             # ||v||^2
            v *= snr
            np.log1p(v, out=v)
            v /= _LN2
            rates.append(v)
        yield rates


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


def _small_run_rates(cfg: SystemConfig, etas: list, num_samples: int,
                     master_seed: int) -> list[list[float]]:
    """The rates of _rate_chunks' law, one list for each gain fraction in
    etas, drawn with no numpy from random.Random(master_seed).random() alone,
    the one method whose stream Python keeps across versions.

    A scaled noncentral chi-square (var / 2) * chi'^2(2k, 2 * mu^2 / var) is
    |mu + CN(0, var)|^2 + var * Gamma(k - 1): one complex coordinate carries
    the whole mean, the other k - 1 are central. The first term takes two
    uniforms, -var * ln(1 - U) for the squared modulus r^2 and 2 * pi * U'
    for the phase, and sums (mu + r * c)^2 + r^2 * (1 - c^2) with c its
    cosine: the expanded mu^2 + 2 * mu * r * c + r^2 can round below zero.
    Each sample draws its uniforms once, in the order alpha's pair, the
    orthogonal rest's pair and gamma, then ||v||^2's pair and gamma, and each
    eta is evaluated from them: a run of one eta gives the same rates as the
    same eta in a run of several.
    """
    import random               # loaded by a small run, as numpy by a long one
    w2_sc_sq, w1_sc_sq, los_gain, snr, laws = _rate_law(cfg, etas)
    uniform = random.Random(master_seed).random
    log, log1p, sqrt, cos, tau = math.log, math.log1p, math.sqrt, math.cos, math.tau
    rest, v_rest = _gamma_draw(uniform, max(cfg.N - 2, 0)), _gamma_draw(uniform, cfg.M - 1)
    out = [[] for _ in laws]
    per_eta = [(alpha0, root_perp, rates.append)
               for (alpha0, root_perp), rates in zip(laws, out)]
    n, half_los_gain = cfg.N, 0.5 * los_gain
    for _ in range(num_samples):
        e, c = -w2_sc_sq * log(1.0 - uniform()), cos(tau * uniform())
        alpha_re, alpha_im_sq = sqrt(e) * c, e * (1.0 - c * c)
        if n > 1:
            e, c = -w2_sc_sq * log(1.0 - uniform()), cos(tau * uniform())
            orth_re, orth_sq = sqrt(e) * c, e * (1.0 - c * c)
            orth_rest = w2_sc_sq * rest()
        # ||v||^2's complex normal has variance sigma2, which depends on eta:
        # its exponential -ln(1 - U) is drawn unscaled, and sigma2 * e is
        # -sigma2 * ln(1 - U) bit for bit
        e, c = -log(1.0 - uniform()), cos(tau * uniform())
        v_im, v_gamma = 1.0 - c * c, v_rest()
        for alpha0, root_perp, append in per_eta:
            alpha_sq = h2_sq = (alpha0 + alpha_re) ** 2 + alpha_im_sq
            if n > 1:           # as in _rate_chunks
                h2_sq += (root_perp + orth_re) ** 2 + orth_sq + orth_rest
            sigma2 = w1_sc_sq * h2_sq + 1.0
            e_v = sigma2 * e
            v_sq = ((sqrt(half_los_gain * alpha_sq) + sqrt(e_v) * c) ** 2
                    + e_v * v_im + sigma2 * v_gamma)
            append(log1p(snr * v_sq) / _LN2)
    return out


def _chunk_moments(chunks):
    """Per chunk, (count, mean, sum of squared deviations) of each of its
    arrays of rates."""
    import numpy as np
    def moments(rates) -> tuple:
        mean = float(np.mean(rates))
        return rates.size, mean, float(np.sum((rates - mean) ** 2))
    for arrays in chunks:
        yield [moments(rates) for rates in arrays]
