"""The law of the Monte Carlo rate and its two samplers.

metrics.monte_carlo_se imports this module when a run starts, so the
closed-form commands (validate, eta, sweep-q, sweep-n) never compile it.
A run evaluates laws, each a (cfg, eta) pair, that share N and M. A run of
at most metrics.SMALL_RUN samples draws from random.Random.random() alone
(_small_run_rates), a longer one from numpy's Philox in chunks
(_rate_chunks). Both draw each sample's six standardized variates once,
since their law depends on N and M alone, and evaluate every law from them
by one formula, _rate.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import starmap

from .metrics import _LN2, rician_split

# Monte Carlo samples are drawn in chunks of this many consecutive indices,
# chunk c from the Philox stream keyed (master_seed, c). A chunk's values do
# not depend on how many samples a run asks for beyond it, and memory stays
# bounded at any sample count.
MC_CHUNK = 1 << 16


def _rate_laws(laws: list) -> list[tuple]:
    """Per (cfg, eta) law, _rate's constants: w2_sc and w2_sc^2, which scale
    h2's variates, alpha0, sqrt(perp), w1_sc^2, w1_los^2 * N * M and snr."""
    consts = []
    for cfg, eta in laws:
        (w1_los_sq, w1_sc_sq), (w2_los_sq, w2_sc_sq) = map(rician_split, (cfg.K1, cfg.K2))
        consts.append((math.sqrt(w2_sc_sq), w2_sc_sq,
                       math.sqrt(w2_los_sq * eta * cfg.N),
                       math.sqrt(w2_los_sq * cfg.N * (1.0 - eta)),
                       w1_sc_sq, w1_los_sq * cfg.N * cfg.M, cfg.P / cfg.sigma_w2))
    return consts


def _rate(alpha_re, alpha_im_sq, orth_re, orth_rest, v_re, v_rest, sqrt, log1p,
          w2_sc, w2_sc_sq, alpha0, root_perp, w1_sc_sq, los_gain, snr):
    """The rate log2(1 + snr * ||h2 Phi H1 + g||^2) of one law, from one
    sample's six standardized variates (floats) or a chunk's (arrays).
    Augmented assignments rebind a float and update an array in place, and
    sqrt and log1p may overwrite their argument, which is not used again.

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
    normal: one real coordinate carries the whole mean. So the variates are
    alpha - alpha0's real part and squared imaginary part, the orthogonal
    rest's real coordinate along its LoS part (None at N = 1, where h2 has
    no rest) and the rest of its squared norm, all per unit w2_sc, and
    ||v||^2's coordinate along its mean and the rest, per unit sigma2. None
    depends on eta or on a Rician factor.
    """
    alpha_sq = alpha_re * w2_sc
    alpha_sq += alpha0
    alpha_sq *= alpha_sq
    alpha_sq += alpha_im_sq * w2_sc_sq  # |alpha|^2
    sigma2 = w1_sc_sq * alpha_sq
    if orth_re is not None:
        orth = orth_re * w2_sc
        orth += root_perp
        orth *= orth
        orth += orth_rest * w2_sc_sq
        orth *= w1_sc_sq
        sigma2 += orth
    sigma2 += 1.0                       # w1_sc^2 * ||h2||^2 + 1
    scaled_rest = sigma2 * v_rest
    v = sqrt(sigma2)
    v *= v_re
    alpha_sq *= los_gain
    v += sqrt(alpha_sq)
    v *= v
    v += scaled_rest                    # ||v||^2
    v *= snr
    rate = log1p(v)
    rate /= _LN2
    return rate


def _rate_chunks(laws: list, num_samples: int, master_seed: int):
    """Per chunk, an iterator that computes the _rate array of each law in
    turn, all from the chunk's one draw of four standard normals and two
    standard gammas per sample."""
    import numpy as np
    consts, (cfg, _) = _rate_laws(laws), laws[0]
    half = math.sqrt(0.5)
    in_place = (lambda x: np.sqrt(x, out=x)), (lambda x: np.log1p(x, out=x))
    for chunk, start in enumerate(range(0, num_samples, MC_CHUNK)):
        size = min(MC_CHUNK, num_samples - start)
        # A uint64 array: a list key would go through float64 from 2**63 up.
        key = np.array([master_seed, chunk], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        alpha_re, alpha_im_sq = half * rng.standard_normal((2, size))
        alpha_im_sq *= alpha_im_sq
        orth_re = orth_rest = None
        if cfg.N > 1:
            orth_re = half * rng.standard_normal(size)
            orth_rest = rng.standard_gamma(cfg.N - 1.5, size)
        yield starmap(partial(_rate, alpha_re, alpha_im_sq, orth_re, orth_rest,
                              half * rng.standard_normal(size),
                              rng.standard_gamma(cfg.M - 0.5, size), *in_place),
                      consts)


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


def _small_run_rates(laws: list, num_samples: int, master_seed: int
                     ) -> list[list[float]]:
    """The _rate of each law, one list each, drawn with no numpy from
    random.Random(master_seed).random() alone, the one method whose stream
    Python keeps across versions.

    Each standard complex normal is drawn in polar form from two uniforms,
    the squared modulus e = -ln(1 - U) and the phase's cosine c: its real
    part is sqrt(e) * c and its squared imaginary part e * (1 - c^2), which
    with a Gamma(k - 1) makes the Gamma(k - 1/2) of _rate's law. A sample
    draws alpha's pair, the orthogonal rest's pair and gamma, then
    ||v||^2's pair and gamma, and evaluates every law from them.
    """
    import random               # loaded by a small run, as numpy by a long one
    consts, (cfg, _) = _rate_laws(laws), laws[0]
    uniform = random.Random(master_seed).random
    log, log1p, sqrt, cos, tau = math.log, math.log1p, math.sqrt, math.cos, math.tau
    rest, v_gamma = _gamma_draw(uniform, max(cfg.N - 2, 0)), _gamma_draw(uniform, cfg.M - 1)
    out = [[] for _ in laws]
    per_law = [(*law, rates.append) for law, rates in zip(consts, out)]
    n, orth_re, orth_rest = cfg.N, None, None
    for _ in range(num_samples):
        e, c = -log(1.0 - uniform()), cos(tau * uniform())
        alpha_re, alpha_im_sq = sqrt(e) * c, e * (1.0 - c * c)
        if n > 1:
            e, c = -log(1.0 - uniform()), cos(tau * uniform())
            orth_re, orth_rest = sqrt(e) * c, e * (1.0 - c * c) + rest()
        e, c = -log(1.0 - uniform()), cos(tau * uniform())
        v_re, v_rest = sqrt(e) * c, e * (1.0 - c * c) + v_gamma()
        for w2_sc, w2_sc_sq, alpha0, root_perp, w1_sc_sq, los_gain, snr, append in per_law:
            append(_rate(alpha_re, alpha_im_sq, orth_re, orth_rest, v_re, v_rest, sqrt,
                         log1p, w2_sc, w2_sc_sq, alpha0, root_perp, w1_sc_sq, los_gain, snr))
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
