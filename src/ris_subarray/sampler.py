"""The Monte Carlo estimator of the ergodic SE, the law of its rate, and
the standard-library sampler. Of the commands, only sweep-k loads it.

A run evaluates laws, each a (cfg, eta) pair, that share N and M. A run of
at most SMALL_RUN samples draws from random.Random.random() alone
(_small_run_rates); a longer one loads numpy and draws from its Philox in
chunks (ris_subarray.numpy_sampler). Both draw each sample's six
standardized variates once, since their law depends on N and M alone, and
evaluate every law from them by that law's rate function, _law_rate (at
N = 1 the two of h2's empty orthogonal rest are 0.0, and are not drawn).
"""

import math

from .config import SystemConfig, check_real, check_run, check_sequence, check_type
from .metrics import _LN2, _law_constants

# A run of at most this many samples draws them in Python, from the standard
# library, and loads no numpy: below it, numpy's import costs more than the
# draws it would speed up (README, "Start-up and exit").
SMALL_RUN = 512


def _law_rate(cfg: SystemConfig, eta: float):
    """The rate log2(1 + snr * ||h2 Phi H1 + g||^2) of the law (cfg, eta): a
    function of one sample's six standardized variates (floats) or a chunk's
    (arrays), and the sqrt and log1p to apply. Augmented assignments rebind
    a float and update an array in place, and sqrt and log1p may overwrite
    their argument, which is not used again.

    The rate depends on the channels only through that squared norm, which
    is drawn from its exact law instead of from the N-by-M matrices. With
    f = (per-element phase factor) * (first column of the LoS of H1), the
    rank-one LoS hop gives h2 Phi H1_los = sqrt(N) * alpha * a_tx^T where
    alpha = sum_n h2_n f_n / sqrt(N) ~ CN(alpha0, w2_sc^2). The law of
    |alpha|^2 depends on the phases only through
    |alpha0|^2 = w2_los^2 * (LoS cascade gain) / (N * M) = w2_los^2 * eta * N,
    where eta is the gain |sum_q e^{j phi_q} w_q|^2 * M over the subarray
    couplings w_q (design.subarray_couplings) as a fraction of N^2 * M,
    coherence_factor at the optimal phases. The rest of h2, orthogonal to
    conj(f), is independent of alpha, and its squared norm is
    (w2_sc^2 / 2) * chi'^2(2(N-1), 2 * perp / w2_sc^2), where
    perp = w2_los^2 * N - |alpha0|^2 is the squared norm of the LoS part of
    that rest. Given h2, the scattered hop and g add CN(0, sigma2 I_M) with
    sigma2 = w1_sc^2 * ||h2||^2 + 1, so
    ||v||^2 = (sigma2 / 2) * chi'^2(2M, 2 * w1_los^2 * N * M * |alpha|^2 / sigma2).

    A scaled noncentral chi-square (var / 2) * chi'^2(2k, 2 * mu^2 / var) is
    (mu + sqrt(var / 2) * z)^2 + var * Gamma(k - 1/2) with z standard
    normal: one real coordinate carries the whole mean. So the variates are
    alpha - alpha0's real part and squared imaginary part, the orthogonal
    rest's real coordinate along its LoS part and the rest of its squared
    norm (0.0 at N = 1, where only root_perp^2 is left of the rest), all
    per unit w2_sc, and ||v||^2's coordinate along its mean and the rest,
    per unit sigma2. None depends on eta or on a Rician factor.
    """
    (w1_los_sq, w1_sc_sq), (w2_los_sq, w2_sc_sq), snr = _law_constants(cfg)
    w2_sc, alpha0 = math.sqrt(w2_sc_sq), math.sqrt(w2_los_sq * eta * cfg.N)
    root_perp = math.sqrt(w2_los_sq * cfg.N * (1.0 - eta))
    los_gain = w1_los_sq * cfg.N * cfg.M

    def rate(alpha_re, alpha_im_sq, orth_re, orth_rest, v_re, v_rest, sqrt, log1p):
        alpha_sq = alpha_re * w2_sc
        alpha_sq += alpha0
        alpha_sq *= alpha_sq
        alpha_sq += alpha_im_sq * w2_sc_sq  # |alpha|^2
        sigma2 = w1_sc_sq * alpha_sq
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
        v = log1p(v)
        v /= _LN2
        return v
    return rate


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


def _small_run_rates(laws: list, samples: int, seed: int) -> list[list[float]]:
    """The rates of each law, one list each, drawn with no numpy from
    random.Random(seed).random() alone, the one method whose stream
    Python keeps across versions.

    Each standard complex normal is drawn in polar form from two uniforms,
    the squared modulus e = -ln(1 - U) and the phase's cosine c: its real
    part is sqrt(e) * c and its squared imaginary part e * (1 - c^2), which
    with a Gamma(k - 1) makes the Gamma(k - 1/2) of _law_rate's law. A sample
    draws alpha's pair, the orthogonal rest's pair and gamma (at N > 1), then
    ||v||^2's pair and gamma, and evaluates every law from them.
    """
    import random               # loaded by a small run, as numpy by a long one
    cfg = laws[0][0]
    uniform = random.Random(seed).random
    log, log1p, sqrt, cos, tau = math.log, math.log1p, math.sqrt, math.cos, math.tau
    rest, v_gamma = _gamma_draw(uniform, max(cfg.N - 2, 0)), _gamma_draw(uniform, cfg.M - 1)
    out = [[] for _ in laws]
    per_law = [(_law_rate(*law), rates.append) for law, rates in zip(laws, out)]
    n, orth_re, orth_rest = cfg.N, 0.0, 0.0
    for _ in range(samples):
        e, c = -log(1.0 - uniform()), cos(tau * uniform())
        alpha_re, alpha_im_sq = sqrt(e) * c, e * (1.0 - c * c)
        if n > 1:
            e, c = -log(1.0 - uniform()), cos(tau * uniform())
            orth_re, orth_rest = sqrt(e) * c, e * (1.0 - c * c) + rest()
        e, c = -log(1.0 - uniform()), cos(tau * uniform())
        v_re, v_rest = sqrt(e) * c, e * (1.0 - c * c) + v_gamma()
        for rate, append in per_law:
            append(rate(alpha_re, alpha_im_sq, orth_re, orth_rest, v_re, v_rest, sqrt, log1p))
    return out


def monte_carlo_se(cfg: SystemConfig, etas, samples: int,
                   seed: int) -> list[tuple[float, float]]:
    """Sample-mean ergodic SE and its standard error, in bits, one
    (mean, stderr) per gain fraction in etas, all from one draw. A gain
    fraction is the LoS cascade gain of the phases over N^2 * M (see
    _law_rate), which is coherence_factor(cfg) at the optimal ones.

    Maximum-ratio transmission is folded in analytically: the rate of a
    sample is log2(1 + snr * ||h2 Phi H1 + g||^2), whose law _law_rate states.
    A run of at most SMALL_RUN samples draws them from the standard library
    (_small_run_rates), a longer one from numpy's Philox in chunks
    (numpy_sampler). Each sample's variates are standardized, so eta and the
    Rician factors enter only as constants of the law, and every eta is
    evaluated from one draw (common random numbers): the estimates of two
    etas are correlated, and the variance of their difference is smaller
    than with independent draws. Each result is a pure function of (cfg, eta,
    samples, seed), whatever the other etas are, and its stderr is its own.
    Chunk moments are merged in chunk order (Chan et al.). etas must be a
    sequence of finite reals in [0, 1], samples an integer >= 1 and seed one
    in [0, 2**64).
    """
    check_type("cfg", cfg, SystemConfig)
    etas = [check_real("etas", eta, 0.0, high=1.0)
            for eta in check_sequence("etas", etas, "gain fractions")]
    samples = check_run("samples", samples)
    seed = check_run("seed", seed)
    return _monte_carlo_se([(cfg, eta) for eta in etas], samples, seed)


def _monte_carlo_se(laws: list, samples: int, seed: int) -> list:
    """monte_carlo_se of checked (cfg, eta) laws, which share N and M."""
    if samples <= SMALL_RUN:
        runs = []
        for rates in _small_run_rates(laws, samples, seed):
            mean = math.fsum(rates) / samples
            runs.append([(samples, mean,
                          math.fsum([(r - mean) ** 2 for r in rates]))])
    else:
        from .numpy_sampler import _chunk_moments, _rate_chunks
        runs = zip(*_chunk_moments(_rate_chunks(laws, samples, seed)))
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
