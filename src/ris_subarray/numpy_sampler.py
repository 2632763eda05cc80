"""The Monte Carlo sampler of runs longer than sampler.SMALL_RUN: numpy's
Philox in chunks, each law's rates by its sampler._law_rate on the chunk's
arrays, in place. Only such a run imports this module, and numpy with it.
"""

import math

import numpy as np

from .sampler import _law_rate

# Monte Carlo samples are drawn in chunks of this many consecutive indices,
# chunk c from the Philox stream keyed (seed, c). A chunk's values do
# not depend on how many samples a run asks for beyond it, and memory stays
# bounded at any sample count.
MC_CHUNK = 1 << 16


def _rate_chunks(laws: list, samples: int, seed: int):
    """Per chunk, an iterator that computes the rate array of each law in
    turn, all from the chunk's one draw of four standard normals and two
    standard gammas per sample; at N = 1 the orthogonal rest's are 0.0."""
    rates, cfg = [_law_rate(*law) for law in laws], laws[0][0]
    half = math.sqrt(0.5)
    in_place = (lambda x: np.sqrt(x, out=x)), (lambda x: np.log1p(x, out=x))
    for chunk, start in enumerate(range(0, samples, MC_CHUNK)):
        size = min(MC_CHUNK, samples - start)
        # A uint64 array: a list key would go through float64 from 2**63 up.
        key = np.array([seed, chunk], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        alpha_re, alpha_im_sq = half * rng.standard_normal((2, size))
        alpha_im_sq *= alpha_im_sq
        orth_re = orth_rest = 0.0
        if cfg.N > 1:
            orth_re = half * rng.standard_normal(size)
            orth_rest = rng.standard_gamma(cfg.N - 1.5, size)
        v_re = half * rng.standard_normal(size)
        v_rest = rng.standard_gamma(cfg.M - 0.5, size)
        yield (rate(alpha_re, alpha_im_sq, orth_re, orth_rest, v_re, v_rest, *in_place)
               for rate in rates)


def _chunk_moments(chunks):
    """Per chunk, (count, mean, sum of squared deviations) of each of its
    arrays of rates."""
    def moments(rates) -> tuple:
        mean = float(np.mean(rates))
        return rates.size, mean, float(np.sum((rates - mean) ** 2))
    for arrays in chunks:
        yield [moments(rates) for rates in arrays]
