import functools
import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ris_subarray import (Angles, ConfigError, PowerConstants,
                          coherence_factor, config_from_dict, load_config,
                          max_se_upper_bound, monte_carlo_se, optimal_phases,
                          ris_power)
from ris_subarray.config import TWO_PI, total_power
from ris_subarray.metrics import _bounds_from_etas
from ris_subarray.numpy_sampler import MC_CHUNK, _rate_chunks
from ris_subarray.sampler import SMALL_RUN, _gamma_draw, _law_rate, _small_run_rates

from helpers import (SEED_OFFSET, TX, element_bound, gain_fraction, hop_shares,
                     jensen_mean, oracle_rates, random_config, reference_config,
                     se_upper_bound, small_config, small_raw)

SEED = 1453 + SEED_OFFSET
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ORACLE_SMALL = CONFIGS / "oracle_small.json"

# Two-sided 5-sigma threshold and its tail probability: a correct sampler
# fails one of the oracle checks with probability ~6e-7, at any seed.
Z_MAX = 5.0
P_MIN = 5.7e-7
FAST_SAMPLES = 200_000
# The standard-library sampler costs about 2.5 us per sample and 0.3 us per
# further eta in the run, 16 to 22 times numpy's 0.16 us and 0.015 us
# (small_config on a 2-vCPU x86 box).
SMALL_RUN_SAMPLES = 20_000
ORACLE_SAMPLES = 4_000


def numpy_rates(cfg, etas, samples, seed, laws=None) -> np.ndarray:
    """The rates of the chunked numpy sampler, which runs above SMALL_RUN,
    one row per gain fraction in etas, or per (cfg, eta) law in laws."""
    laws = laws or [(cfg, eta) for eta in etas]
    return np.concatenate([np.array(list(chunk)) for chunk
                           in _rate_chunks(laws, samples, seed)], axis=1)


def small_run_rates(cfg, etas, samples, seed, laws=None) -> np.ndarray:
    """The rates of the standard-library sampler, which runs up to
    SMALL_RUN, one row per gain fraction in etas, or per (cfg, eta) law in
    laws."""
    laws = laws or [(cfg, eta) for eta in etas]
    return np.array(_small_run_rates(laws, samples, seed))


# Each sampler, its sample count in the oracle checks and its case-id prefix.
SAMPLERS = [(numpy_rates, FAST_SAMPLES, ""),
            (small_run_rates, SMALL_RUN_SAMPLES, "small-")]


def _oracle_cases():
    # (config, phases, the oracle's transmit angle and spacing), each run
    # against both samplers: the library has no transmit geometry, so its
    # rates must match the oracle's at any.
    cases = []
    for scheme, side in (("subarray", 2), ("element", 1)):
        for k in (0.0, 10.0, math.inf):
            cfg = small_config(Lx=side, Ly=side, K1=k, K2=k)
            cases.append(pytest.param(cfg, optimal_phases(cfg), TX,
                                      id=f"{scheme}-K{k:g}"))
            if k:               # with no LoS on H1, tx cannot matter
                cases.append(pytest.param(cfg, optimal_phases(cfg), (0.3, 0.8),
                                          id=f"{scheme}-K{k:g}-tx"))
    for name, cfg in (("N1", small_config(Nx=1, Ny=1, Lx=1, Ly=1)),
                      ("M1", small_config(M=1)),
                      ("K1inf", small_config(K1=math.inf, K2=3.0)),
                      ("K2inf", small_config(K1=3.0, K2=math.inf)),
                      # no LoS on the first hop: the rate sees h2 only
                      # through ||h2||^2, so its split into alpha and the
                      # orthogonal rest is checked on its own
                      ("element-K1zero", small_config(Lx=1, Ly=1, K1=0.0)),
                      ("element-K1zero-K2inf",
                       small_config(Lx=1, Ly=1, K1=0.0, K2=math.inf))):
        cases.append(pytest.param(cfg, optimal_phases(cfg), TX, id=name))
    rng = np.random.default_rng(SEED + 4)
    # its own stream, so that the configs and phases stay those drawn before
    tx_rng = np.random.default_rng(SEED + 5)
    for i in range(3):
        cfg = random_config(rng, max_m=8)
        phases = rng.uniform(0, 2 * np.pi, size=cfg.Q)
        tx = (tx_rng.uniform(0.0, 2.0 * np.pi), tx_rng.uniform(0.1, 1.0))
        cases.append(pytest.param(cfg, phases, tx, id=f"random{i}"))
    return [pytest.param(*case.values, sampler, samples, id=prefix + case.id)
            for sampler, samples, prefix in SAMPLERS for case in cases]


def _var_of_sample_var(x: np.ndarray) -> float:
    """Large-sample variance of the sample variance, (m4 - s^4) / n."""
    dev = x - np.mean(x)
    return (np.mean(dev ** 4) - np.mean(dev ** 2) ** 2) / x.size


@pytest.mark.parametrize("k1, k2", [(1.0, 1.0), (math.inf, math.inf), (0.0, 17.0),
                                    (math.inf, 3.0), (0.0, math.inf), (2.5, 40.0)])
def test_bound_is_log2_of_one_plus_the_jensen_mean(k1, k2):
    # The bound's float operations are the restated E[X]'s, bit for bit.
    cfg = small_config(K1=k1, K2=k2)
    etas = (0.0, coherence_factor(cfg), 1.0)
    assert _bounds_from_etas(cfg, etas) == [math.log2(1.0 + jensen_mean(cfg, eta))
                                           for eta in etas]


def test_se_upper_bound_pure_scatter_value():
    # With K1 = K2 = 0 the bound collapses to log2(1 + P*M*(N+1)) for any
    # phase assignment; at P=10, M=64, N=1024 that is log2(656001).
    cfg = reference_config(K1=0.0, K2=0.0)
    expected = math.log2(1 + 10 * 64 * 1025)
    for phases in (optimal_phases(cfg), np.zeros(cfg.Q)):
        assert se_upper_bound(cfg, phases) == pytest.approx(expected, rel=1e-15)
    assert se_upper_bound(cfg, optimal_phases(cfg)) == pytest.approx(19.323, abs=5e-4)
    assert max_se_upper_bound(cfg) == element_bound(cfg)


def test_element_bound_pure_los_value():
    cfg = small_config(M=64, Nx=2, Ny=2, Lx=2, Ly=2, K1=math.inf, K2=math.inf,
                       P=10.0)
    assert element_bound(cfg) == pytest.approx(math.log2(10881), rel=1e-15)


def test_element_bound_equals_degenerate_subarray_path():
    # On the Lx = Ly = 1 copy the coherence factor is exactly 1, so the
    # subarray bound is the per-element closed form.
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        cfg = random_config(rng)
        assert coherence_factor(cfg.replace(Lx=1, Ly=1)) == 1.0
        assert element_bound(cfg) == pytest.approx(
            math.log2(1.0 + jensen_mean(cfg, 1.0)), rel=1e-14)


@pytest.mark.parametrize("P", [1e-14, 1e-17, 1e-300])
def test_bound_keeps_its_relative_precision_at_low_snr(P):
    # log2(1 + x) keeps only the absolute precision of 1 + x: on
    # oracle_small it was off by 2.4e-5 relative at P = 1e-14 and by 1% at
    # P = 1e-17.
    base = load_config(ORACLE_SMALL, [("P", P)])
    for cfg in (base, base.replace(Lx=1, Ly=1)):
        x = jensen_mean(cfg, coherence_factor(cfg))
        assert max_se_upper_bound(cfg) == pytest.approx(
            math.log1p(x) / math.log(2.0), rel=1e-15, abs=0.0)


def test_specular_bounds_coincide():
    ang = reference_config().angles
    cfg = reference_config(angles=Angles(
        theta_a1=ang.theta_a1, phi_a1=ang.phi_a1,
        theta_d2=ang.theta_a1, phi_d2=ang.phi_a1))
    assert coherence_factor(cfg) == 1.0
    assert max_se_upper_bound(cfg) == element_bound(cfg)


def test_grating_null_bound():
    cfg = reference_config(angles=Angles(
        theta_a1=0.0, phi_a1=7 * math.pi / 6,
        theta_d2=math.pi / 2, phi_d2=4 * math.pi / 3))
    expected = math.log2(1.0 + jensen_mean(cfg, 0.0))
    assert max_se_upper_bound(cfg) == pytest.approx(expected, abs=1e-12)


def test_bounds_monotone_in_power_antennas_and_size():
    base = reference_config()
    bounds = [max_se_upper_bound(base.replace(P=p)) for p in (1, 5, 10, 50)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    bounds = [max_se_upper_bound(base.replace(M=m)) for m in (1, 4, 16, 64)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    # growing the surface with the subarray shape fixed keeps the coherence
    # factor constant while N increases
    bounds = [max_se_upper_bound(base.replace(Nx=n, Ny=n))
              for n in (4, 8, 16, 32)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def _se_gap(cfg) -> float:
    """SE that per-element control buys over the subarray design."""
    return element_bound(cfg) - max_se_upper_bound(cfg)


def test_se_bound_gap_fields():
    # The exact gap is the log-ratio of the two bounds' arguments; dropping
    # the +1 inside both logarithms is accurate once the array terms dominate.
    cfg = reference_config(K1=100.0, K2=100.0)
    gamma1 = (100.0 / 101.0) ** 2
    eta = coherence_factor(cfg)
    snr_m = cfg.P / cfg.sigma_w2 * cfg.M
    num = gamma1 * cfg.N ** 2 + (1.0 - gamma1) * cfg.N + 1.0
    den = gamma1 * eta * cfg.N ** 2 + (1.0 - gamma1) * cfg.N + 1.0
    gap = _se_gap(cfg)
    assert gap == pytest.approx(
        math.log2((1.0 + snr_m * num) / (1.0 + snr_m * den)), rel=1e-12)
    assert gap == pytest.approx(math.log2(num / den), abs=1e-3)


def test_se_bound_gap_approaches_asymptote():
    # Strong LoS on a large surface: the gap tends to -log2(eta).
    cfg = reference_config(K1=1e4, K2=1e4)
    assert abs(_se_gap(cfg) + math.log2(coherence_factor(cfg))) < 0.01


def test_se_bound_gap_blows_up_at_null():
    # Destructive slopes: eta collapses to ~1e-33 (sin(pi) in floats is not
    # exactly zero), so the large-K asymptote -log2(eta) explodes while the
    # finite-K gap stays bounded by the scattered term.
    cfg = reference_config(K1=math.inf, K2=math.inf, angles=Angles(
        theta_a1=0.0, phi_a1=7 * math.pi / 6,
        theta_d2=math.pi / 2, phi_d2=4 * math.pi / 3))
    assert -math.log2(coherence_factor(cfg)) > 100.0
    assert math.isfinite(_se_gap(cfg))


def test_largest_accepted_config_gives_finite_values():
    # Just inside both overflow caps every output is finite; just past
    # either, the config cannot be built.
    snr_cap = 2.0 ** 1000 / (4 * (16 ** 2 + 16 + 1))
    spacing_cap = sys.float_info.max / TWO_PI
    cfg = small_config(P=snr_cap * (1 - 1e-9), d2_over_lambda=spacing_cap * (1 - 1e-9))
    assert np.isfinite(optimal_phases(cfg)).all()
    eta = coherence_factor(cfg)
    assert 0.0 <= eta <= 1.0
    assert math.isfinite(max_se_upper_bound(cfg))
    for samples in (SMALL_RUN, 2000):       # both samplers
        assert all(map(math.isfinite, *monte_carlo_se(cfg, [eta], samples, 1)))
    with pytest.raises(ConfigError, match="largest SNR"):
        cfg.replace(P=snr_cap * (1 + 1e-9))
    with pytest.raises(ConfigError, match="^d2_over_lambda=.* overflows the phase slopes"):
        cfg.replace(d2_over_lambda=spacing_cap * (1 + 1e-9))


def test_monte_carlo_reproducible():
    cfg = small_config()
    eta = coherence_factor(cfg)
    for samples in (64, SMALL_RUN + 1):     # both samplers
        first = monte_carlo_se(cfg, [eta], samples, seed=9)
        second = monte_carlo_se(cfg, [eta], samples, seed=9)
        other = monte_carlo_se(cfg, [eta], samples, seed=10)
        assert first == second
        assert first != other


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 2])
def test_monte_carlo_uses_every_seed_bit(seed):
    # Seeds from 2**63 up key Philox as they are, not rounded through
    # float64, and seed the standard library's generator with every bit.
    cfg = small_config()
    eta = coherence_factor(cfg)
    for samples in (64, SMALL_RUN + 1):     # both samplers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = monte_carlo_se(cfg, [eta], samples, seed=seed)
            high = monte_carlo_se(cfg, [eta], samples, seed=seed + 1)
        assert low != high


def test_monte_carlo_single_sample():
    cfg = small_config()
    [(mean, stderr)] = monte_carlo_se(cfg, [coherence_factor(cfg)], 1, seed=3)
    assert stderr == 0.0
    assert mean > 0.0
    with pytest.raises(ValueError):
        monte_carlo_se(cfg, [coherence_factor(cfg)], 0, seed=3)


def test_monte_carlo_reproducible_across_chunk_boundary():
    cfg = small_config()
    eta = coherence_factor(cfg)
    n = MC_CHUNK + 100
    assert monte_carlo_se(cfg, [eta], n, 5) == monte_carlo_se(cfg, [eta], n, 5)
    chunks = [rates for (rates,) in _rate_chunks([(cfg, eta)], n, 5)]
    assert [c.size for c in chunks] == [MC_CHUNK, 100]
    # a full chunk does not depend on how many samples follow it
    np.testing.assert_array_equal(
        chunks[0], next(next(_rate_chunks([(cfg, eta)], MC_CHUNK, 5))))
    # the chunk-merged moments equal the moments of all rates at once
    rates = np.concatenate(chunks)
    [(mean, stderr)] = monte_carlo_se(cfg, [eta], n, 5)
    assert mean == pytest.approx(np.mean(rates), rel=1e-12)
    assert stderr == pytest.approx(np.std(rates, ddof=1) / math.sqrt(n),
                                   rel=1e-9)


def _assert_same_law(a: np.ndarray, b: np.ndarray) -> None:
    """Two independent samples of one law: equal mean, equal variance (with
    the kurtosis-aware standard error of a sample variance) and the whole
    distribution (two-sample KS), each checked at Z_MAX / P_MIN."""
    z_mean = (np.mean(a) - np.mean(b)) / math.sqrt(
        np.var(a, ddof=1) / a.size + np.var(b, ddof=1) / b.size)
    z_var = (np.var(a, ddof=1) - np.var(b, ddof=1)) / math.sqrt(
        _var_of_sample_var(a) + _var_of_sample_var(b))
    assert abs(z_mean) < Z_MAX
    assert abs(z_var) < Z_MAX
    assert stats.ks_2samp(a, b).pvalue > P_MIN


@functools.cache
def _oracle_sample(cfg, phases: tuple, tx) -> np.ndarray:
    """The per-element oracle's rates of one case: one batched draw through
    the dense block-diagonal phase matrix, shared by both samplers and both
    tests that check the case."""
    return oracle_rates(cfg, np.array(phases), ORACLE_SAMPLES, SEED + 1, tx)


@pytest.mark.parametrize("cfg, phases, tx, sampler, samples", _oracle_cases())
def test_sampler_matches_per_element_oracle(cfg, phases, tx, sampler, samples):
    # Same law of the rate as full N-by-M draws. The sampler sees the
    # phases only through their gain fraction. Distinct seeds keep the
    # samples independent of each other.
    (fast,) = sampler(cfg, [gain_fraction(cfg, phases)], samples, SEED)
    _assert_same_law(fast, _oracle_sample(cfg, tuple(phases), tx))


@pytest.mark.parametrize("cfg, phases, tx, sampler, samples", [
    case for case in _oracle_cases() if "K10" in case.id or "random" in case.id])
def test_second_eta_of_a_pair_matches_per_element_oracle(cfg, phases, tx,
                                                         sampler, samples):
    # An eta drawn after another, from the variates they share, keeps its
    # own law, whichever eta comes first.
    eta = gain_fraction(cfg, phases)
    _, fast = sampler(cfg, [1.0 if eta < 0.5 else 0.0, eta], samples, SEED + 7)
    _assert_same_law(fast, _oracle_sample(cfg, tuple(phases), tx))


@pytest.mark.parametrize("samples", [SMALL_RUN, SMALL_RUN + 1],
                         ids=["small-run", "numpy"])
def test_monte_carlo_of_several_etas_is_each_one_eta_run(samples):
    # The etas share their draws, but each one's (mean, stderr) is that of
    # a run of it alone, bit for bit, in any order and next to any others.
    for cfg in (small_config(K1=10.0, K2=10.0), small_config(K1=math.inf, K2=2.0),
                small_config(Nx=1, Ny=1, Lx=1, Ly=1), small_config(M=1),
                load_config(ORACLE_SMALL)):
        etas = [coherence_factor(cfg), 1.0, 0.0, 0.3]
        alone = [run for eta in etas for run in monte_carlo_se(cfg, [eta], samples, 21)]
        assert monte_carlo_se(cfg, etas, samples, 21) == alone
        assert monte_carlo_se(cfg, etas[::-1], samples, 21) == alone[::-1]
        assert monte_carlo_se(cfg, etas[1:2] * 2, samples, 21) == alone[1:2] * 2


@pytest.mark.parametrize("k", [1.0, 10.0])
@pytest.mark.parametrize("sampler", [numpy_rates, small_run_rates],
                         ids=["numpy", "small-run"])
def test_paired_etas_cut_the_variance_of_their_difference(sampler, k):
    # sweep-k's subarray and element points share one draw, so their
    # per-sample difference varies less than with independent draws, whose
    # variance is the sum of the two: 3.8 to 7.3 times less on oracle_small.
    cfg = load_config(ORACLE_SMALL).replace(K1=k, K2=k)
    sub, element = sampler(cfg, [coherence_factor(cfg), 1.0],
                           SMALL_RUN_SAMPLES, SEED)
    assert np.var(sub - element, ddof=1) <= 0.5 * (
        np.var(sub, ddof=1) + np.var(element, ddof=1))


def _sampler_pair_cases():
    default_k0 = load_config(CONFIGS / "default.json", [("K1", 0.0), ("K2", 0.0)])
    # N = 2 and M = 1 are where the standard-library sampler's central
    # parts are Gamma(0), exactly 0
    cases = [pytest.param(small_config(Nx=1, Ny=1, Lx=1, Ly=1), 1.0, id="N1"),
             # alpha is the whole of h2, so an error in its variance shows
             # in the exact mean: 6 % at z ~ 16
             pytest.param(small_config(Nx=1, Ny=1, Lx=1, Ly=1, K1=0.0, K2=0.0),
                          1.0, id="N1-K0"),
             pytest.param(small_config(Nx=2, Ny=1, Lx=1, Ly=1), 0.3, id="N2"),
             pytest.param(small_config(M=1), 0.3, id="M1"),
             pytest.param(small_config(K1=math.inf, K2=math.inf), 0.3, id="Kinf"),
             pytest.param(small_config(K1=0.0, K2=0.0), 0.3, id="K0"),
             # at N = 1024 the scattered part of sigma2 outweighs that of any
             # small config: a 2 % error in its weight shows at z ~ 20
             pytest.param(default_k0, coherence_factor(default_k0), id="default-K0")]
    rng = np.random.default_rng(SEED + 6)
    for i in range(6):
        cfg = random_config(rng, max_m=8)
        eta = gain_fraction(cfg, rng.uniform(0, 2 * np.pi, size=cfg.Q))
        cases.append(pytest.param(cfg, eta, id=f"random{i}"))
    return cases


def _exact_mean(cfg, eta: float) -> float:
    """E[X] of X = snr * ||h2 Phi H1 + g||^2 = 2^rate - 1: per transmit
    antenna, the LoS-times-LoS part adds eta * N^2, each of the three parts
    that scatter at least once N, and g one. Derived part by part, not by
    jensen_mean, so the two statements check each other."""
    (los1, sc1), (los2, sc2) = hop_shares(cfg.K1), hop_shares(cfg.K2)
    scattered = los1 * sc2 + sc1 * los2 + sc1 * sc2
    return cfg.P / cfg.sigma_w2 * cfg.M * (
        los1 * los2 * eta * cfg.N ** 2 + scattered * cfg.N + 1.0)


def _assert_exact_mean(rates: np.ndarray, cfg, eta: float) -> None:
    """The sample mean of 2^rate - 1 is E[X] within Z_MAX stderrs."""
    x = np.expm1(rates * math.log(2.0))
    z = (np.mean(x) - _exact_mean(cfg, eta)) / (np.std(x, ddof=1) / math.sqrt(x.size))
    assert abs(z) < Z_MAX, z


@pytest.mark.parametrize("cfg, eta", [
    (reference_config(), 0.19),
    (reference_config(), 1.0),
    (reference_config(K1=0.0, K2=math.inf), 0.19),
    (reference_config(K1=math.inf), 0.19),
    (small_config(Nx=1, Ny=1, Lx=1, Ly=1), 0.5),
    (reference_config(M=1), 0.19),
], ids=["reference", "eta1", "K1zero-K2inf", "K1inf", "N1", "M1"])
def test_law_rate_of_floats_equals_its_rate_of_arrays_in_place(cfg, eta):
    # _law_rate serves both samplers: the small run's floats, with math's
    # sqrt and log1p, and a chunk's arrays, updated in place by numpy's. On
    # the same variates the two agree to rounding (numpy's log1p and libm's
    # differ in the last bit on a few percent of values), and the in-place
    # evaluation leaves its arguments as they were: every law of a chunk
    # takes the same arrays. At N = 1 the orthogonal rest is 0.0 floats.
    rng = np.random.default_rng(SEED + 13)
    size, half = 4000, math.sqrt(0.5)
    alpha_re, alpha_im, orth_re, v_re = half * rng.standard_normal((4, size))
    orth = [orth_re, rng.standard_gamma(cfg.N - 1.5, size)] if cfg.N > 1 else [0.0, 0.0]
    variates = [alpha_re, alpha_im * alpha_im, *orth, v_re,
                rng.standard_gamma(cfg.M - 0.5, size)]
    rate = _law_rate(cfg, eta)
    arrays = [np.copy(v) if isinstance(v, np.ndarray) else v for v in variates]
    in_place = rate(*arrays, lambda x: np.sqrt(x, out=x), lambda x: np.log1p(x, out=x))
    per_sample = [rate(*[v if isinstance(v, float) else float(v[i]) for v in variates],
                       math.sqrt, math.log1p) for i in range(size)]
    np.testing.assert_allclose(in_place, per_sample, rtol=1e-15, atol=0.0)
    for before, after in zip(variates, arrays):
        np.testing.assert_array_equal(after, before)


@pytest.mark.parametrize("cfg, eta", _sampler_pair_cases())
def test_small_run_sampler_matches_the_numpy_sampler(cfg, eta):
    # The two samplers draw one law from independent generators, so the
    # check holds at any seed with the power of 2e4 against 2e5 samples.
    # Both share _law_rate, so each is also checked against the exact mean,
    # which the Jensen bound is log2(1 + E[X]) of.
    assert _exact_mean(cfg, eta) == pytest.approx(
        2.0 ** _bounds_from_etas(cfg, [eta])[0] - 1.0, rel=1e-12)
    small = small_run_rates(cfg, [eta], SMALL_RUN_SAMPLES, SEED)[0]
    fast = numpy_rates(cfg, [eta], FAST_SAMPLES, SEED + 1)[0]
    _assert_same_law(small, fast)
    _assert_exact_mean(small, cfg, eta)
    _assert_exact_mean(fast, cfg, eta)


@pytest.mark.parametrize("sampler, samples", [(numpy_rates, FAST_SAMPLES),
                                              (small_run_rates, SMALL_RUN_SAMPLES)],
                         ids=["numpy", "small-run"])
def test_one_draw_scaled_per_rician_factor_keeps_each_exact_mean(sampler, samples):
    # sweep-k evaluates every Rician factor from one draw of standardized
    # variates, each scaled by its own w2_sc; each law, both schemes at each
    # factor, keeps its exact mean. Scaling the orthogonal rest's gamma by
    # w2_sc instead of w2_sc^2 shows at K = 1 at z ~ 41 (numpy) and ~ 13.
    cfg = load_config(ORACLE_SMALL)
    laws = [(cfg.replace(K1=k, K2=k), eta) for k in (0.0, 1.0, 10.0, 100.0, math.inf)
            for eta in (coherence_factor(cfg), 1.0)]
    for (law_cfg, eta), rates in zip(laws, sampler(None, None, samples, SEED + 8,
                                                   laws=laws)):
        _assert_exact_mean(rates, law_cfg, eta)


@pytest.mark.parametrize("k1, k2", [(0.0, 10.0), (3.0, 1.0), (math.inf, 2.0)])
@pytest.mark.parametrize("sampler, samples", [(numpy_rates, FAST_SAMPLES),
                                              (small_run_rates, SMALL_RUN_SAMPLES)],
                         ids=["numpy", "small-run"])
def test_one_element_law_keeps_the_exact_mean_at_every_eta(sampler, samples, k1, k2):
    # A one-element surface has no orthogonal rest, but at eta < 1 the LoS
    # power w2_los^2 * (1 - eta) that alpha misses is still the rest's: a
    # law that drops it falls short of the bound's E[X], 18.2 of 80 at
    # eta = 0.5 and (K1, K2) = (0, 10), which the Jensen clause cannot see.
    cfg = small_config(Nx=1, Ny=1, Lx=1, Ly=1, K1=k1, K2=k2)
    etas = [0.0, 0.5, 1.0]
    for eta, rates in zip(etas, sampler(cfg, etas, samples, SEED + 9)):
        _assert_exact_mean(rates, cfg, eta)
    [(mean, _)] = monte_carlo_se(cfg, [0.5], 2000, SEED)
    assert mean <= _bounds_from_etas(cfg, [0.5])[0]


# Integer shapes of the standard-library sampler's central parts, N - 2 and
# M - 1, from the smallest nonzero one up past M = 64 and N = 1024.
@pytest.mark.parametrize("shape", [1, 2, 3, 15, 63, 1023])
def test_gamma_draw_matches_scipy(shape):
    draw = _gamma_draw(random.Random(SEED + shape).random, shape)
    x = np.array([draw() for _ in range(SMALL_RUN_SAMPLES)])
    # Gamma(k, 1) has mean and variance k, and central fourth moment
    # 3k^2 + 6k, so the sample variance has variance (2k^2 + 6k) / n
    z_mean = (np.mean(x) - shape) / math.sqrt(shape / x.size)
    z_var = (np.var(x, ddof=1) - shape) / math.sqrt(
        (2 * shape ** 2 + 6 * shape) / x.size)
    assert abs(z_mean) < Z_MAX
    assert abs(z_var) < Z_MAX
    assert stats.kstest(x, stats.gamma(shape).cdf).pvalue > P_MIN


def test_gamma_draw_of_shape_zero_is_zero_and_draws_nothing():
    def no_uniform():
        raise AssertionError("Gamma(0) drew a uniform")
    assert repr(_gamma_draw(no_uniform, 0)()) == "0.0"


@pytest.mark.parametrize("shape", [1, 2, 15, 1023])
def test_gamma_draw_accepts_a_proposal_exactly_under_the_exact_bound(shape):
    # Marsaglia and Tsang accept the proposal d * v, v = (1 + c * x)^3 > 0,
    # when log(u) < x^2 / 2 + d * (1 - v + log(v)). Their squeeze
    # u < 1 - 0.0331 * x^4 only saves the logs, so it must never accept a
    # proposal the exact bound rejects. Over a grid of (x, u) each proposal
    # is scripted from its three uniforms: a draw that asks for a fourth has
    # rejected it. A looser squeeze (0.02) accepts too much at shape 1.
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    script = []
    draw = _gamma_draw(script.pop, shape)
    for target in np.linspace(-4.0, 4.0, 161).tolist():
        # Box-Muller's radius and angle (0 or pi) for this normal, and the
        # normal x and the v that the draw computes from them
        u1, u2 = -math.expm1(-0.5 * target * target), 0.0 if target >= 0 else 0.5
        x = math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(math.tau * u2)
        w = 1.0 + c * x
        v = w * w * w
        for u3 in np.linspace(0.005, 0.995, 125).tolist():
            accept = w > 0.0 and (math.log(1.0 - u3)
                                  < 0.5 * x * x + d * (1.0 - v + math.log(v)))
            script[:] = [u3, u2, u1]
            try:
                value = draw()
            except IndexError:
                value = None
            assert value == (d * v if accept else None), (shape, x, 1.0 - u3)


def test_small_run_sampler_uses_only_random(monkeypatch):
    # Python keeps only Random.random()'s stream across versions, so the
    # standard-library sampler must call no other method of its generator.
    cfg = small_config()
    eta = coherence_factor(cfg)
    expected = monte_carlo_se(cfg, [eta], SMALL_RUN, SEED)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sampler called a method other than random()")
    for name in dir(random.Random):
        if (not name.startswith("_") and name not in ("random", "seed")
                and callable(getattr(random.Random, name))):
            monkeypatch.setattr(random.Random, name, forbidden)
    for name in ("gauss", "gammavariate", "normalvariate", "expovariate"):
        assert getattr(random.Random, name) is forbidden
    assert monte_carlo_se(cfg, [eta], SMALL_RUN, SEED) == expected


def test_monte_carlo_respects_jensen_bound():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(5):
        cfg = random_config(rng, max_m=8)
        [(mean, stderr)] = monte_carlo_se(cfg, [coherence_factor(cfg)], 2000,
                                          seed=17 + SEED_OFFSET)
        assert mean <= se_upper_bound(cfg, optimal_phases(cfg)) + 3 * stderr


def test_pure_scatter_rate_ignores_phases():
    # With no LoS on either hop the rate distribution cannot depend on the
    # phase assignment: the law's parameters are those of any gain
    # fraction, so the same seed gives the same estimate.
    cfg = small_config(M=4, Nx=4, Ny=4, Lx=2, Ly=2, K1=0.0, K2=0.0)
    rng = np.random.default_rng(SEED + 3)
    eta1, eta2 = (gain_fraction(cfg, rng.uniform(0, 2 * np.pi, size=cfg.Q))
                  for _ in range(2))
    assert eta1 != eta2
    for samples in (SMALL_RUN, SMALL_RUN + 1):     # both samplers
        assert (monte_carlo_se(cfg, [eta1], samples, seed=77)
                == monte_carlo_se(cfg, [eta2], samples, seed=77))


def test_ris_power_reference_values():
    pc = PowerConstants()
    assert ris_power(256, pc) == 114.88
    assert ris_power(1024, pc) == 445.12
    with pytest.raises(ValueError):
        ris_power(-1, pc)


def test_energy_efficiency_reference_values():
    # The energy efficiency is the SE over the total consumed power.
    pc = PowerConstants()
    assert total_power(256, pc) == pytest.approx(134.88, rel=1e-15)
    assert 19.32 / total_power(256, pc) == pytest.approx(0.1432, abs=1e-4)
    assert 19.32 / total_power(1024, pc) == pytest.approx(0.0415, abs=1e-4)


def test_energy_efficiency_requires_positive_power():
    # An all-zero power model cannot be built; a model of drivers only
    # totals 0 without drivers, which total_power rejects.
    with pytest.raises(ConfigError, match="^power terms must not all be 0"):
        PowerConstants(p_rest=0.0, p_dynamic=0.0, p_control=0.0, p_driver=0.0)
    with pytest.raises(ValueError):
        total_power(0, PowerConstants(0.0, 0.0, 0.0, 0.43))


def test_energy_efficiency_guard_is_reachable_from_a_valid_config():
    # A config accepts a power model of drivers only, so without
    # drivers the total is 0: the guard is not a copy of that check.
    cfg = config_from_dict(small_raw(power={
        "p_rest": 0.0, "p_dynamic": 0.0, "p_control": 0.0, "p_driver": 0.43}))
    with pytest.raises(ValueError, match="^total power must be positive$"):
        total_power(0, cfg.power)


def test_power_constants_from_dict():
    pc = config_from_dict(small_raw(power={"p_rest": 10.0})).power
    assert pc == PowerConstants(p_rest=10.0)
    assert pc.p_control == 4.8
    assert config_from_dict(small_raw()).power == PowerConstants()
    with pytest.raises(ConfigError, match="power.p_driver"):
        config_from_dict(small_raw(power={"p_driver": -0.1}))
