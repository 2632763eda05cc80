import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from ris_subarray import (Angles, ConfigError, PowerConstants,
                          coherence_factor, config_from_dict,
                          energy_efficiency, max_se_upper_bound,
                          monte_carlo_se, optimal_phases, ris_power)
from ris_subarray.metrics import MC_CHUNK, _gammas, _rate_chunks

from helpers import (element_bound, oracle_rates, random_config,
                     reference_config, se_upper_bound, small_config,
                     small_raw)

SEED = 1453

# Two-sided 5-sigma threshold and its tail probability: a correct sampler
# fails one of the oracle checks with probability ~6e-7, at any seed.
Z_MAX = 5.0
P_MIN = 5.7e-7
FAST_SAMPLES = 200_000
ORACLE_SAMPLES = 4_000


def _oracle_cases():
    cases = []
    for scheme, side in (("subarray", 2), ("element", 1)):
        for k in (0.0, 10.0, math.inf):
            cfg = small_config(Lx=side, Ly=side, K1=k, K2=k)
            cases.append(pytest.param(cfg, optimal_phases(cfg),
                                      id=f"{scheme}-K{k:g}"))
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
        cases.append(pytest.param(cfg, optimal_phases(cfg), id=name))
    rng = np.random.default_rng(SEED + 4)
    for i in range(3):
        cfg = random_config(rng, max_m=8)
        phases = rng.uniform(0, 2 * np.pi, size=cfg.Q)
        cases.append(pytest.param(cfg, phases, id=f"random{i}"))
    return cases


def _var_of_sample_var(x: np.ndarray) -> float:
    """Large-sample variance of the sample variance, (m4 - s^4) / n."""
    dev = x - np.mean(x)
    return (np.mean(dev ** 4) - np.mean(dev ** 2) ** 2) / x.size


def _gammas_at(k1: float, k2: float) -> tuple[float, float]:
    return _gammas(replace(small_config(), K1=k1, K2=k2))


def test_rician_weights_values():
    assert _gammas_at(1.0, 1.0) == (0.25, 0.75)
    assert _gammas_at(math.inf, math.inf) == (1.0, 0.0)
    assert _gammas_at(0.0, 17.0)[0] == 0.0
    assert _gammas_at(math.inf, 3.0)[0] == pytest.approx(0.75, rel=1e-15)


def test_rician_weights_sum_exactly_one():
    rng = np.random.default_rng(SEED)
    draws = rng.uniform(0.0, 100.0, size=(10_000, 2)).tolist()
    draws += [(0.0, 0.0), (math.inf, math.inf), (math.inf, 2.0), (0.0, math.inf)]
    for k1, k2 in draws:
        gamma1, gamma2 = _gammas_at(k1, k2)
        assert gamma1 + gamma2 == 1.0


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


def _element_formula(cfg) -> float:
    gamma1 = (cfg.K1 / (cfg.K1 + 1.0)) * (cfg.K2 / (cfg.K2 + 1.0))
    return math.log2(1.0 + cfg.P / cfg.sigma_w2 * cfg.M
                     * (gamma1 * cfg.N ** 2 + (1.0 - gamma1) * cfg.N + 1.0))


def test_element_bound_equals_degenerate_subarray_path():
    # On the Lx = Ly = 1 copy the coherence factor is exactly 1, so the
    # subarray bound is the per-element closed form.
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        cfg = random_config(rng)
        assert coherence_factor(replace(cfg, Lx=1, Ly=1)) == 1.0
        assert element_bound(cfg) == pytest.approx(_element_formula(cfg),
                                                   rel=1e-14)


def test_specular_bounds_coincide():
    ang = reference_config().angles
    cfg = reference_config(angles=Angles(
        theta_d1=ang.theta_d1, theta_a1=ang.theta_a1, phi_a1=ang.phi_a1,
        theta_d2=ang.theta_a1, phi_d2=ang.phi_a1))
    assert coherence_factor(cfg) == 1.0
    assert max_se_upper_bound(cfg) == element_bound(cfg)


def test_grating_null_bound():
    cfg = reference_config(angles=Angles(
        theta_d1=math.pi / 2, theta_a1=0.0, phi_a1=7 * math.pi / 6,
        theta_d2=math.pi / 2, phi_d2=4 * math.pi / 3))
    gamma2 = 1.0 - (cfg.K1 / (cfg.K1 + 1.0)) * (cfg.K2 / (cfg.K2 + 1.0))
    expected = math.log2(1 + cfg.P * cfg.M * (gamma2 * cfg.N + 1))
    assert max_se_upper_bound(cfg) == pytest.approx(expected, abs=1e-12)


def test_bounds_monotone_in_power_antennas_and_size():
    base = reference_config()
    bounds = [max_se_upper_bound(replace(base, P=p)) for p in (1, 5, 10, 50)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    bounds = [max_se_upper_bound(replace(base, M=m)) for m in (1, 4, 16, 64)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    # growing the surface with the subarray shape fixed keeps the coherence
    # factor constant while N increases
    bounds = [max_se_upper_bound(replace(base, Nx=n, Ny=n))
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
        theta_d1=math.pi / 2, theta_a1=0.0, phi_a1=7 * math.pi / 6,
        theta_d2=math.pi / 2, phi_d2=4 * math.pi / 3))
    assert -math.log2(coherence_factor(cfg)) > 100.0
    assert math.isfinite(_se_gap(cfg))


def test_monte_carlo_reproducible():
    cfg = small_config()
    pa = optimal_phases(cfg)
    first = monte_carlo_se(cfg, pa, 64, master_seed=9)
    second = monte_carlo_se(cfg, pa, 64, master_seed=9)
    other = monte_carlo_se(cfg, pa, 64, master_seed=10)
    assert first == second
    assert first != other


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 2])
def test_monte_carlo_uses_every_seed_bit(seed):
    # Seeds from 2**63 up key Philox as they are, not rounded through float64.
    cfg = small_config()
    pa = optimal_phases(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low = monte_carlo_se(cfg, pa, 64, master_seed=seed)
        high = monte_carlo_se(cfg, pa, 64, master_seed=seed + 1)
    assert low != high


def test_monte_carlo_single_sample():
    cfg = small_config()
    mean, stderr = monte_carlo_se(cfg, optimal_phases(cfg), 1, master_seed=3)
    assert stderr == 0.0
    assert mean > 0.0
    with pytest.raises(ValueError):
        monte_carlo_se(cfg, optimal_phases(cfg), 0, master_seed=3)


def test_monte_carlo_rejects_wrong_phase_count():
    cfg = small_config()
    with pytest.raises(ValueError, match="phase"):
        monte_carlo_se(cfg, np.zeros(cfg.Q + 1), 8, master_seed=3)


def test_monte_carlo_reproducible_across_chunk_boundary():
    cfg = small_config()
    pa = optimal_phases(cfg)
    n = MC_CHUNK + 100
    assert monte_carlo_se(cfg, pa, n, 5) == monte_carlo_se(cfg, pa, n, 5)
    chunks = list(_rate_chunks(cfg, pa, n, 5))
    assert [c.size for c in chunks] == [MC_CHUNK, 100]
    # a full chunk does not depend on how many samples follow it
    np.testing.assert_array_equal(
        chunks[0], next(_rate_chunks(cfg, pa, MC_CHUNK, 5)))
    # the chunk-merged moments equal the moments of all rates at once
    rates = np.concatenate(chunks)
    mean, stderr = monte_carlo_se(cfg, pa, n, 5)
    assert mean == pytest.approx(np.mean(rates), rel=1e-12)
    assert stderr == pytest.approx(np.std(rates, ddof=1) / math.sqrt(n),
                                   rel=1e-9)


@pytest.mark.parametrize("cfg, phases", _oracle_cases())
def test_sampler_matches_per_element_oracle(cfg, phases):
    # Same law of the rate as full N-by-M draws: mean, variance (with the
    # kurtosis-aware standard error of a sample variance) and the whole
    # distribution (two-sample KS). Distinct seeds keep the samples
    # independent of each other.
    fast = np.concatenate(list(_rate_chunks(cfg, phases, FAST_SAMPLES, SEED)))
    slow = oracle_rates(cfg, phases, ORACLE_SAMPLES, SEED + 1)
    z_mean = (np.mean(fast) - np.mean(slow)) / math.sqrt(
        np.var(fast, ddof=1) / fast.size + np.var(slow, ddof=1) / slow.size)
    z_var = (np.var(fast, ddof=1) - np.var(slow, ddof=1)) / math.sqrt(
        _var_of_sample_var(fast) + _var_of_sample_var(slow))
    assert abs(z_mean) < Z_MAX
    assert abs(z_var) < Z_MAX
    assert stats.ks_2samp(fast, slow).pvalue > P_MIN


def test_monte_carlo_respects_jensen_bound():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(5):
        cfg = random_config(rng, max_m=8)
        pa = optimal_phases(cfg)
        mean, stderr = monte_carlo_se(cfg, pa, 2000, master_seed=17)
        assert mean <= se_upper_bound(cfg, pa) + 3 * stderr


def test_pure_scatter_rate_ignores_phases():
    # With no LoS on either hop the rate distribution cannot depend on the
    # phase assignment; the two estimates share draws, so they must agree
    # well inside the combined error.
    cfg = small_config(M=4, Nx=4, Ny=4, Lx=2, Ly=2, K1=0.0, K2=0.0)
    rng = np.random.default_rng(SEED + 3)
    pa1 = rng.uniform(0, 2 * np.pi, size=cfg.Q)
    pa2 = rng.uniform(0, 2 * np.pi, size=cfg.Q)
    m1, s1 = monte_carlo_se(cfg, pa1, 100_000, master_seed=77)
    m2, s2 = monte_carlo_se(cfg, pa2, 100_000, master_seed=77)
    assert abs(m1 - m2) < 3 * math.hypot(s1, s2)


def test_ris_power_reference_values():
    pc = PowerConstants()
    assert ris_power(256, pc) == 114.88
    assert ris_power(1024, pc) == 445.12
    with pytest.raises(ValueError):
        ris_power(-1, pc)


def test_energy_efficiency_reference_values():
    pc = PowerConstants()
    assert energy_efficiency(19.32, 256, pc) == pytest.approx(19.32 / 134.88,
                                                              rel=1e-15)
    assert energy_efficiency(19.32, 256, pc) == pytest.approx(0.1432, abs=1e-4)
    assert energy_efficiency(19.32, 1024, pc) == pytest.approx(0.0415, abs=1e-4)


def test_energy_efficiency_requires_positive_power():
    pc = PowerConstants(p_rest=0.0, p_dynamic=0.0, p_control=0.0, p_driver=0.0)
    with pytest.raises(ValueError):
        energy_efficiency(1.0, 0, pc)


def test_energy_efficiency_guard_is_reachable_from_a_valid_config():
    # validate_config accepts a power model of drivers only, so without
    # drivers the total is 0: the guard is not a copy of that check.
    cfg = config_from_dict(small_raw(power={
        "p_rest": 0.0, "p_dynamic": 0.0, "p_control": 0.0, "p_driver": 0.43}))
    with pytest.raises(ValueError, match="^total power must be positive$"):
        energy_efficiency(1.0, 0, cfg.power)


def test_power_constants_from_dict():
    pc = config_from_dict(small_raw(power={"p_rest": 10.0})).power
    assert pc == PowerConstants(p_rest=10.0)
    assert pc.p_control == 4.8
    assert config_from_dict(small_raw()).power == PowerConstants()
    with pytest.raises(ConfigError, match="power.p_driver"):
        config_from_dict(small_raw(power={"p_driver": -0.1}))
