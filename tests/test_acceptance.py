"""End-to-end acceptance checks for the subarray RIS pipeline.

Each test covers one release criterion and prints a single PASS line when it
holds (run with -s to see them). The Monte Carlo runs reuse one module-scoped
set of realizations so the Jensen checks see exactly the runs the bound-gap
check used. Each run has 10^7 samples, which puts the true Jensen gap at
about 6.5 standard errors for the element scheme at K=100 and at 15-51 at the
other points, so the strict below-the-bound clause holds at any seed with
overwhelming probability; it is checked at three.
"""

import math

import numpy as np
import pytest

from ris_subarray import (PowerConstants, coherence_factor, max_se_upper_bound,
                          optimal_phases, ris_power, sweep_rician_factor,
                          sweep_ris_size, sweep_subarray_count)
from ris_subarray.design import phase_certificate

from helpers import (element_bound, exhaustive_phase_search,
                     grid_resolution_slack, jensen_mean, random_config,
                     reference_config, rows_to_csv, se_upper_bound,
                     small_config)

MC_SEEDS = (1, 2, 3)
MC_SAMPLES = 10_000_000


def _ok(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def mc_runs():
    """(scheme, K, seed) -> (mc_mean, mc_stderr, upper_bound) at full scale.
    Each seed's four points, both schemes at K = 10 and K = 100, come from
    one sweep-k run, so from one draw."""
    return {(r.scheme, r.var_value, seed): (r.se_mc, r.se_mc_stderr, r.se_ub)
            for seed in MC_SEEDS
            for r in sweep_rician_factor(reference_config(), k_grid=(10.0, 100.0),
                                         samples=MC_SAMPLES, seed=seed)}


def test_criterion_01_coherence_reference():
    cfg = reference_config()
    eta = coherence_factor(cfg)
    assert abs(eta - 0.19) <= 0.005
    assert abs(-math.log2(eta) - 2.40) <= 0.02
    _ok(1, "coherence-factor-reference")


def test_criterion_02_bound_gap_and_mc_tracking(mc_runs):
    cfg = reference_config(K1=100.0, K2=100.0)
    gap = element_bound(cfg) - max_se_upper_bound(cfg)
    assert abs(gap - 2.40) <= 0.1
    for (scheme, k, seed), (mc, stderr, ub) in mc_runs.items():
        where = f"{scheme} K={k} seed={seed}"
        assert mc <= ub, f"{where}: mc {mc} above bound {ub}"
        assert ub - mc <= 1.0, f"{where}: bound loose by {ub - mc}"
    _ok(2, "bound-gap-and-mc-tracking")


def test_criterion_03_optimal_phase_bound_consistency():
    rng = np.random.default_rng(301)
    for _ in range(1000):
        cfg = random_config(rng)
        direct = se_upper_bound(cfg, optimal_phases(cfg))
        closed = max_se_upper_bound(cfg)
        assert abs(direct - closed) <= 1e-9 * abs(closed)
    _ok(3, "optimal-phase-bound-consistency")


def test_criterion_04_exhaustive_search_oracle():
    rng = np.random.default_rng(401)
    for _ in range(100):
        cfg = random_config(rng, max_m=4)
        _, grid_gain = exhaustive_phase_search(cfg, grid_levels=16)
        closed = phase_certificate(cfg)[0]
        slack = grid_resolution_slack(cfg, 16)
        assert grid_gain <= closed * (1 + 1e-9) + 1e-12
        assert closed - grid_gain <= slack
    _ok(4, "exhaustive-search-oracle")


def test_criterion_05_cascade_gain_identity():
    rng = np.random.default_rng(501)
    for _ in range(1000):
        cfg = random_config(rng)
        gain = phase_certificate(cfg)[0]
        target = coherence_factor(cfg) * cfg.N**2 * cfg.M
        assert math.isclose(gain, target, rel_tol=1e-9, abs_tol=1e-12)
    _ok(5, "cascade-gain-identity")


def test_criterion_06_special_cases():
    # pure scattering: grouping costs nothing, both bounds hit the same value
    k0 = reference_config(K1=0.0, K2=0.0)
    expected = math.log2(1.0 + (k0.P / k0.sigma_w2) * k0.M * (k0.N + 1))
    assert abs(max_se_upper_bound(k0) - expected) <= 1e-12
    assert abs(element_bound(k0) - expected) <= 1e-12

    # specular geometry: coherent subarrays, no grouping loss
    ang = reference_config().angles
    specular = reference_config(angles=ang.replace(theta_d2=ang.theta_a1,
                                                   phi_d2=ang.phi_a1))
    assert coherence_factor(specular) == 1.0
    assert abs(max_se_upper_bound(specular)
               - element_bound(specular)) <= 1e-12

    # destructive slope (Lx*p1 a multiple of pi): LoS cascade wiped out
    null = reference_config(angles=ang.replace(theta_d2=math.pi / 2,
                                               theta_a1=0.0))
    assert coherence_factor(null) <= 1e-12
    floor = math.log2(1.0 + jensen_mean(null, 0.0))
    assert abs(max_se_upper_bound(null) - floor) <= 1e-12
    _ok(6, "special-cases")


def test_criterion_07_jensen_dominance(mc_runs):
    violations = [key for key, (mc, stderr, ub) in mc_runs.items()
                  if mc > ub + 3.0 * stderr]
    assert violations == []
    _ok(7, "jensen-dominance")


def test_criterion_08_power_arithmetic():
    power = PowerConstants()
    assert ris_power(256, power) == 114.88
    assert ris_power(1024, power) == 445.12
    _ok(8, "power-arithmetic")


def test_criterion_09_ee_crossover():
    rows = sweep_ris_size(reference_config(),
                          n_grid=(4, 16, 64, 256, 1024, 4096),
                          l0_set=(2,), num_angle_draws=100, seed=9)
    ee = {(r.scheme, r.var_value): r.ee for r in rows}
    assert ee[("element", 4.0)] > ee[("subarray_L2", 4.0)]
    assert ee[("subarray_L2", 4096.0)] > ee[("element", 4096.0)]
    _ok(9, "ee-crossover")


def test_criterion_10_csv_determinism():
    # Each sweep is run twice at a large size, 1.5e5 Monte Carlo samples or
    # 2e5 angle draws, and must write the same bytes both times.
    cfg = small_config()
    mc_a = sweep_rician_factor(cfg, k_grid=(0.0, 10.0), samples=150_000, seed=3)
    mc_b = sweep_rician_factor(cfg, k_grid=(0.0, 10.0), samples=150_000, seed=3)
    assert rows_to_csv(mc_a) == rows_to_csv(mc_b)
    reg_a = sweep_subarray_count(reference_config(), l0_grid=(1, 2, 4),
                                 num_angle_draws=200_000, seed=3)
    reg_b = sweep_subarray_count(reference_config(), l0_grid=(1, 2, 4),
                                 num_angle_draws=200_000, seed=3)
    assert rows_to_csv(reg_a) == rows_to_csv(reg_b)
    _ok(10, "csv-determinism")
