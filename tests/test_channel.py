import math

import numpy as np
import pytest

from ris_subarray.metrics import rician_split

from helpers import (arrival_phase_offsets, departure_phase_offsets,
                     los_bs_to_ris, los_ris_to_user, random_config,
                     reference_config, sample_channels, sample_stream,
                     small_config, ula_steering, upa_steering)

SEED = 90210


def test_los_bs_to_ris_matches_kron_oracle():
    # Oracle: offsets kron'd against the conjugated-surface/transmit outer
    # product, assembled with np.kron instead of the block broadcast.
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        cfg = random_config(rng)
        b = arrival_phase_offsets(cfg)
        a_ris = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                             cfg.angles.theta_a1, cfg.angles.phi_a1)
        a_tx = ula_steering(cfg.M, cfg.d1_over_lambda, cfg.angles.theta_d1)
        oracle = np.kron(b[:, None], np.outer(a_ris.conj(), a_tx))
        np.testing.assert_allclose(los_bs_to_ris(cfg), oracle, atol=1e-12)


def test_los_ris_to_user_matches_kron_oracle():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(10):
        cfg = random_config(rng)
        c = departure_phase_offsets(cfg)
        a_ris = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                             cfg.angles.theta_d2, cfg.angles.phi_d2)
        np.testing.assert_allclose(los_ris_to_user(cfg), np.kron(c, a_ris),
                                   atol=1e-12)


def test_los_components_unit_modulus():
    cfg = reference_config()
    H = los_bs_to_ris(cfg)
    h = los_ris_to_user(cfg)
    assert H.shape == (cfg.N, cfg.M)
    assert h.shape == (cfg.N,)
    np.testing.assert_allclose(np.abs(H), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)
    assert np.linalg.norm(h) ** 2 == pytest.approx(cfg.N, rel=1e-12)


def test_los_bs_to_ris_rank_one():
    cfg = reference_config()
    s = np.linalg.svd(los_bs_to_ris(cfg), compute_uv=False)
    assert s[0] == pytest.approx(math.sqrt(cfg.N * cfg.M), rel=1e-12)
    assert s[1] < 1e-8 * s[0]


def test_mixing_weights():
    assert rician_split(0.0) == (0.0, 1.0)
    assert rician_split(math.inf) == (1.0, 0.0)
    assert rician_split(1.0) == (0.5, 0.5)
    los, sc = rician_split(3.0)
    assert los == pytest.approx(0.75, rel=1e-15)
    assert sc == pytest.approx(0.25, rel=1e-15)


def test_pure_los_sampling_is_exact():
    cfg = small_config(K1=math.inf, K2=math.inf)
    real = sample_channels(cfg, sample_stream(SEED, 0))
    np.testing.assert_array_equal(real.H1, los_bs_to_ris(cfg))
    np.testing.assert_array_equal(real.h2, los_ris_to_user(cfg))
    # the direct link stays random
    assert np.linalg.norm(real.g) > 0


def test_sampling_reproducible_and_index_sensitive():
    cfg = small_config()
    a = sample_channels(cfg, sample_stream(123, 7))
    b = sample_channels(cfg, sample_stream(123, 7))
    c = sample_channels(cfg, sample_stream(123, 8))
    d = sample_channels(cfg, sample_stream(124, 7))
    np.testing.assert_array_equal(a.H1, b.H1)
    np.testing.assert_array_equal(a.h2, b.h2)
    np.testing.assert_array_equal(a.g, b.g)
    assert not np.array_equal(a.H1, c.H1)
    assert not np.array_equal(a.H1, d.H1)


def test_entry_power_is_unit():
    # E|entry|^2 = 1 for any Rician factor; 12500 draws of a 4x2 hop give
    # 1e5 scalar samples, so the mean is pinned well inside +-0.02.
    cfg = small_config(M=2, Nx=2, Ny=2, Lx=1, Ly=1, K1=2.5, K2=2.5)
    acc = 0.0
    count = 0
    for i in range(12_500):
        real = sample_channels(cfg, sample_stream(SEED + 2, i))
        acc += float(np.sum(np.abs(real.H1) ** 2))
        count += real.H1.size
    assert acc / count == pytest.approx(1.0, abs=0.02)


def test_direct_link_power_is_unit():
    cfg = small_config(M=8)
    acc = np.zeros(cfg.M)
    for i in range(5000):
        real = sample_channels(cfg, sample_stream(SEED + 3, i))
        acc += np.abs(real.g) ** 2
    assert np.mean(acc / 5000) == pytest.approx(1.0, abs=0.05)
