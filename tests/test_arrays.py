import numpy as np
import pytest

from ris_subarray import Angles

from helpers import (SEED_OFFSET, arrival_phase_offsets, departure_phase_offsets,
                     random_angles, reference_config, ula_steering, upa_steering)

SEED = 7041 + SEED_OFFSET


def test_ula_quarter_turn():
    # d/lambda = 0.5 at 30 degrees advances the phase by pi/2 per antenna.
    got = ula_steering(4, 0.5, np.pi / 6)
    np.testing.assert_allclose(got, [1, 1j, -1, -1j], atol=1e-12)


def test_ula_unit_modulus_and_norm():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        m = int(rng.integers(1, 65))
        a = ula_steering(m, rng.uniform(0.05, 1.0), rng.uniform(0, 2 * np.pi))
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.linalg.norm(a) ** 2 == pytest.approx(m, rel=1e-12)


def test_upa_equals_kronecker_of_axis_factors():
    # Oracle: build the two axis responses independently and kron them.
    rng = np.random.default_rng(SEED + 1)
    for _ in range(50):
        lx, ly = (int(v) for v in rng.integers(1, 7, size=2))
        d = rng.uniform(0.05, 1.0)
        th, ph = rng.uniform(0, 2 * np.pi, size=2)
        x = np.exp(2j * np.pi * d * np.sin(th) * np.arange(lx))
        y = np.exp(2j * np.pi * d * np.sin(ph) * np.cos(th) * np.arange(ly))
        np.testing.assert_allclose(upa_steering(lx, ly, d, th, ph),
                                   np.kron(x, y), atol=1e-12)


def test_upa_entry_order_is_x_major():
    d, th, ph = 0.5, np.pi / 3, np.pi / 4
    a = upa_steering(2, 3, d, th, ph)
    for lx in range(2):
        for ly in range(3):
            phase = 2 * np.pi * d * (np.sin(th) * lx
                                     + np.sin(ph) * np.cos(th) * ly)
            assert a[lx * 3 + ly] == pytest.approx(np.exp(1j * phase), abs=1e-12)


def test_offsets_unit_modulus():
    cfg = reference_config()
    for offs in (arrival_phase_offsets(cfg), departure_phase_offsets(cfg)):
        assert offs.shape == (cfg.Q,)
        np.testing.assert_allclose(np.abs(offs), 1.0, atol=1e-12)


def test_arrival_offset_reference_value():
    # Subarray q=2 sits at origin (1, 3); the arrival trip reduces to
    # cos(theta_a1) sin(phi_a1) * 2 = 1/2, conjugated: exp(-j pi/2) = -j.
    cfg = reference_config()
    assert arrival_phase_offsets(cfg)[1] == pytest.approx(-1j, abs=1e-12)


def test_departure_offset_reference_value():
    # Same subarray on the departure side: cos(theta_d2) sin(phi_d2) * 2
    # = -sqrt(3)/2, not conjugated.
    cfg = reference_config()
    expected = np.exp(-1j * np.pi * np.sqrt(3) / 2)
    assert departure_phase_offsets(cfg)[1] == pytest.approx(expected, abs=1e-12)


def test_offset_sign_asymmetry():
    # With the departure direction set equal to the arrival direction the two
    # offset vectors must be exact conjugates; this is the sign convention the
    # closed-form phase design depends on.
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        ang = random_angles(rng)
        cfg = reference_config(angles=Angles(
            theta_a1=ang.theta_a1, phi_a1=ang.phi_a1,
            theta_d2=ang.theta_a1, phi_d2=ang.phi_a1))
        np.testing.assert_allclose(arrival_phase_offsets(cfg),
                                   departure_phase_offsets(cfg).conj(),
                                   atol=1e-12)
