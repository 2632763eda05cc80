import math
from pathlib import Path

import numpy as np
import pytest

from ris_subarray import (Angles, coherence_factor, load_config,
                          los_cascade_gain, max_se_upper_bound, optimal_phases)
from ris_subarray.design import subarray_couplings
from ris_subarray.phases import coherence_factor_from_slopes, phase_slopes

from helpers import (NULL_ANGLES, dense_phase_matrix, effective_cascade,
                     exhaustive_phase_search, los_bs_to_ris, los_ris_to_user,
                     offset_phases, random_config, reference_config,
                     sample_channels, sample_stream, se_upper_bound,
                     small_config, steering_couplings)

SEED = 31337
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Hand-derived slopes for the reference angles: sin(5pi/3) - sin(2pi/3)
# = -sqrt(3), and sin(4pi/3)cos(5pi/3) - sin(7pi/6)cos(2pi/3)
# = -(sqrt(3) + 1)/4, each times pi * d2 = pi/2.
REF_P1 = -math.pi * math.sqrt(3) / 2
REF_P2 = -math.pi * (math.sqrt(3) + 1) / 8


def test_phase_assignment_normalized():
    # Phases are Q plain floats reduced into [0, 2*pi), a tuple from the
    # closed form and an array from the search: the closed form's raw values
    # run far outside the range on large surfaces.
    rng = np.random.default_rng(SEED + 9)
    cfgs = [reference_config()] + [random_config(rng, sides=(1, 2, 3),
                                                 groups=(1, 2)) for _ in range(20)]
    for cfg in cfgs:
        closed = optimal_phases(cfg)
        assert type(closed) is tuple and {type(p) for p in closed} == {float}
        searched = ([exhaustive_phase_search(cfg, grid_levels=4)[0]]
                    if cfg.Q <= 4 else [])
        for phases in [np.asarray(closed)] + searched:
            assert phases.dtype == float and phases.shape == (cfg.Q,)
            assert np.all((0.0 <= phases) & (phases < 2 * math.pi))
    # the reference surface's closed form is congruent to its raw phases
    cfg = cfgs[0]
    p1, p2 = phase_slopes(cfg)
    qx, qy = np.divmod(np.arange(cfg.Q), cfg.Qy)
    raw = -(p1 * (2 * qx * cfg.Lx + cfg.Lx - 1) + p2 * (2 * qy * cfg.Ly + cfg.Ly - 1))
    assert raw.max() > 2 * math.pi
    np.testing.assert_allclose(np.exp(1j * np.asarray(optimal_phases(cfg))),
                               np.exp(1j * raw), atol=1e-12)


def test_optimal_phases_equal_the_offset_closed_form():
    # The library lays the subarrays out per axis; the oracle takes each
    # subarray's origin from subarray_origin. Same float operations in the
    # same order, so the bits agree, on the committed configs and on random
    # surfaces of 1 to 16 subarrays per axis.
    rng = np.random.default_rng(SEED + 10)
    cfgs = [load_config(CONFIG_DIR / name)
            for name in ("default.json", "oracle_small.json")]
    cfgs += [random_config(rng, sides=(1, 2, 3), groups=(1, 2, 5, 16))
             for _ in range(1000)]
    for cfg in cfgs:
        assert np.array_equal(optimal_phases(cfg), offset_phases(cfg))


def test_phase_slopes_reference_values():
    p1, p2 = phase_slopes(reference_config())
    assert p1 == pytest.approx(REF_P1, rel=1e-12)
    assert p2 == pytest.approx(REF_P2, rel=1e-12)
    assert p1 == pytest.approx(-2.7207, abs=5e-5)
    assert p2 == pytest.approx(-1.0728, abs=1e-4)


def test_coherence_factor_reference_value():
    # For 2x2 subarrays the kernel collapses to cos(p) per axis, so the
    # factor equals (cos(p1) * cos(p2))^2; the published value is 0.19.
    eta = coherence_factor(reference_config())
    assert eta == pytest.approx((math.cos(REF_P1) * math.cos(REF_P2)) ** 2,
                                rel=1e-12)
    assert eta == pytest.approx(0.19, abs=0.005)
    assert -math.log2(eta) == pytest.approx(2.40, abs=0.02)


def test_coherence_factor_range():
    rng = np.random.default_rng(SEED)
    for _ in range(10_000):
        lx, ly = (int(v) for v in rng.integers(1, 9, size=2))
        p1, p2 = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        eta = coherence_factor_from_slopes(lx, p1, ly, p2)
        assert 0.0 <= eta <= 1.0


def test_coherence_factor_axis_swap_symmetry():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(200):
        lx, ly = (int(v) for v in rng.integers(1, 9, size=2))
        p1, p2 = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        assert (coherence_factor_from_slopes(lx, p1, ly, p2)
                == coherence_factor_from_slopes(ly, p2, lx, p1))


def test_coherence_factor_specular_is_exactly_one():
    ang = reference_config().angles
    cfg = reference_config(angles=Angles(
        theta_a1=ang.theta_a1, phi_a1=ang.phi_a1,
        theta_d2=ang.theta_a1, phi_d2=ang.phi_a1))
    assert phase_slopes(cfg) == (0.0, 0.0)
    assert coherence_factor(cfg) == 1.0


def test_coherence_factor_element_control_is_one():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        cfg = random_config(rng, sides=(1,), groups=(1, 2, 4))
        assert coherence_factor(cfg) == 1.0


def test_coherence_factor_grating_null():
    assert coherence_factor(reference_config(angles=NULL_ANGLES)) < 1e-24


def test_subarray_couplings_match_steering_vector_product():
    # Oracle: offsets times the per-subarray inner product of the two UPA
    # steering vectors. Both sum the same unit phasors, so they agree to a
    # few ulps per element of a subarray, at spacings up to one wavelength
    # and at a grating null, where every coupling cancels to ~0.
    rng = np.random.default_rng(SEED + 10)
    cfgs = [random_config(rng, sides=(1, 2, 3, 4), groups=(1, 2, 3))
            for _ in range(200)]
    cfgs += [reference_config(angles=NULL_ANGLES),
             reference_config(Lx=4, Ly=8, angles=NULL_ANGLES)]
    for cfg in cfgs:
        got = np.asarray(subarray_couplings(cfg))
        assert got.shape == (cfg.Q,)
        np.testing.assert_allclose(got, steering_couplings(cfg), rtol=0,
                                   atol=1e-13 * cfg.L)
    for cfg in cfgs[-2:]:
        assert np.abs(subarray_couplings(cfg)).max() < 1e-12 * cfg.L


def test_optimal_phases_single_subarray():
    cfg = small_config(Nx=2, Ny=2, Lx=2, Ly=2)
    p1, p2 = phase_slopes(cfg)
    expected = (-(p1 * (cfg.Lx - 1) + p2 * (cfg.Ly - 1))) % (2 * math.pi)
    got = np.asarray(optimal_phases(cfg))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, rel=1e-12)


def test_optimal_phases_align_all_couplings():
    # After rotation by the optimal phases every subarray coupling must point
    # the same way: the modulus of the sum equals the sum of moduli.
    rng = np.random.default_rng(SEED + 3)
    for _ in range(100):
        cfg = random_config(rng)
        w = np.asarray(subarray_couplings(cfg))
        rotated = np.exp(1j * np.asarray(optimal_phases(cfg))) * w
        total = np.abs(np.sum(rotated))
        assert total == pytest.approx(np.sum(np.abs(w)), rel=1e-9, abs=1e-9)


def test_los_cascade_gain_matches_dense_oracle():
    # Oracle: materialize the block-diagonal phase matrix and multiply the
    # full LoS matrices.
    rng = np.random.default_rng(SEED + 4)
    for _ in range(20):
        cfg = random_config(rng)
        phases = rng.uniform(0, 2 * np.pi, size=cfg.Q)
        dense = (los_ris_to_user(cfg) @ dense_phase_matrix(cfg, phases)
                 @ los_bs_to_ris(cfg))
        oracle = float(np.linalg.norm(dense) ** 2)
        assert los_cascade_gain(cfg, phases) == pytest.approx(oracle, rel=1e-9)


def test_optimal_gain_equals_coherence_identity():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(100):
        cfg = random_config(rng)
        gain = los_cascade_gain(cfg, optimal_phases(cfg))
        target = coherence_factor(cfg) * cfg.N ** 2 * cfg.M
        assert gain == pytest.approx(target, rel=1e-9, abs=1e-9)


def test_optimal_phases_dominate_random_ones():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(25):
        cfg = random_config(rng)
        best = los_cascade_gain(cfg, optimal_phases(cfg))
        for _ in range(4):
            phases = rng.uniform(0, 2 * np.pi, size=cfg.Q)
            assert best >= los_cascade_gain(cfg, phases) * (1 - 1e-12)


def test_effective_cascade_matches_dense_oracle():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(10):
        cfg = random_config(rng)
        real = sample_channels(cfg, sample_stream(SEED, 0))
        phases = rng.uniform(0, 2 * np.pi, size=cfg.Q)
        oracle = real.h2 @ dense_phase_matrix(cfg, phases) @ real.H1
        got = effective_cascade(cfg, phases, real.h2, real.H1)
        np.testing.assert_allclose(got, oracle, rtol=1e-10, atol=1e-10)


def test_effective_cascade_dimension_errors():
    cfg = small_config()
    real = sample_channels(cfg, sample_stream(SEED, 1))
    phases = optimal_phases(cfg)
    with pytest.raises(ValueError, match="h2"):
        effective_cascade(cfg, phases, real.h2[:-1], real.H1)
    with pytest.raises(ValueError, match="H1"):
        effective_cascade(cfg, phases, real.h2, real.H1.T)
    with pytest.raises(ValueError, match="phase"):
        effective_cascade(cfg, np.zeros(cfg.Q + 1), real.h2, real.H1)


def test_los_cascade_gain_rejects_wrong_phase_count():
    cfg = small_config()
    # An element of a (Q, 1) array is an array, not a real, on every numpy.
    for phases in (np.zeros(cfg.Q + 1), np.zeros(cfg.Q - 1), np.zeros((cfg.Q, 1)),
                   [np.zeros(1)] * cfg.Q, ["0"] * cfg.Q, 0.0):
        with pytest.raises(ValueError, match=r"^phases must have shape \(4,\)"):
            los_cascade_gain(cfg, phases)


def test_bound_at_optimum_matches_closed_form():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(100):
        cfg = random_config(rng)
        via_gain = se_upper_bound(cfg, optimal_phases(cfg))
        closed = max_se_upper_bound(cfg)
        assert via_gain == pytest.approx(closed, rel=1e-9)
