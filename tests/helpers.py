"""Shared fixtures-by-hand for the test suite.

subarray_origin() is the 1-based oracle for the subarray layout:
grid_offsets() and offset_phases() build the origin offsets and the
closed-form phases from it, subarray by subarray.
philox_oracle() and oracle_angle_tuples() are numpy's own Philox stream,
which the library's angle stream must reproduce bit for bit.
numpy_sweep_subarray_count() and numpy_sweep_ris_size() are the regional
sweeps computed with numpy arrays, one pass per point, whose rows the
library's float math must reproduce bit for bit.
regional_draws() is the scalar, one-config-copy-per-draw oracle for the
per-tuple coherence factor and bound of the regional sweeps,
se_upper_bound() the bound at arbitrary phases, and gain_fraction() their
gain as the eta the Monte Carlo sampler takes. exhaustive_phase_search() is
the reference oracle for the closed-form phases: a grid search, capped at
Q <= ORACLE_MAX_Q, that no phases on its grid may beat by more than
grid_resolution_slack(). The steering vectors and
per-subarray offsets below build the LoS geometry element by element:
steering_couplings() is the oracle for the slope-based subarray couplings.
The per-element channel sampler at the end is the independent oracle for
the sufficient-statistic Monte Carlo sampler in ris_subarray.sampler; it
builds the channels from the LoS components defined just before it.
The regional and bound oracles restate the phase slopes (oracle_slopes())
and the Rician split (los_shares()) instead of taking the library's.

reference_config() is the evaluation setup used throughout: 64 transmit
antennas, a 32x32 surface in 2x2 subarrays, half-wavelength spacings, and the
fixed angle tuple whose phase slopes are p1 = -pi*sqrt(3)/2 and
p2 = -pi*(sqrt(3)+1)/8.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from ris_subarray import (Angles, SweepResult, SystemConfig,
                          energy_efficiency, los_cascade_gain,
                          max_se_upper_bound, ris_power, write_csv)
from ris_subarray.config import TWO_PI, check_int
from ris_subarray.design import subarray_couplings
from ris_subarray.phases import phase_slopes

REF_ANGLES = Angles(
    theta_a1=2 * math.pi / 3,
    phi_a1=7 * math.pi / 6,
    theta_d2=5 * math.pi / 3,
    phi_d2=4 * math.pi / 3,
)

# theta_d2 = pi/2, theta_a1 = 0 puts Lx * p1 exactly at pi for 2-wide
# subarrays, so the x-axis kernel vanishes.
NULL_ANGLES = Angles(theta_a1=0.0, phi_a1=7 * math.pi / 6,
                     theta_d2=math.pi / 2, phi_d2=4 * math.pi / 3)


def reference_config(**overrides) -> SystemConfig:
    base = dict(M=64, Nx=32, Ny=32, Lx=2, Ly=2, angles=REF_ANGLES,
                d2_over_lambda=0.5,
                K1=10.0, K2=10.0, P=10.0, sigma_w2=1.0)
    base.update(overrides)
    return SystemConfig(**base)


def small_config(**overrides) -> SystemConfig:
    base = dict(M=4, Nx=4, Ny=4, Lx=2, Ly=2, angles=REF_ANGLES,
                K1=10.0, K2=10.0, P=10.0)
    base.update(overrides)
    return SystemConfig(**base)


def small_raw(**extra) -> dict:
    """small_config() as the parsed JSON of a config file, plus extra keys."""
    raw = {"M": 4, "Nx": 4, "Ny": 4, "Lx": 2, "Ly": 2,
           "angles": {"theta_a1": REF_ANGLES.theta_a1,
                      "phi_a1": REF_ANGLES.phi_a1,
                      "theta_d2": REF_ANGLES.theta_d2,
                      "phi_d2": REF_ANGLES.phi_d2},
           "K1": 10.0, "K2": 10.0, "P": 10.0}
    raw.update(extra)
    return raw


def element_bound(cfg: SystemConfig) -> float:
    """Maximized SE bound of per-element control of the same surface: the
    subarray bound on the Lx = Ly = 1 copy of cfg."""
    return max_se_upper_bound(cfg.replace(Lx=1, Ly=1))


def philox_oracle(seed: int) -> np.random.Philox:
    """numpy's own Philox4x64-10 keyed (seed, 0): the independent oracle for
    the library's angle stream."""
    return np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))


def oracle_angle_tuples(seed: int, count: int) -> np.ndarray:
    """count-by-4 angle tuples through numpy's Generator: five uniforms on
    [0, 2*pi) per tuple, the first dropped."""
    rng = np.random.Generator(philox_oracle(seed))
    return rng.uniform(0.0, 2.0 * np.pi, size=(count, 5))[:, 1:]


def oracle_slopes(d: float, theta_a1, phi_a1, theta_d2, phi_d2, xp=math):
    """The per-axis phase slopes reduced mod pi as the library reduces them,
    by fmod, in the math module's scalar functions or numpy's (xp=np)."""
    p1 = math.pi * d * (xp.sin(theta_d2) - xp.sin(theta_a1))
    p2 = math.pi * d * (xp.sin(phi_d2) * xp.cos(theta_d2)
                        - xp.sin(phi_a1) * xp.cos(theta_a1))
    return xp.fmod(p1, math.pi), xp.fmod(p2, math.pi)


def los_shares(cfg: SystemConfig) -> tuple[float, float]:
    """(gamma1, gamma2): gamma1 = K1/(K1 + 1) * K2/(K2 + 1), the coherent
    LoS-times-LoS share of the cascade, with K = inf giving 1; gamma2 the
    rest."""
    share = [1.0 if math.isinf(k) else k / (k + 1.0) for k in (cfg.K1, cfg.K2)]
    gamma1 = share[0] * share[1]
    return gamma1, 1.0 - gamma1


def _numpy_kernel(L: int, p: np.ndarray) -> np.ndarray:
    """sin(L*p) / (L*sin(p)) elementwise, 1.0 where |sin(p)| < 1e-9, and
    clamped to [-1, 1]."""
    s = np.sin(p)
    singular = np.abs(s) < 1e-9
    ratio = np.sin(L * p) / np.where(singular, 1.0, L * s)
    return np.where(singular, 1.0, np.clip(ratio, -1.0, 1.0))


def numpy_regional_rows(cfg_base: SystemConfig, var_name: str, points,
                        seed: int, draws: int) -> list:
    """Sorted rows of (cfg, scheme, var_value) points, computed with numpy:
    the angle tuples from numpy's Generator, the slopes of all of them in
    one array pass, eta through np.float_power, and each mean by np.mean."""
    p1, p2 = oracle_slopes(cfg_base.d2_over_lambda,
                           *oracle_angle_tuples(seed, draws).T, xp=np)
    rows = []
    for cfg, scheme, value in points:
        eta = np.float_power(_numpy_kernel(cfg.Lx, p1) * _numpy_kernel(cfg.Ly, p2), 2)
        gamma1, gamma2 = los_shares(cfg)
        arg = 1.0 + cfg.P / cfg.sigma_w2 * cfg.M * (
            gamma1 * eta * cfg.N ** 2 + gamma2 * cfg.N + 1.0)
        # np.log2 differs from math.log2 in the last bit on a few values in 1e5
        se = np.fromiter(map(math.log2, arg), float, len(arg))
        ee = se / (cfg.power.p_rest + ris_power(cfg.Q, cfg.power))
        rows.append(SweepResult(scheme, var_name, value, None, None,
                                float(np.mean(se)), float(np.mean(ee))))
    return sorted(rows, key=lambda r: (r.scheme, r.var_value))


def numpy_sweep_subarray_count(cfg_base: SystemConfig, l0_grid, seed: int,
                               draws: int) -> list:
    cfgs = [cfg_base.replace(Lx=l0, Ly=l0) for l0 in l0_grid]
    return numpy_regional_rows(cfg_base, "Q", [
        (cfg, "element" if cfg.L == 1 else "subarray", float(cfg.Q))
        for cfg in cfgs], seed, draws)


def numpy_sweep_ris_size(cfg_base: SystemConfig, n_grid, l0_set, seed: int,
                         draws: int) -> list:
    points = []
    for n in n_grid:
        nx = math.isqrt(n)
        for l0 in [1] + [side for side in l0_set if nx % side == 0]:
            points.append((cfg_base.replace(Nx=nx, Ny=nx, Lx=l0, Ly=l0),
                           "element" if l0 == 1 else f"subarray_L{l0}", float(n)))
    return numpy_regional_rows(cfg_base, "N", points, seed, draws)


def random_angles(rng: np.random.Generator) -> Angles:
    # Five draws, the first dropped, as draw_angle_tuples does: the random
    # inputs of every test stay those of the former five-angle tuple.
    return Angles(*rng.uniform(0.0, 2.0 * np.pi, size=5)[1:])


def random_config(rng: np.random.Generator, max_m: int = 16,
                  sides=(1, 2, 4), groups=(1, 2), k_max: float = 20.0
                  ) -> SystemConfig:
    """Random valid scenario with N = Nx*Ny bounded by the side/group sets."""
    lx, ly = rng.choice(sides), rng.choice(sides)
    qx, qy = rng.choice(groups), rng.choice(groups)
    return SystemConfig(
        M=int(rng.integers(1, max_m + 1)),
        Nx=int(lx * qx), Ny=int(ly * qy), Lx=int(lx), Ly=int(ly),
        angles=random_angles(rng),
        d2_over_lambda=float(rng.uniform(0.1, 1.0)),
        K1=float(rng.uniform(0.0, k_max)),
        K2=float(rng.uniform(0.0, k_max)),
        P=float(rng.uniform(0.1, 20.0)),
    )


def subarray_origin(cfg: SystemConfig, q: int) -> tuple[int, int]:
    """1-based grid coordinates of the first element of subarray q.

    Subarrays are numbered q = 1..Q row-major: q = (qx-1)*Qy + qy.
    """
    if not 1 <= q <= cfg.Q:
        raise IndexError(f"subarray index q={q} outside 1..{cfg.Q}")
    qx, qy = divmod(q - 1, cfg.Qy)
    return qx * cfg.Lx + 1, qy * cfg.Ly + 1


def grid_offsets(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based origin offsets (x_q - 1, y_q - 1) of subarrays q = 1..Q."""
    origins = [subarray_origin(cfg, q) for q in range(1, cfg.Q + 1)]
    x, y = np.array(origins, dtype=float).T - 1.0
    return x, y


def offset_phases(cfg: SystemConfig) -> np.ndarray:
    """The closed-form optimal phases from the origin offsets of each
    subarray: minus twice the slope-weighted offset plus the half
    within-subarray progression, reduced into [0, 2*pi)."""
    p1, p2 = phase_slopes(cfg)
    x, y = grid_offsets(cfg)
    raw = -(2.0 * p1 * x + 2.0 * p2 * y
            + p1 * (cfg.Lx - 1) + p2 * (cfg.Ly - 1))
    return np.mod(raw, 2.0 * math.pi)


def normalized_kernel(L: int, p: float) -> float:
    """sin(L*p) / (L*sin(p)) in scalar math, not clamped; 1.0 where
    |sin(p)| < 1e-9 (a grating point, where the limit has modulus 1)."""
    if abs(math.sin(p)) < 1e-9:
        return 1.0
    return math.sin(L * p) / (L * math.sin(p))


def scalar_slopes(cfg: SystemConfig) -> tuple[float, float]:
    """Per-axis phase slopes of the config's own angle tuple, in scalar math."""
    return oracle_slopes(cfg.d2_over_lambda, *cfg.angles)


def scalar_coherence_factor(cfg: SystemConfig) -> float:
    p1, p2 = scalar_slopes(cfg)
    fx = min(1.0, max(-1.0, normalized_kernel(cfg.Lx, p1)))
    fy = min(1.0, max(-1.0, normalized_kernel(cfg.Ly, p2)))
    return (fx * fy) ** 2


def scalar_bound(cfg: SystemConfig) -> float:
    gamma1, gamma2 = los_shares(cfg)
    snr = cfg.P / cfg.sigma_w2
    eta = scalar_coherence_factor(cfg)
    return math.log2(1.0 + snr * cfg.M * (gamma1 * eta * cfg.N ** 2
                                          + gamma2 * cfg.N + 1.0))


def regional_draws(cfg: SystemConfig, angle_tuples) -> np.ndarray:
    """(eta, bound, EE) per angle tuple, one cfg.replace(angles=...) copy
    and one scalar evaluation per tuple: a 3-by-n array."""
    out = np.empty((3, len(angle_tuples)))
    for i, tup in enumerate(angle_tuples):
        cfg_i = cfg.replace(angles=Angles(*map(float, tup)))
        se = scalar_bound(cfg_i)
        out[:, i] = (scalar_coherence_factor(cfg_i), se,
                     energy_efficiency(se, cfg.Q, cfg.power))
    return out


def se_upper_bound(cfg: SystemConfig, phases) -> float:
    """Ergodic-SE upper bound for arbitrary length-Q phases, in bits: the
    Jensen bound through the LoS cascade gain instead of the coherence
    factor, which holds only at the optimum."""
    gamma1, gamma2 = los_shares(cfg)
    snr = cfg.P / cfg.sigma_w2
    gain = los_cascade_gain(cfg, phases)
    return math.log2(1.0 + snr * (gamma1 * gain
                                  + gamma2 * cfg.M * cfg.N + cfg.M))


def gain_fraction(cfg: SystemConfig, phases) -> float:
    """The LoS cascade gain of length-Q phases as a fraction of N^2 * M: the
    eta that monte_carlo_se takes in etas, coherence_factor(cfg) at the optimum.
    Capped at 1, which rounding can pass when every coupling is aligned."""
    return min(1.0, los_cascade_gain(cfg, phases) / (cfg.N ** 2 * cfg.M))


# Hard caps keeping the exhaustive phase search tractable (levels**Q points).
ORACLE_MAX_Q, ORACLE_MAX_LEVELS = 4, 32


def grid_resolution_slack(cfg: SystemConfig, grid_levels: int) -> float:
    """Worst-case LoS-gain shortfall of the best grid point vs the optimum."""
    return 2.0 * (1.0 - math.cos(math.pi / grid_levels)) * cfg.N ** 2 * cfg.M


def exhaustive_phase_search(cfg: SystemConfig, grid_levels: int) -> tuple:
    """Maximize the LoS cascade gain over a uniform per-subarray phase grid.

    Evaluates all grid_levels**Q combinations; capped at Q <= 4 and
    grid_levels <= 32. Returns the best phases, in [0, 2*pi), and their gain.
    """
    grid_levels = check_int("grid_levels", grid_levels, 1, ORACLE_MAX_LEVELS)
    if cfg.Q > ORACLE_MAX_Q:
        raise ValueError(
            f"exhaustive search supports Q <= {ORACLE_MAX_Q}, config has Q={cfg.Q}")
    w = subarray_couplings(cfg)
    axis = np.exp(2j * np.pi * np.arange(grid_levels) / grid_levels)
    # one open-mesh axis per subarray, summed into a levels**Q grid
    total = sum(w_q * a for w_q, a in zip(w, np.ix_(*[axis] * cfg.Q)))
    gains = (total * total.conjugate()).real * cfg.M
    combo = np.unravel_index(int(np.argmax(gains)), gains.shape)
    best = np.mod(TWO_PI * np.asarray(combo, dtype=float) / grid_levels, TWO_PI)
    # Recompute through the public gain path so the reported value cannot
    # drift from what callers would measure for the returned phases.
    return best, los_cascade_gain(cfg, best)


def rows_to_csv(rows) -> str:
    """The CSV text write_csv produces for rows."""
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


def dense_phase_matrix(cfg, phases) -> np.ndarray:
    """Independent oracle: the full N-by-N block-diagonal phase matrix."""
    return np.kron(np.diag(np.exp(1j * np.asarray(phases))), np.eye(cfg.L))


# The transmit ULA's departure angle and element spacing in wavelengths.
# They are the oracle's own inputs: the library has neither, because under
# maximum ratio transmission ||a_tx||^2 = M whatever they are.
TX = (math.pi / 2, 0.5)


def ula_steering(M: int, d_over_lambda: float, theta: float) -> np.ndarray:
    """Length-M ULA response for a planar wave at angle theta (radians)."""
    if M < 1:
        raise ValueError(f"array size M must be positive, got {M}")
    return np.exp(2j * np.pi * d_over_lambda * np.sin(theta) * np.arange(M))


def upa_steering(Lx: int, Ly: int, d_over_lambda: float,
                 theta: float, phi: float) -> np.ndarray:
    """Length Lx*Ly UPA response for elevation theta and azimuth phi.

    Element (lx, ly), zero-based, carries phase
    2*pi*d*(sin(theta)*lx + sin(phi)*cos(theta)*ly); the flattening is
    x-major, so the result equals kron(x_factor, y_factor).
    """
    if Lx < 1 or Ly < 1:
        raise ValueError(f"grid sides must be positive, got {Lx}x{Ly}")
    px = np.sin(theta) * np.arange(Lx)
    py = np.sin(phi) * np.cos(theta) * np.arange(Ly)
    return np.exp(2j * np.pi * d_over_lambda * (px[:, None] + py[None, :])).ravel()


def arrival_phase_offsets(cfg: SystemConfig) -> np.ndarray:
    """Unit-modulus offset of each subarray's origin along the arrival path.

    Note the sign: arrival offsets conjugate the propagation phase while the
    departure offsets do not, so the two functions must not be unified.
    """
    x, y = grid_offsets(cfg)
    a = cfg.angles
    trip = np.sin(a.theta_a1) * x + np.cos(a.theta_a1) * np.sin(a.phi_a1) * y
    return np.exp(-2j * np.pi * cfg.d2_over_lambda * trip)


def departure_phase_offsets(cfg: SystemConfig) -> np.ndarray:
    """Unit-modulus offset of each subarray's origin along the departure path."""
    x, y = grid_offsets(cfg)
    a = cfg.angles
    trip = np.sin(a.theta_d2) * x + np.cos(a.theta_d2) * np.sin(a.phi_d2) * y
    return np.exp(2j * np.pi * cfg.d2_over_lambda * trip)


def steering_couplings(cfg: SystemConfig) -> np.ndarray:
    """Length-Q LoS subarray couplings from the steering vectors: departure
    offset times arrival offset times the inner product of the two surface
    responses restricted to one subarray, which all subarrays share."""
    a_arr = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                         cfg.angles.theta_a1, cfg.angles.phi_a1)
    a_dep = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                         cfg.angles.theta_d2, cfg.angles.phi_d2)
    inner = np.sum(a_dep * a_arr.conj())
    return departure_phase_offsets(cfg) * arrival_phase_offsets(cfg) * inner


def los_bs_to_ris(cfg: SystemConfig, tx=TX) -> np.ndarray:
    """Deterministic N-by-M LoS component of the transmitter-to-surface hop,
    for the transmit ULA's (departure angle, spacing in wavelengths) tx.

    Rank one with nonzero singular value sqrt(N*M); every entry has unit
    modulus. Row block q is the subarray offset times the outer product of
    the conjugated surface response and the transmit response.
    """
    b = arrival_phase_offsets(cfg)
    a_ris = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                         cfg.angles.theta_a1, cfg.angles.phi_a1)
    theta_d1, d1_over_lambda = tx
    a_tx = ula_steering(cfg.M, d1_over_lambda, theta_d1)
    block = np.outer(a_ris.conj(), a_tx)
    return (b[:, None, None] * block[None, :, :]).reshape(cfg.N, cfg.M)


def los_ris_to_user(cfg: SystemConfig) -> np.ndarray:
    """Deterministic length-N LoS component of the surface-to-user hop."""
    c = departure_phase_offsets(cfg)
    a_ris = upa_steering(cfg.Lx, cfg.Ly, cfg.d2_over_lambda,
                         cfg.angles.theta_d2, cfg.angles.phi_d2)
    return (c[:, None] * a_ris[None, :]).ravel()


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) array of the given shape, one generator call per draw."""
    z = rng.standard_normal(tuple(shape) + (2,))
    return (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)


def sample_stream(master_seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one oracle sample, keyed (master_seed, index)."""
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class ChannelRealization:
    """One random draw of the three links."""

    H1: np.ndarray   # (N, M) transmitter -> surface
    h2: np.ndarray   # (N,)  surface -> user
    g: np.ndarray    # (M,)  transmitter -> user


def _rician_amplitudes(K: float) -> tuple[float, float]:
    """(LoS, scatter) amplitude weights of a hop; inf is pure LoS."""
    if math.isinf(K):
        return 1.0, 0.0
    return math.sqrt(K / (K + 1.0)), math.sqrt(1.0 / (K + 1.0))


def sample_channels(cfg: SystemConfig, rng: np.random.Generator, tx=TX
                    ) -> ChannelRealization:
    """Draw one Rician realization of (H1, h2, g), entry by entry, with the
    transmit geometry tx of los_bs_to_ris.

    The draw order is fixed (H1 scatter, then h2 scatter, then g) so a stream
    determines the realization bit-for-bit.
    """
    w1_los, w1_sc = _rician_amplitudes(cfg.K1)
    w2_los, w2_sc = _rician_amplitudes(cfg.K2)
    H1 = w1_los * los_bs_to_ris(cfg, tx) + w1_sc * complex_normal(rng, (cfg.N, cfg.M))
    h2 = w2_los * los_ris_to_user(cfg) + w2_sc * complex_normal(rng, (cfg.N,))
    g = complex_normal(rng, (cfg.M,))
    return ChannelRealization(H1=H1, h2=h2, g=g)


def effective_cascade(cfg: SystemConfig, phases, h2: np.ndarray,
                      H1: np.ndarray) -> np.ndarray:
    """Cascade h2 through the phased surface into H1 without an N-by-N matrix.

    Each length-L segment of h2 is scaled by its subarray's phase factor and
    the result is multiplied into H1, giving the length-M effective channel.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (cfg.Q,):
        raise ValueError(f"phases must have shape ({cfg.Q},), got {phases.shape}")
    if h2.shape != (cfg.N,):
        raise ValueError(f"h2 must have shape ({cfg.N},), got {h2.shape}")
    if H1.shape != (cfg.N, cfg.M):
        raise ValueError(f"H1 must have shape ({cfg.N}, {cfg.M}), got {H1.shape}")
    scale = np.repeat(np.exp(1j * phases), cfg.L)
    return (h2 * scale) @ H1


def oracle_rates(cfg: SystemConfig, phases, num_samples: int,
                 master_seed: int, tx=TX) -> np.ndarray:
    """Per-sample rates log2(1 + snr * ||h2 Phi H1 + g||^2) from full draws,
    with the transmit geometry tx of los_bs_to_ris."""
    snr = cfg.P / cfg.sigma_w2
    rates = np.empty(num_samples)
    for i in range(num_samples):
        real = sample_channels(cfg, sample_stream(master_seed, i), tx)
        v = effective_cascade(cfg, phases, real.h2, real.H1) + real.g
        rates[i] = np.log2(1.0 + snr * (v * v.conjugate()).real.sum())
    return rates
