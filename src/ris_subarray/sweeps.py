"""Reproducible SE/EE sweeps and the exhaustive phase-search oracle.

Every sweep builds a deterministic list of evaluation points, derives one
seed per point from the master seed, and sorts the emitted rows, so the CSV
output is byte-identical for a fixed (config, seed) at any worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .config import (MAX_SEED, ORACLE_MAX_LEVELS, ORACLE_MAX_Q, TWO_PI,
                     SystemConfig, check_grid, check_int)
from .metrics import (_bound_from_eta, energy_efficiency, max_se_upper_bound,
                      monte_carlo_se)
from .phases import (coherence_factor_from_slopes, los_cascade_gain,
                     optimal_phases, phase_slopes, subarray_couplings)

DEFAULT_K_GRID = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
DEFAULT_N_GRID = (16, 64, 256, 1024, 4096)

# Samples or angle draws per pool process: on a 2-vCPU x86 box two processes
# break even with one near 4.8e5 samples or 3.6e5 draws per sweep (README).
WORK_PER_WORKER = 250_000


@dataclass
class SweepResult:
    """One CSV row, fields in column order; None where a sweep computes none."""

    scheme: str
    var_name: str
    var_value: float
    se_mc: float | None
    se_mc_stderr: float | None
    se_ub: float
    ee: float | None


def point_seed(master_seed: int, index: int) -> int:
    """Derived seed for sweep point number index, schedule-independent."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _run_tasks(fn, tasks, workers: int, work_per_task: int) -> list:
    """fn over tasks in at most `workers` processes, one per WORK_PER_WORKER
    units of work (samples or angle draws); in this process below two."""
    procs = min(workers, len(tasks),
                work_per_task * len(tasks) // WORK_PER_WORKER)
    if procs < 2:
        return [fn(t) for t in tasks]
    # Imported here so that only a sweep that uses the pool pays for it.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=procs) as pool:
        return list(pool.map(fn, tasks))


def _sorted_rows(rows: list[SweepResult]) -> list[SweepResult]:
    return sorted(rows, key=lambda r: (r.scheme, r.var_value))


def _rician_point(task) -> SweepResult:
    cfg, scheme, samples, seed = task
    mean, stderr = monte_carlo_se(cfg, optimal_phases(cfg), samples, seed)
    return SweepResult(scheme=scheme, var_name="K", var_value=cfg.K1,
                       se_mc=mean, se_mc_stderr=stderr,
                       se_ub=max_se_upper_bound(cfg), ee=None)


def sweep_rician_factor(cfg_base: SystemConfig, k_grid=None,
                        samples: int = 10_000, seed: int = 0,
                        workers: int = 1) -> list[SweepResult]:
    """Monte Carlo SE and maximized SE bound versus the Rician factor.

    Both hops share the swept factor (default grid DEFAULT_K_GRID).
    The element scheme is the same computation on the Lx = Ly = 1 copy of
    the config, not a separate formula.
    """
    samples = check_int("samples", samples)
    seed = check_int("seed", seed, 0, MAX_SEED)
    workers = check_int("workers", workers)
    tasks = []
    for k in check_grid("k_grid", DEFAULT_K_GRID if k_grid is None else k_grid):
        cfg = replace(cfg_base, K1=k, K2=k)
        for scheme, point_cfg in (("subarray", cfg),
                                  ("element", replace(cfg, Lx=1, Ly=1))):
            tasks.append((point_cfg, scheme, samples, point_seed(seed, len(tasks))))
    return _sorted_rows(_run_tasks(_rician_point, tasks, workers, samples))


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011), the generator behind numpy's Philox: its round multipliers and
# key increments, and the counter blocks run per array pass.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_BLOCKS = 1 << 14
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the 128-bit products m * x, for a constant m
    and a uint64 array x. The high half sums the four 32-bit half products
    without overflow; the low half is the wrapping product."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo = x & _LOW32
    hi = x >> _SHIFT32
    mid = x_lo * m_hi
    x_lo *= m_lo
    x_lo >>= _SHIFT32
    mid += x_lo                     # x_lo*m_hi + (x_lo*m_lo >> 32)
    carry = mid & _LOW32
    carry += hi * m_lo
    carry >>= _SHIFT32
    hi *= m_hi
    mid >>= _SHIFT32
    hi += mid
    hi += carry
    return hi, x * np.uint64(m)


def _philox_words(seed: int, count: int) -> np.ndarray:
    """The first count 64-bit outputs of numpy's Philox(key=[seed, 0]):
    block b, counter (b + 1, 0, 0, 0), gives words 4b to 4b + 3."""
    blocks = -(-count // 4)
    out = np.empty((blocks, 4), dtype=np.uint64)
    keys = [(np.uint64((seed + r * _PHILOX_W[0]) % 2 ** 64),
             np.uint64(r * _PHILOX_W[1] % 2 ** 64)) for r in range(10)]
    for start in range(0, blocks, _PHILOX_BLOCKS):
        stop = min(start + _PHILOX_BLOCKS, blocks)
        c0 = np.arange(start + 1, stop + 1, dtype=np.uint64)
        c1 = c2 = c3 = np.zeros_like(c0)
        for k0, k1 in keys:
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            hi1 ^= c1
            hi1 ^= k0
            hi0 ^= c3
            hi0 ^= k1
            c0, c1, c2, c3 = hi1, lo1, hi0, lo0
        out[start:stop] = np.column_stack((c0, c1, c2, c3))
    return out.ravel()[:count]


def draw_angle_tuples(seed: int, count: int) -> np.ndarray:
    """count-by-4 i.i.d. uniform [0, 2*pi) angle tuples from a fixed stream:
    numpy's Generator(Philox(key=[seed, 0])).uniform(0, 2*pi, (count, 5))
    with the first column dropped, bit for bit (the golden CSVs pin it)."""
    seed = check_int("seed", seed, 0, MAX_SEED)
    count = check_int("count", count)
    words = _philox_words(seed, 5 * count).reshape(count, 5)
    # numpy's double: the top 53 bits times 2**-53, then low + range * u.
    return (0.0 + TWO_PI * ((words >> np.uint64(11)) * 2.0 ** -53))[:, 1:]


def _regional_point(task) -> SweepResult:
    cfg, scheme, var_name, var_value, p1, p2 = task
    se = _bound_from_eta(cfg, coherence_factor_from_slopes(cfg.Lx, p1, cfg.Ly, p2))
    ee = energy_efficiency(se, cfg.Q, cfg.power)
    return SweepResult(scheme=scheme, var_name=var_name, var_value=var_value,
                       se_mc=None, se_mc_stderr=None,
                       se_ub=float(np.mean(se)), ee=float(np.mean(ee)))


def default_l0_grid(cfg: SystemConfig) -> tuple[int, ...]:
    """Every square subarray side dividing both surface sides."""
    return tuple(l0 for l0 in range(1, min(cfg.Nx, cfg.Ny) + 1)
                 if cfg.Nx % l0 == cfg.Ny % l0 == 0)


def sweep_subarray_count(cfg_base: SystemConfig, l0_grid=None,
                         num_angle_draws: int = 100, seed: int = 0,
                         workers: int = 1) -> list[SweepResult]:
    """Regional (angle-averaged) SE bound and EE versus the subarray count.

    The surface size is fixed by cfg_base; each L0 in the grid gives
    Q = N / L0^2 subarrays. All points share the same seeded angle draws, and
    the L0 = 1 point is the element scheme, labeled as such.
    """
    draws = check_int("num_angle_draws", num_angle_draws)
    workers = check_int("workers", workers)
    # The slopes depend only on the angles and d2_over_lambda, which every
    # point shares; draw_angle_tuples checks the seed.
    slopes = phase_slopes(cfg_base, draw_angle_tuples(seed, draws))
    tasks = []
    for l0 in check_grid("l0_grid", default_l0_grid(cfg_base)
                         if l0_grid is None else l0_grid):
        cfg = replace(cfg_base, Lx=l0, Ly=l0)
        tasks.append((cfg, "element" if cfg.L == 1 else "subarray", "Q",
                      float(cfg.Q), *slopes))
    return _sorted_rows(_run_tasks(_regional_point, tasks, workers, draws))


def sweep_ris_size(cfg_base: SystemConfig, n_grid=None,
                   l0_set=(2, 4), num_angle_draws: int = 100, seed: int = 0,
                   workers: int = 1) -> list[SweepResult]:
    """Regional SE bound and EE versus surface size for several schemes.

    Each N in the grid (default DEFAULT_N_GRID) must be a perfect square.
    Every N gets an element row plus one row per compatible L0 >= 2 in
    l0_set; rows for an L0 that does not divide sqrt(N) are skipped.
    """
    draws = check_int("num_angle_draws", num_angle_draws)
    workers = check_int("workers", workers)
    l0_set = check_grid("l0_set", l0_set)
    n_grid = check_grid("n_grid", DEFAULT_N_GRID if n_grid is None else n_grid)
    slopes = phase_slopes(cfg_base, draw_angle_tuples(seed, draws))
    tasks = []
    for n in n_grid:
        nx = math.isqrt(n)
        for l0 in [1] + [side for side in l0_set if nx % side == 0]:
            cfg = replace(cfg_base, Nx=nx, Ny=nx, Lx=l0, Ly=l0)
            tasks.append((cfg, "element" if l0 == 1 else f"subarray_L{l0}",
                          "N", float(n), *slopes))
    return _sorted_rows(_run_tasks(_regional_point, tasks, workers, draws))


def grid_resolution_slack(cfg: SystemConfig, grid_levels: int) -> float:
    """Worst-case LoS-gain shortfall of the best grid point vs the optimum."""
    return 2.0 * (1.0 - math.cos(math.pi / grid_levels)) * cfg.N ** 2 * cfg.M


def exhaustive_phase_search(cfg: SystemConfig, grid_levels: int
                            ) -> tuple[np.ndarray, float]:
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


def write_csv(rows: list[SweepResult], fh) -> None:
    """Write rows (sorted by scheme, then value) in the fixed CSV schema."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(f.name for f in fields(SweepResult))
    writer.writerows(map(_fmt, astuple(r)) for r in _sorted_rows(rows))


def _fmt(value) -> str:
    return ("" if value is None else value if isinstance(value, str)
            else format(value, ".12g"))
