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
from .metrics import energy_efficiency, max_se_upper_bound, monte_carlo_se
from .phases import los_cascade_gain, optimal_phases, subarray_couplings

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


def draw_angle_tuples(seed: int, count: int) -> np.ndarray:
    """count-by-4 i.i.d. uniform [0, 2*pi) angle tuples from a fixed stream."""
    # A list key would go through float64 for seeds >= 2**63.
    key = np.array([check_int("seed", seed, 0, MAX_SEED), 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    # Five per tuple, the first dropped: the golden CSVs pin this stream.
    return rng.uniform(0.0, 2.0 * np.pi, size=(check_int("count", count), 5))[:, 1:]


def _regional_point(task) -> SweepResult:
    cfg, scheme, var_name, var_value, angle_tuples = task
    se = max_se_upper_bound(cfg, angle_tuples)
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
    angle_tuples = draw_angle_tuples(seed, draws)      # checks the seed
    tasks = []
    for l0 in check_grid("l0_grid", default_l0_grid(cfg_base)
                         if l0_grid is None else l0_grid):
        cfg = replace(cfg_base, Lx=l0, Ly=l0)
        tasks.append((cfg, "element" if cfg.L == 1 else "subarray", "Q",
                      float(cfg.Q), angle_tuples))
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
    angle_tuples = draw_angle_tuples(seed, draws)      # checks the seed
    tasks = []
    for n in n_grid:
        nx = math.isqrt(n)
        for l0 in [1] + [side for side in l0_set if nx % side == 0]:
            cfg = replace(cfg_base, Nx=nx, Ny=nx, Lx=l0, Ly=l0)
            tasks.append((cfg, "element" if l0 == 1 else f"subarray_L{l0}",
                          "N", float(n), angle_tuples))
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
