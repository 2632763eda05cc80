"""The regional sweeps, sweep-q and sweep-n: the angle-averaged SE bound and
EE in float math on the standard library, over one seeded angle stream each.
"""

import math
import struct
from array import array
from functools import reduce
from itertools import chain, islice, repeat
from operator import add

from .config import (MAX_SEED, TWO_PI, ConfigError, SystemConfig, check_grid,
                     check_int, total_power)
from .metrics import _bound_from_eta
from .phases import coherence_factor_from_slopes, phase_slopes
from .sweeps import SweepResult, _sorted_rows

DEFAULT_N_GRID = (16, 64, 256, 1024, 4096)

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011), the generator behind numpy's Philox: its round multipliers and
# key increments, and the counter blocks computed per pass.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_BLOCKS = 1 << 10
_MASK64 = (1 << 64) - 1


def _philox_words(seed: int, count: int):
    """The first count 64-bit outputs of numpy's Philox(key=[seed, 0]), one
    at a time: block b, counter (b + 1, 0, 0, 0), gives words 4b to 4b + 3.
    A pass runs up to _PHILOX_BLOCKS blocks at once, block i in the 128-bit
    lane i of the Python ints c0..c3: a lane times a 64-bit multiplier fits
    in the lane, and one mask splits all products into high and low words."""
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    blocks = -(-count // 4)
    for start in range(0, blocks, _PHILOX_BLOCKS):
        lanes = min(_PHILOX_BLOCKS, blocks - start)
        lane = struct.Struct("<" + "Q8x" * lanes)   # one word per lane
        ones = int.from_bytes(lane.pack(*[1] * lanes), "little")
        low = ones * _MASK64
        c0 = int.from_bytes(lane.pack(*range(start + 1, start + lanes + 1)), "little")
        c1 = c2 = c3 = 0
        for r in range(10):
            x0, x2 = m0 * c0, m1 * c2
            c0, c1, c2, c3 = (
                (x2 >> 64) & low ^ c1 ^ ((seed + r * w0) & _MASK64) * ones, x2 & low,
                (x0 >> 64) & low ^ c3 ^ ((r * w1) & _MASK64) * ones, x0 & low)
        words = zip(*(lane.unpack(c.to_bytes(lane.size, "little"))
                      for c in (c0, c1, c2, c3)))
        yield from islice(chain.from_iterable(words), count - 4 * start)


def draw_angle_tuples(seed: int, count: int):
    """An iterator over count i.i.d. uniform [0, 2*pi) angle tuples, drawn as
    they are taken: Generator(Philox(key=[seed, 0])).uniform(0, 2*pi,
    (count, 5)) of numpy without its first column, bit for bit."""
    seed = check_int("seed", seed, 0, MAX_SEED)
    count = check_int("count", count)
    # numpy's double, the top 53 bits times 2**-53, times the range (low is 0)
    uniforms = (TWO_PI * ((word >> 11) * 2.0 ** -53)
                for word in _philox_words(seed, 5 * count))
    return (five[1:] for five in zip(*[uniforms] * 5))


def _pairwise_sum(x) -> float:
    """numpy's pairwise sum of the float64 values x, bit for bit."""
    n = len(x)
    if n < 8:
        return reduce(add, x, -0.0)
    if n <= 128:
        r = [reduce(add, x[j + 8:n - n % 8:8], x[j]) for j in range(8)]
        return reduce(add, x[n - n % 8:], ((r[0] + r[1]) + (r[2] + r[3]))
                      + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def _regional_rows(cfg_base: SystemConfig, var_name: str, points: list,
                   angle_tuples) -> list[SweepResult]:
    """One row per point, a (cfg, scheme, var_value) triple: the bound and EE
    averaged over the angle tuples. The points share d2_over_lambda, so the
    slopes are computed once per tuple, and eta once per tuple and side."""
    slopes = array("d", chain.from_iterable(
        phase_slopes(cfg_base, angles) for angles in angle_tuples))
    etas, rows = {}, []
    for cfg, scheme, var_value in points:
        side = cfg.Lx, cfg.Ly
        if side not in etas:
            etas[side] = array("d", map(coherence_factor_from_slopes, repeat(cfg.Lx),
                                        slopes[::2], repeat(cfg.Ly), slopes[1::2]))
        se = list(map(_bound_from_eta(cfg), etas[side]))
        total = total_power(cfg.Q, cfg.power)
        rows.append(SweepResult(scheme, var_name, var_value, None, None,
                                _pairwise_sum(se) / len(se),
                                _pairwise_sum([s / total for s in se]) / len(se)))
    return _sorted_rows(rows)


def default_l0_grid(cfg: SystemConfig) -> tuple[int, ...]:
    """Every square subarray side dividing both surface sides."""
    return tuple(l0 for l0 in range(1, min(cfg.Nx, cfg.Ny) + 1)
                 if cfg.Nx % l0 == cfg.Ny % l0 == 0)


def sweep_subarray_count(cfg_base: SystemConfig, l0_grid=None,
                         num_angle_draws: int = 100, seed: int = 0
                         ) -> list[SweepResult]:
    """Regional (angle-averaged) SE bound and EE versus the subarray count.

    The surface size is fixed by cfg_base; each L0 in the grid gives
    Q = N / L0^2 subarrays. All points share the same seeded angle draws, and
    the L0 = 1 point is the element scheme, labeled as such. Every L0 must
    divide both surface sides.
    """
    draws = check_int("num_angle_draws", num_angle_draws)
    l0_grid = check_grid("l0_grid", default_l0_grid(cfg_base)
                         if l0_grid is None else l0_grid)
    points = []
    for l0 in l0_grid:
        if cfg_base.Nx % l0 or cfg_base.Ny % l0:
            raise ConfigError(f"l0_grid entry {l0} does not divide the "
                              f"{cfg_base.Nx}x{cfg_base.Ny} surface")
        cfg = cfg_base.replace(Lx=l0, Ly=l0)
        points.append((cfg, "element" if l0 == 1 else "subarray", float(cfg.Q)))
    return _regional_rows(cfg_base, "Q", points, draw_angle_tuples(seed, draws))


def sweep_ris_size(cfg_base: SystemConfig, n_grid=None,
                   l0_set=(2, 4), num_angle_draws: int = 100, seed: int = 0
                   ) -> list[SweepResult]:
    """Regional SE bound and EE versus surface size for several schemes.

    Each N in the grid (default DEFAULT_N_GRID) must be a perfect square.
    Every N gets an element row plus one row per compatible L0 >= 2 in
    l0_set; rows for an L0 that does not divide sqrt(N) are skipped.
    """
    draws = check_int("num_angle_draws", num_angle_draws)
    l0_set = check_grid("l0_set", l0_set)
    n_grid = check_grid("n_grid", DEFAULT_N_GRID if n_grid is None else n_grid)
    points = []
    for n in n_grid:
        nx = math.isqrt(n)
        for l0 in [1] + [side for side in l0_set if nx % side == 0]:
            points.append((cfg_base.replace(Nx=nx, Ny=nx, Lx=l0, Ly=l0),
                           "element" if l0 == 1 else f"subarray_L{l0}", float(n)))
    return _regional_rows(cfg_base, "N", points, draw_angle_tuples(seed, draws))
