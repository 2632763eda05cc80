"""The regional sweeps, sweep-q and sweep-n: the angle-averaged SE bound and
EE in float math on the standard library, over one seeded angle stream each.
"""

import math
import struct
from array import array
from functools import reduce
from itertools import chain, repeat
from operator import add, mul, truediv

from .config import TWO_PI, ConfigError, SystemConfig, check_run, check_type, total_power
from .metrics import _bounds_from_etas
from .phases import _normalized_kernels, coherence_factors, slope_columns
from .sweeps import SweepResult, _sorted_rows

DEFAULT_N_GRID = (16, 64, 256, 1024, 4096)

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011), the generator behind numpy's Philox: its round multipliers and
# key increments, and the counter blocks computed per pass: 4080 words, a
# whole number of five-word angle tuples.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_BLOCKS = 1020
_MASK64 = (1 << 64) - 1


def _philox_passes(seed: int, count: int):
    """The top 53 bits of the first count 64-bit outputs of numpy's
    Philox(key=[seed, 0]), a list per pass: block b, counter
    (b + 1, 0, 0, 0), gives words 4b to 4b + 3. A pass runs up to
    _PHILOX_BLOCKS blocks at once, block i in the 128-bit lane i of the ints
    c0..c3; masks split each lane's 128-bit product and drop key carries."""
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    blocks = -(-count // 4)
    for start in range(0, blocks, _PHILOX_BLOCKS):
        lanes = min(_PHILOX_BLOCKS, blocks - start)
        lane = struct.Struct("<" + "Q8x" * lanes)   # one word per lane
        ones = int.from_bytes(lane.pack(*[1] * lanes), "little")
        low, k0, k1, w0s, w1s = ones * _MASK64, seed * ones, 0, w0 * ones, w1 * ones
        c0 = int.from_bytes(lane.pack(*range(start + 1, start + lanes + 1)), "little")
        c1 = c2 = c3 = 0
        for _ in range(10):
            x0, x2 = m0 * c0, m1 * c2
            c0, c1, c2, c3 = ((x2 >> 64) & low ^ c1 ^ k0, x2 & low,
                              (x0 >> 64) & low ^ c3 ^ k1, x0 & low)
            k0, k1 = (k0 + w0s) & low, (k1 + w1s) & low
        words = list(chain.from_iterable(zip(*(
            lane.unpack((c >> 11).to_bytes(lane.size, "little"))  # top bits
            for c in (c0, c1, c2, c3)))))
        del words[count - 4 * start:]
        yield words


def _drawn_slopes(cfg: SystemConfig, seed: int, num_angle_draws: int):
    """The slope columns (p1, p2) of cfg's surface over num_angle_draws
    i.i.d. uniform [0, 2*pi) angle tuples, Generator(Philox(key=[seed,
    0])).uniform(0, 2*pi, (num_angle_draws, 5)) of numpy without its first
    column, bit for bit: each pass's words, of whole tuples, split into the
    four angle columns."""
    # numpy's double, top 53 bits * 2**-53 * TWO_PI: the exact scale rounds once
    p1, p2, scale = array("d"), array("d"), repeat(2.0 ** -53 * TWO_PI)
    for words in _philox_passes(seed, 5 * num_angle_draws):
        # arrays, not lists: a pass's floats, boxed, would fragment the heap
        x, y = slope_columns(cfg, *[array("d", map(mul, words[k::5], scale))
                                    for k in range(1, 5)])
        p1.extend(x); p2.extend(y)
    return p1[:], p2[:]   # exact copies: a grown array keeps up to 1/16 spare


def _pairwise_sum(x) -> float:
    """numpy's pairwise sum of the float64 values x, bit for bit, 8 lanes a leaf.
    numpy's sum starts from its identity, 0.0, so no sum is -0.0: each leaf
    starts from 0.0 too, which changes no other bit."""
    n = len(x)
    if n < 8:
        return reduce(add, x, 0.0)
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = x[:8]
        r0 += 0.0
        for a0, a1, a2, a3, a4, a5, a6, a7 in zip(*[iter(x[8:n - n % 8])] * 8):
            r0 += a0; r1 += a1; r2 += a2; r3 += a3; r4 += a4; r5 += a5; r6 += a6; r7 += a7
        return reduce(add, x[n - n % 8:], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def _regional_rows(var_name: str, points: list, p1, p2) -> list[SweepResult]:
    """One row per point, a (cfg, scheme, var_value) triple: the bound and EE
    averaged over the draws of the slope sequences p1 and p2, which the
    points share, as they share d2_over_lambda, a column at a time. Each
    axis's sines are computed once; each side (Lx, Ly) maps the kernel over
    both into one eta column once, and per-element control, eta exactly 1,
    has one bound for a column."""
    x, y = (p1, array("d", map(math.sin, p1))), (p2, array("d", map(math.sin, p2)))
    sides, rows, n = {}, [], len(p1)
    for point in points:
        sides.setdefault((point[0].Lx, point[0].Ly), []).append(point)
    for (lx, ly), group in sides.items():
        element = lx == ly == 1
        etas = [1.0] if element else array("d", coherence_factors(
            _normalized_kernels(lx, *x), _normalized_kernels(ly, *y)))
        for cfg, scheme, var_value in group:
            se = _bounds_from_etas(cfg, etas)
            if element:   # one bound, for the whole column
                se *= n
            ee = list(map(truediv, se, repeat(total_power(cfg.Q, cfg.power))))
            rows.append(SweepResult(scheme, var_name, var_value, None, None,
                                    _pairwise_sum(se) / n, _pairwise_sum(ee) / n))
            del se, ee   # so neither is held while the next side's kernels are built
        del etas         # nor this side's eta column
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
    check_type("cfg_base", cfg_base, SystemConfig)
    stream = check_run("seed", seed), check_run("num_angle_draws", num_angle_draws)
    l0_grid = check_run("l0_grid", default_l0_grid(cfg_base)
                        if l0_grid is None else l0_grid)
    points = []
    for l0 in l0_grid:
        if cfg_base.Nx % l0 or cfg_base.Ny % l0:
            raise ConfigError(f"l0_grid entry {l0} does not divide the "
                              f"{cfg_base.Nx}x{cfg_base.Ny} surface")
        cfg = cfg_base.replace(Lx=l0, Ly=l0)
        points.append((cfg, "element" if l0 == 1 else "subarray", float(cfg.Q)))
    return _regional_rows("Q", points, *_drawn_slopes(cfg_base, *stream))


def sweep_ris_size(cfg_base: SystemConfig, n_grid=None,
                   l0_set=(2, 4), num_angle_draws: int = 100, seed: int = 0
                   ) -> list[SweepResult]:
    """Regional SE bound and EE versus surface size for several schemes.

    Each N in the grid (default DEFAULT_N_GRID) must be a perfect square.
    Every N gets an element row plus one row per compatible L0 >= 2 in
    l0_set; rows for an L0 that does not divide sqrt(N) are skipped.
    """
    check_type("cfg_base", cfg_base, SystemConfig)
    stream = check_run("seed", seed), check_run("num_angle_draws", num_angle_draws)
    l0_set = check_run("l0_set", l0_set)
    n_grid = check_run("n_grid", DEFAULT_N_GRID if n_grid is None else n_grid)
    points = []
    for n in n_grid:
        nx = math.isqrt(n)
        for l0 in [1] + [side for side in l0_set if nx % side == 0]:
            points.append((cfg_base.replace(Nx=nx, Ny=nx, Lx=l0, Ly=l0),
                           "element" if l0 == 1 else f"subarray_L{l0}", float(n)))
    return _regional_rows("N", points, *_drawn_slopes(cfg_base, *stream))
