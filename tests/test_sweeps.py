import csv
import io
import json
import math
import re
import warnings
from array import array
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from ris_subarray import (Angles, ConfigError, SweepResult, coherence_factor,
                          load_config, max_se_upper_bound, monte_carlo_se,
                          sweep_rician_factor, sweep_ris_size, sweep_subarray_count)
from ris_subarray import regional, sampler, sweeps
from ris_subarray.config import total_power
from ris_subarray.design import phase_certificate
from ris_subarray.metrics import _bounds_from_etas
from ris_subarray.phases import _normalized_kernels, coherence_factors, slope_columns
from ris_subarray.regional import (DEFAULT_N_GRID, _drawn_slopes, _regional_rows,
                                   default_l0_grid)
from ris_subarray.sampler import SMALL_RUN

from helpers import (SEED_OFFSET, dense_gain, exhaustive_phase_search,
                     grid_resolution_slack, normalized_kernel, numpy_regional_rows,
                     numpy_sweep_ris_size, numpy_sweep_subarray_count, oracle_angle_tuples,
                     oracle_slopes, philox_oracle, random_config, reference_config,
                     regional_draws, rows_to_csv, scalar_slopes, small_config)

SEED = 60601 + SEED_OFFSET
HEADER = "scheme,var_name,var_value,se_mc,se_mc_stderr,se_ub,ee"
ROOT = Path(__file__).resolve().parents[1]
# Golden sweep-q/sweep-n CSVs of configs/default.json at the CLI defaults,
# recorded for the benchmark's byte-for-byte output check.
GOLDEN = json.loads((ROOT / "bench" / "reference.json").read_text())["regional"]

# How the shared integer check words each kind of run argument.
SEED_RULE = r"an integer in \[0, 18446744073709551615\]"
RULES = {"seed": SEED_RULE,
         "grid_levels": r"an integer in \[1, 32\]", "l0_set": "an integer >= 2",
         "n_grid": r"an integer in \[1, 1048576\]",
         "etas": "finite and >= 0 and <= 1"}


def rule(name: str) -> str:
    return RULES.get(name, "a positive integer")


def spy_points(monkeypatch) -> list:
    """The arguments of every sweep point (sweep-k's one Monte Carlo run, or
    the regional rows) evaluated while monkeypatch is active; the points are
    not run."""
    ran = []
    for module, point in ((sampler, "_monte_carlo_se"), (regional, "_regional_rows")):
        monkeypatch.setattr(module, point, lambda *args: ran.append(args))
    return ran


HALF_PI = math.pi / 2
# theta_a1 = -pi/2, theta_d2 = pi/2 puts p1 at pi * d2 * 2: a grating point
# (sin p1 ~ 1e-16) at d2 = 0.5. At d2 = 0.4999999988, p1 is just below pi,
# where reducing it mod pi leaves it as it is, |sin p1| ~ 7.5e-9 is past the
# fill threshold and the 3-element kernel rounds to 1 + 3.9e-8.
GRATING = [(-HALF_PI, 1.1, HALF_PI, 2.0), (-HALF_PI, 1.1, HALF_PI, 1.1)]
CLAMP_CFG = small_config(Nx=6, Lx=3, d2_over_lambda=0.4999999988)


def tuples_of(seed: int, count: int) -> list:
    """The angle tuples of the regional sweeps' stream, from numpy's own Philox."""
    return list(map(tuple, oracle_angle_tuples(seed, count).tolist()))


def slopes_of(cfg, tuples) -> list:
    """The slope columns [p1, p2] of cfg's surface over hand-picked tuples."""
    return list(map(list, slope_columns(cfg, *zip(*tuples))))


def _oracle_cases():
    rng = np.random.default_rng(SEED)
    cases = [(random_config(rng), tuples_of(i, 200)) for i in range(6)]
    null = (0.0, 1.1, HALF_PI, 2.0)  # 2 * p1 = pi
    cases.append((reference_config(), GRATING + [null]))
    specular = [t[:2] * 2 for t in tuples_of(7, 20)]
    cases.append((reference_config(), specular))
    cases.append((CLAMP_CFG, GRATING[:1]))
    cases.append((reference_config(Lx=1, Ly=1), tuples_of(8, 200)))
    return cases


def test_clamp_case_overshoots():
    p1, _ = scalar_slopes(CLAMP_CFG.replace(angles=Angles(*GRATING[0])))
    assert normalized_kernel(3, p1) > 1.0 + 1e-8
    assert _normalized_kernels(3, [p1], [math.sin(p1)]) == [1.0]


@pytest.mark.parametrize("cfg,tuples", _oracle_cases(),
                         ids=[f"random{i}" for i in range(6)]
                         + ["grating", "specular", "clamp", "element"])
def test_vectorized_bound_equals_per_tuple_oracle(cfg, tuples):
    eta, se, ee = regional_draws(cfg, tuples)
    # the sweeps' path, a column of tuples at a time: each axis's slopes and
    # their sines, the kernel columns, then eta and the bound from them
    p1, p2 = slopes_of(cfg, tuples)
    sweep_eta = list(coherence_factors(*(_normalized_kernels(L, p, list(map(math.sin, p)))
                                         for L, p in ((cfg.Lx, p1), (cfg.Ly, p2)))))
    assert sweep_eta == list(eta)
    assert _bounds_from_etas(cfg, sweep_eta) == list(se)
    assert [s / total_power(cfg.Q, cfg.power) for s in se] == list(ee)
    # the config's own tuple runs the same code on one-element columns
    assert [coherence_factor(cfg.replace(angles=Angles(*t))) for t in tuples] == list(eta)
    assert [max_se_upper_bound(cfg.replace(angles=Angles(*t)))
            for t in tuples] == list(se)
    # a sweep row averages the bound and EE of every tuple as np.mean does
    (row,) = _regional_rows("Q", [(cfg, "s", 1.0)], p1, p2)
    assert (row.se_ub, row.ee) == (float(np.mean(se)), float(np.mean(ee)))
    if cfg.Lx == cfg.Ly == 1:
        assert np.all(eta == 1.0)


def test_regional_rows_of_mixed_sides_equal_each_sides_own():
    # Sides of both orientations in one call, the element side among them:
    # each axis's kernel must follow its own side, which the sweeps' square
    # sides cannot show.
    cfg = reference_config()
    tuples = tuples_of(SEED + 3, 300)
    slopes = slopes_of(cfg, tuples)
    points = [(cfg.replace(Lx=lx, Ly=ly), f"L{lx}x{ly}", float(lx))
              for lx, ly in ((1, 1), (2, 4), (4, 2), (4, 4))]
    rows = _regional_rows("Q", points, *slopes)
    assert [row.scheme for row in rows] == ["L1x1", "L2x4", "L4x2", "L4x4"]
    assert rows == numpy_regional_rows(cfg, "Q", points, SEED + 3, 300)
    for point, row in zip(points, rows):
        assert _regional_rows("Q", [point], *slopes) == [row]
        se = np.array([max_se_upper_bound(point[0].replace(angles=Angles(*t)))
                       for t in tuples])
        ee = se / total_power(point[0].Q, point[0].power)
        assert (row.se_ub, row.ee) == (float(np.mean(se)), float(np.mean(ee)))
    assert rows[1].se_ub != rows[2].se_ub


def test_pairwise_sum_is_numpys_bit_for_bit():
    # Every leaf, split and remainder length up to 1100 values, on values of
    # mixed sign and magnitude, where the order of the additions shows.
    rng = np.random.default_rng(SEED + 4)
    for n in range(1, 1101):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 13, n)
        want = float(np.add.reduce(x)).hex()
        assert regional._pairwise_sum(x.tolist()).hex() == want, n
        assert regional._pairwise_sum(array("d", x)).hex() == want, n


@pytest.mark.parametrize("seed", sorted(GOLDEN["seeds"], key=int))
def test_regional_sweeps_match_goldens(seed):
    cfg = load_config(ROOT / "configs" / "default.json")
    golden = GOLDEN["seeds"][seed]
    draws = GOLDEN["draws"]
    assert rows_to_csv(sweep_subarray_count(
        cfg, num_angle_draws=draws, seed=int(seed))) == golden["sweep-q"]
    assert rows_to_csv(sweep_ris_size(
        cfg, num_angle_draws=draws, seed=int(seed))) == golden["sweep-n"]


# Draw counts at every branch of numpy's pairwise mean (below 8, up to 128,
# above) and on both sides of its thresholds, up to many passes of the angle
# stream.
NUMPY_ORACLE_DRAWS = (1, 7, 8, 9, 127, 128, 129, 250, 1000, 8193, 20_000)
# Non-default grids per config, (l0_grid, n_grid, l0_set): out of order,
# with sides that divide some surfaces and not others.
CUSTOM_GRIDS = {"default.json": ((16, 2, 8), (4096, 4, 144), (6, 2, 3)),
                "oracle_small.json": ((4, 2), (36, 9, 16), (3, 2))}


def _numpy_oracle_cases():
    # Each (config, draw count) case takes seeds of its own, more where runs
    # are cheap: 56 seeds in all, the ends of the key range among them.
    seeds = iter([0, 1, 2 ** 63, 2 ** 64 - 1] + [
        int(s) for s in np.random.default_rng(SEED + 1).integers(
            0, 2 ** 64, size=52, dtype=np.uint64)])
    return [pytest.param(config, draws, [
        next(seeds) for _ in range(3 if draws <= 250 else 2 if draws <= 1000 else 1)],
        id=f"{config.partition('.')[0]}-{draws}")
        for config in CUSTOM_GRIDS for draws in NUMPY_ORACLE_DRAWS]


@pytest.mark.parametrize("config, draws, seeds", _numpy_oracle_cases())
def test_regional_sweeps_equal_the_numpy_oracle(config, draws, seeds):
    # The float-math sweeps against the former numpy computation: the same
    # rows, every float equal, and the same CSV bytes, at the default grids
    # (left to the library) and at other ones.
    cfg = load_config(ROOT / "configs" / config)
    l0_grid, n_grid, l0_set = CUSTOM_GRIDS[config]
    for seed in seeds:
        run = {"num_angle_draws": draws, "seed": seed}
        for got, want in [
                (sweep_subarray_count(cfg, **run),
                 numpy_sweep_subarray_count(cfg, default_l0_grid(cfg), seed, draws)),
                (sweep_subarray_count(cfg, l0_grid=l0_grid, **run),
                 numpy_sweep_subarray_count(cfg, l0_grid, seed, draws)),
                (sweep_ris_size(cfg, **run),
                 numpy_sweep_ris_size(cfg, DEFAULT_N_GRID, (2, 4), seed, draws)),
                (sweep_ris_size(cfg, n_grid=n_grid, l0_set=l0_set, **run),
                 numpy_sweep_ris_size(cfg, n_grid, l0_set, seed, draws))]:
            assert got == want
            assert rows_to_csv(got) == rows_to_csv(want)


# Seeds at both ends of the key range and random ones; word counts around
# the 4-word block, and around the pass of counter blocks.
PHILOX_SEEDS = [0, 1, 2 ** 63, 2 ** 64 - 1] + [
    int(s) for s in np.random.default_rng(SEED).integers(
        0, 2 ** 64, size=4, dtype=np.uint64)]
CHUNK_WORDS = 4 * regional._PHILOX_BLOCKS
WORD_COUNTS = [*range(1, 10), 11, 13, 4095, 4097, CHUNK_WORDS - 1, CHUNK_WORDS,
               CHUNK_WORDS + 1, 2 * CHUNK_WORDS + 3]
# Five words per tuple, and a pass holds whole tuples: the last four counts
# end one tuple short of a pass boundary, on it, and just past the first and
# the second.
TUPLE_COUNTS = [*range(1, 10), 11, 13, 999, 1001, CHUNK_WORDS // 5 - 1,
                CHUNK_WORDS // 5, CHUNK_WORDS // 5 + 1, 2 * CHUNK_WORDS // 5 + 1]
# A spacing whose pi * d rounds and whose slopes reach past pi, so that the
# order of the slope products and the reduction mod pi both show.
STREAM_CFG = reference_config(d2_over_lambda=0.87)


@pytest.mark.parametrize("seed", PHILOX_SEEDS)
def test_angle_stream_is_numpys_philox_bit_for_bit(seed):
    for count in WORD_COUNTS:
        assert (list(chain.from_iterable(regional._philox_passes(seed, count)))
                == (philox_oracle(seed).random_raw(count) >> 11).tolist()), count
    # The sweeps' slope columns against the scalar slopes of numpy's tuples,
    # at counts where the passes meet.
    for count in TUPLE_COUNTS:
        oracle = [oracle_slopes(STREAM_CFG.d2_over_lambda, *t)
                  for t in oracle_angle_tuples(seed, count).tolist()]
        assert list(map(list, _drawn_slopes(STREAM_CFG, seed, count))) == [
            [p1 for p1, _ in oracle], [p2 for _, p2 in oracle]], count


def test_angle_slopes_use_every_seed_bit():
    # Seeds at the top of the 64-bit range must neither collide nor warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [list(map(list, _drawn_slopes(STREAM_CFG, s, 4))) for s in (
            2 ** 64 - 1, 2 ** 64 - 2, 2 ** 63 + 1, 2 ** 63)]
    for i, a in enumerate(draws):
        for b in draws[i + 1:]:
            assert a != b


def test_sweep_rician_rows():
    cfg = small_config()
    rows = sweep_rician_factor(cfg, k_grid=(0.0, 5.0), samples=64, seed=11)
    assert len(rows) == 4
    assert [r.scheme for r in rows] == ["element", "element",
                                        "subarray", "subarray"]
    assert [r.var_value for r in rows] == [0.0, 5.0, 0.0, 5.0]
    for r in rows:
        assert r.var_name == "K"
        assert r.ee is None
        assert r.se_mc is not None and r.se_mc_stderr > 0
        assert r.se_ub > 0
    by_key = {(r.scheme, r.var_value): r for r in rows}
    # at K = 0 grouping costs nothing: the maximized bounds coincide
    assert (by_key[("subarray", 0.0)].se_ub
            == by_key[("element", 0.0)].se_ub)
    # with LoS present the element scheme's bound is strictly higher
    assert (by_key[("element", 5.0)].se_ub
            > by_key[("subarray", 5.0)].se_ub)


@pytest.mark.parametrize("samples", [SMALL_RUN, SMALL_RUN + 1],
                         ids=["small-run", "numpy"])
def test_sweep_rician_rows_of_one_k_share_a_draw(samples):
    # At K = 0 the law of the rate does not depend on eta, so the element
    # and subarray rows, drawn together, are equal; with LoS they differ.
    cfg = load_config(ROOT / "configs" / "oracle_small.json")
    rows = sweep_rician_factor(cfg, k_grid=(10.0, 0.0), samples=samples, seed=3)
    by_key = {(r.scheme, r.var_value): r for r in rows}
    assert by_key["element", 0.0][1:] == by_key["subarray", 0.0][1:]
    assert by_key["element", 10.0].se_mc != by_key["subarray", 10.0].se_mc


@pytest.mark.parametrize("samples", [SMALL_RUN, SMALL_RUN + 1],
                         ids=["small-run", "numpy"])
def test_sweep_rician_rows_are_the_monte_carlo_run_of_their_k(samples):
    # One draw for the whole grid, seeded by the sweep's seed: the rows of
    # each Rician factor are, bit for bit, the run of its config alone at
    # the subarray eta and the element eta of 1, whatever else the grid holds.
    cfg = load_config(ROOT / "configs" / "oracle_small.json")
    alone = {k: monte_carlo_se(cfg.replace(K1=k, K2=k), [coherence_factor(cfg), 1.0],
                               samples, 9) for k in (0.0, 10.0, math.inf)}
    for grid in ((0.0, 10.0), (10.0,), (10.0, 0.0, math.inf)):
        rows = sweep_rician_factor(cfg, k_grid=grid, samples=samples, seed=9)
        assert [(r.scheme, r.var_value) for r in rows] == [
            (scheme, k) for scheme in ("element", "subarray") for k in sorted(grid)]
        for r in rows:
            assert r[3:5] == alone[r.var_value][r.scheme == "element"], (grid, r)


def test_sweep_rician_validates_the_grid_before_any_point(monkeypatch):
    calls = []
    real = sampler._monte_carlo_se

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sampler, "_monte_carlo_se", counting)
    with pytest.raises(ConfigError, match=r"^k_grid must be finite and >= 0, or inf"):
        sweep_rician_factor(small_config(), k_grid=[1.0, float("nan")],
                            samples=64)
    assert calls == []


@pytest.mark.parametrize("entry", [True, "5", None, 1j, np.bool_(True)],
                         ids=repr)
def test_sweep_rician_rejects_a_k_that_is_not_a_real_number(monkeypatch, entry):
    ran = []
    monkeypatch.setattr(sampler, "_monte_carlo_se", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match=r"^k_grid must be finite and >= 0, or inf"):
        sweep_rician_factor(small_config(), k_grid=[1.0, entry], samples=8)
    assert ran == []


def test_sweep_rician_accepts_numpy_floats():
    plain = sweep_rician_factor(small_config(), k_grid=[0.5, 5], samples=8)
    numpy = sweep_rician_factor(small_config(), samples=8,
                                k_grid=np.array([0.5, 5.0], dtype=np.float32))
    assert rows_to_csv(numpy) == rows_to_csv(plain)


def test_default_l0_grid():
    assert default_l0_grid(reference_config()) == (1, 2, 4, 8, 16, 32)
    assert default_l0_grid(small_config(Nx=4, Ny=8)) == (1, 2, 4)


def test_sweep_subarray_count_rows():
    cfg = reference_config()
    rows = sweep_subarray_count(cfg, l0_grid=(1, 2, 4), num_angle_draws=20,
                                seed=8)
    assert len(rows) == 3
    by_q = {r.var_value: r for r in rows}
    assert set(by_q) == {1024.0, 256.0, 64.0}
    assert by_q[1024.0].scheme == "element"
    assert by_q[256.0].scheme == "subarray"
    # per-element control gives the best regional SE of the family
    assert by_q[1024.0].se_ub == max(r.se_ub for r in rows)
    for r in rows:
        assert r.se_mc is None and r.se_mc_stderr is None
        assert r.ee > 0


@pytest.mark.parametrize("l0, surface", [(3, {}), (64, {}), (4, {"Ny": 2})],
                         ids=["3", "64", "4-of-Ny"])
def test_sweep_subarray_count_rejects_a_side_that_does_not_divide(
        monkeypatch, l0, surface):
    # Named as the grid entry it is, not as the Lx of a config the user
    # never wrote, and before any point runs.
    ran = spy_points(monkeypatch)
    cfg = reference_config(Lx=1, Ly=1, **surface)
    with pytest.raises(ConfigError, match=f"^l0_grid entry {l0} does not divide "
                                          f"the {cfg.Nx}x{cfg.Ny} surface$"):
        sweep_subarray_count(cfg, l0_grid=[1, 2, l0], num_angle_draws=3)
    assert ran == []


def test_sweep_ris_size_rows():
    cfg = reference_config()
    rows = sweep_ris_size(cfg, n_grid=(4, 16), l0_set=(2, 4),
                          num_angle_draws=10, seed=5)
    keys = {(r.scheme, r.var_value) for r in rows}
    # L0 = 4 does not divide sqrt(4) = 2, so that row is skipped
    assert keys == {("element", 4.0), ("element", 16.0),
                    ("subarray_L2", 4.0), ("subarray_L2", 16.0),
                    ("subarray_L4", 16.0)}
    for r in rows:
        assert r.var_name == "N"
        assert r.ee > 0


def test_sweep_ris_size_rejects_non_square():
    with pytest.raises(ConfigError, match="^n_grid must be a perfect square, got 8$"):
        sweep_ris_size(reference_config(), n_grid=(8,), num_angle_draws=2)


@pytest.mark.parametrize("sweep, bad", [
    (sweep_ris_size, {"n_grid": [16.9]}),
    (sweep_ris_size, {"n_grid": [-4]}),
    (sweep_ris_size, {"n_grid": [True]}),
    (sweep_ris_size, {"l0_set": (2.5,)}),
    (sweep_ris_size, {"l0_set": (0,)}),
    (sweep_ris_size, {"l0_set": (1, 2)}),
    (sweep_subarray_count, {"l0_grid": [2.7]}),
    (sweep_subarray_count, {"l0_grid": [False]}),
    (sweep_subarray_count, {"num_angle_draws": 0}),
    (sweep_ris_size, {"num_angle_draws": True}),
    (sweep_subarray_count, {"seed": -1}),
    (sweep_subarray_count, {"seed": 1.5}),
    (sweep_ris_size, {"seed": 2 ** 64}),
    (sweep_ris_size, {"seed": True}),
    (sweep_rician_factor, {"seed": -1}),
    (sweep_rician_factor, {"seed": 2 ** 64}),
    (sweep_rician_factor, {"seed": 1.5}),
    (sweep_rician_factor, {"seed": True}),
    (sweep_rician_factor, {"samples": 2.5}),
    (sweep_rician_factor, {"samples": True}),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_sweep_rejects_bad_run_argument_before_any_point(monkeypatch, sweep, bad):
    # Every run argument is checked before the first point, with the
    # parameter named, instead of being truncated or failing mid-sweep.
    ran = spy_points(monkeypatch)
    (name,) = bad
    with pytest.raises(ValueError, match=f"^{name} must be {rule(name)}, got"):
        sweep(small_config(), **bad)
    assert ran == []


@pytest.mark.parametrize("sweep, bad, message", [
    (sweep_rician_factor, {"k_grid": [0, 0]}, "repeats the value 0.0"),
    (sweep_rician_factor, {"k_grid": [-0.0, 0]}, "repeats the value 0.0"),
    (sweep_subarray_count, {"l0_grid": [2, 2]}, "repeats the value 2"),
    (sweep_ris_size, {"n_grid": [16, 4, 16]}, "repeats the value 16"),
    (sweep_ris_size, {"l0_set": (2, 2)}, "repeats the value 2"),
    (sweep_rician_factor, {"k_grid": []}, "needs at least one value"),
    (sweep_subarray_count, {"l0_grid": []}, "needs at least one value"),
    (sweep_ris_size, {"n_grid": []}, "needs at least one value"),
    (sweep_ris_size, {"l0_set": ()}, "needs at least one value"),
    (sweep_rician_factor, {"k_grid": 5.0}, "must be a sequence of values, got 5.0"),
    (sweep_rician_factor, {"k_grid": "10"}, "must be a sequence of values, got '10'"),
    (sweep_subarray_count, {"l0_grid": 2}, "must be a sequence of values, got 2"),
    (sweep_subarray_count, {"l0_grid": "2"}, "must be a sequence of values, got '2'"),
    (sweep_ris_size, {"n_grid": 16}, "must be a sequence of values, got 16"),
    (sweep_ris_size, {"n_grid": "16"}, "must be a sequence of values, got '16'"),
    (sweep_ris_size, {"l0_set": 2}, "must be a sequence of values, got 2"),
    (sweep_ris_size, {"l0_set": "24"}, "must be a sequence of values, got '24'"),
    (sweep_ris_size, {"l0_set": None}, "must be a sequence of values, got None"),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_sweep_rejects_an_empty_or_repeating_grid(monkeypatch, sweep, bad,
                                                  message):
    # A repeat would write two rows with one (scheme, value) key, and an
    # empty grid a CSV of only the header. A bare number or None is not a
    # grid, and a string is not split into its characters.
    ran = spy_points(monkeypatch)
    (name,) = bad
    with pytest.raises(ConfigError, match=f"^{name} {message}$"):
        sweep(small_config(), **bad)
    assert ran == []


GOOD_RUN_ARGUMENTS = {
    monte_carlo_se: {"cfg": small_config(), "etas": [0.5],
                     "samples": 8, "seed": 0},
}


@pytest.mark.parametrize("fn, name, value", [
    (monte_carlo_se, "etas", [1.5]),
    (monte_carlo_se, "etas", [-0.1]),
    (monte_carlo_se, "etas", [math.nan]),
    (monte_carlo_se, "etas", [True]),
    (monte_carlo_se, "etas", [0.5, 1.0, 1.5]),
    (monte_carlo_se, "samples", 2.5),
    (monte_carlo_se, "samples", True),
    (monte_carlo_se, "samples", np.float64(8.0)),
    (monte_carlo_se, "seed", 1.5),
    (monte_carlo_se, "seed", True),
    (monte_carlo_se, "seed", -1),
    (monte_carlo_se, "seed", 2 ** 64),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_public_run_argument_is_checked_naming_it(fn, name, value):
    # The library entry points outside the sweeps check their run arguments
    # as the sweeps do, instead of truncating 1.5 to 1 or overflowing.
    with pytest.raises(ValueError, match=f"^{name} must be {rule(name)}, got"):
        fn(**{**GOOD_RUN_ARGUMENTS[fn], name: value})


@pytest.mark.parametrize("value", [2.5, True, 0], ids=repr)
def test_angle_draw_count_is_checked_naming_it(monkeypatch, value):
    # Both regional sweeps check their count, num_angle_draws, by its one
    # rule before they draw.
    for sweep in (sweep_subarray_count, sweep_ris_size):
        test_sweep_rejects_bad_run_argument_before_any_point(
            monkeypatch, sweep, {"num_angle_draws": value})


@pytest.mark.parametrize("etas, message", [
    (0.5, "must be a sequence of gain fractions, got 0.5"),
    (np.float64(0.5), "must be a sequence of gain fractions, got "),
    (np.array(0.5), "must be a sequence of gain fractions, got array"),
    ("0.5", "must be a sequence of gain fractions, got '0.5'"),
    (None, "must be a sequence of gain fractions, got None"),
    ([], "needs at least one value"),
], ids=repr)
def test_monte_carlo_etas_must_be_a_sequence(etas, message):
    # One eta is a one-element sequence; a bare number is refused, naming
    # etas, and is not taken as a sequence of one.
    with pytest.raises(ConfigError, match=r"^etas " + re.escape(message)):
        monte_carlo_se(small_config(), etas, 8, 0)


def test_monte_carlo_accepts_any_sequence_of_etas():
    cfg = small_config()
    runs = monte_carlo_se(cfg, [0.25, 0.75], 8, 0)
    assert len(runs) == 2
    for etas in ((0.25, 0.75), np.array([0.25, 0.75]), iter([0.25, 0.75]),
                 [np.float32(0.25), 0.75]):
        assert monte_carlo_se(cfg, etas, 8, 0) == runs


def test_sweep_accepts_numpy_integers():
    cfg = small_config()
    plain = sweep_ris_size(cfg, n_grid=(4, 16), l0_set=(2,),
                           num_angle_draws=5, seed=3)
    numpy_ints = sweep_ris_size(cfg, n_grid=np.array([4, 16]),
                                l0_set=np.array([2]),
                                num_angle_draws=np.int64(5), seed=np.uint64(3))
    assert rows_to_csv(numpy_ints) == rows_to_csv(plain)


def test_csv_format():
    cfg = small_config()
    rows = sweep_rician_factor(cfg, k_grid=(2.0,), samples=8, seed=0)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "element"
    assert first[6] == ""  # no EE in the Rician sweep
    float(first[3]), float(first[5])  # numeric fields parse


def test_csv_label_that_needs_quoting_reads_back():
    # write_csv joins fields itself; a caller's label with a delimiter, a
    # quote or a line break is quoted, and a CSV reader gets it back.
    labels = ["a,b", 'say "hi"', "two\nlines", "cr\rlf", "plain"]
    rows = [SweepResult(label, "K", 1.0, None, None, 2.5, None)
            for label in labels]
    buf = io.StringIO()
    sweeps.write_csv(rows, buf)
    assert list(csv.reader(io.StringIO(buf.getvalue(), newline=""))) == (
        [HEADER.split(",")]
        + [[label, "K", "1", "", "", "2.5", ""] for label in sorted(labels)])


def test_csv_writes_each_accepted_real_as_its_float():
    # Every real number the row check accepts is written as the float it
    # stands for: a Fraction has no "g" format of its own before Python 3.12.
    reals = [Fraction(1, 4), np.float32(0.5), np.int64(3), 16, math.inf]
    rows = [SweepResult("element", "Q", value, None, None, value, None)
            for value in reals]
    assert rows_to_csv(rows).splitlines()[1:] == [
        f"element,Q,{text},,,{text}," for text in ("0.25", "0.5", "3", "16", "inf")]


def test_csv_rows_sorted():
    cfg = reference_config()
    rows = sweep_subarray_count(cfg, l0_grid=(4, 1, 2), num_angle_draws=5,
                                seed=1)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")[1:]
    keys = [(ln.split(",")[0], float(ln.split(",")[2])) for ln in lines]
    assert keys == sorted(keys)


def test_exhaustive_search_caps():
    # The reference oracle in the tests refuses what it cannot search.
    too_many = small_config(Nx=4, Ny=4, Lx=1, Ly=1)  # Q = 16
    with pytest.raises(ValueError, match="Q"):
        exhaustive_phase_search(too_many, grid_levels=16)
    with pytest.raises(ValueError, match=f"^grid_levels must be {rule('grid_levels')}"):
        exhaustive_phase_search(small_config(), grid_levels=33)


def test_exhaustive_search_never_beats_closed_form():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        cfg = random_config(rng, max_m=4, sides=(1, 2, 3), groups=(1, 2))
        best, grid_gain = exhaustive_phase_search(cfg, grid_levels=16)
        closed = phase_certificate(cfg)[0]
        slack = grid_resolution_slack(cfg, 16)
        assert grid_gain <= closed * (1 + 1e-9) + 1e-12
        assert grid_gain >= closed - slack
        # reported gain matches the returned assignment's, from the full matrices
        assert grid_gain == pytest.approx(dense_gain(cfg, best), rel=1e-12)


def test_regional_average_uses_common_draws():
    # Same seed must give the same angle draws for every row, so a config
    # whose subarray scheme is degenerate (L0=1 grid only) reproduces the
    # element row of a larger grid exactly.
    cfg = reference_config()
    full = sweep_subarray_count(cfg, l0_grid=(1, 2), num_angle_draws=15, seed=9)
    only = sweep_subarray_count(cfg, l0_grid=(1,), num_angle_draws=15, seed=9)
    elem_full = next(r for r in full if r.scheme == "element")
    elem_only = only[0]
    assert elem_full.se_ub == elem_only.se_ub
    assert elem_full.ee == elem_only.ee
