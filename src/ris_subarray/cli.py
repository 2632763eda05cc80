"""Command-line harness: config validation, phase-design inspection, sweeps.

Every subcommand loads a JSON config (--config), applies any per-field
override flags, and exits 0 on success or nonzero with a diagnostic on
stderr. Sweeps write the fixed CSV schema to --out, or to stdout when --out
is omitted.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import replace
from functools import partial

# The numeric modules (and with them numpy) are imported by the commands
# that use them, so `validate` runs on the standard library alone.
from .config import SystemConfig, load_config, ris_power, validate_config

_OVERRIDES = ("M", "Nx", "Ny", "Lx", "Ly")
_FLOAT_OVERRIDES = ("K1", "K2", "P", "sigma_w2", "d1_over_lambda",
                    "d2_over_lambda")
_ANGLE_OVERRIDES = ("theta_d1", "theta_a1", "phi_a1", "theta_d2", "phi_d2")


def positive_int(text: str) -> int:
    # argparse quotes this function's name when int() fails.
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def _list_of(parse):
    def comma_list(text: str) -> list:
        values = [parse(t) for t in text.split(",") if t.strip()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values
    return comma_list


def rician_factor(text: str) -> float:
    value = float(text)
    if not value >= 0:      # nan too; inf is the pure line-of-sight sentinel
        raise argparse.ArgumentTypeError(f"must be >= 0 or inf, got {value}")
    return value


_size_list = _list_of(positive_int)


def _common_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, as a parent parser."""
    sub = argparse.ArgumentParser(add_help=False)
    sub.add_argument("--config", required=True, help="JSON config file")
    sub.add_argument("--seed", type=uint64, default=0,
                     help="master seed, a 64-bit unsigned integer")
    sub.add_argument("--samples", type=positive_int, default=10_000,
                     help="Monte Carlo samples per point")
    sub.add_argument("--out", default=None, help="CSV output path")
    sub.add_argument("--workers", type=positive_int, default=1,
                     help="upper bound on worker processes; a sweep starts "
                          "one per 250000 samples or angle draws in total, "
                          "and none when that gives fewer than two")
    for name in _OVERRIDES:
        sub.add_argument(f"--{name}", type=int, default=None,
                         help=f"override {name}")
    for name in _FLOAT_OVERRIDES:
        sub.add_argument(f"--{name}", type=float, default=None,
                         help=f"override {name}")
    for name in _ANGLE_OVERRIDES:
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float,
                         default=None, help=f"override angles.{name} (radians)")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-subarray",
        description="Subarray-based RIS downlink: phase design and SE/EE sweeps")
    subs = parser.add_subparsers(dest="command", required=True)
    add = partial(subs.add_parser, parents=[_common_flags()])

    add("validate", help="check a config and print its shape")
    add("eta", help="print phase slopes and coherence factor")

    sub = add("sweep-k", help="SE vs Rician factor (Monte Carlo + bound)")
    sub.add_argument("--k-grid", type=_list_of(rician_factor), default=None,
                     help="comma-separated K values")

    sub = add("sweep-q", help="regional SE/EE vs subarray count")
    sub.add_argument("--l0-grid", type=_size_list, default=None,
                     help="comma-separated subarray sides (default: all divisors)")
    sub.add_argument("--draws", type=positive_int, default=100,
                     help="random angle tuples to average over")

    sub = add("sweep-n", help="regional SE/EE vs surface size")
    sub.add_argument("--n-grid", type=_size_list, default=None,
                     help="comma-separated surface sizes (perfect squares)")
    sub.add_argument("--l0-set", type=_size_list, default=[2, 4],
                     help="subarray sides to sweep alongside the element scheme")
    sub.add_argument("--draws", type=positive_int, default=100,
                     help="random angle tuples to average over")

    sub = add("oracle", help="exhaustive phase grid search vs the closed form")
    sub.add_argument("--levels", type=positive_int, default=16,
                     help="phase grid levels per subarray")
    return parser


def _load(args) -> SystemConfig:
    """The --config file with the per-field override flags applied."""
    cfg = load_config(args.config)
    updates = {name: getattr(args, name) for name in _OVERRIDES + _FLOAT_OVERRIDES
               if getattr(args, name) is not None}
    angle_updates = {name: getattr(args, name) for name in _ANGLE_OVERRIDES
                     if getattr(args, name) is not None}
    if angle_updates:
        updates["angles"] = replace(cfg.angles, **angle_updates)
    return validate_config(replace(cfg, **updates)) if updates else cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, _load(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, cfg: SystemConfig) -> int:
    if args.command == "validate":
        print(f"M={cfg.M} surface={cfg.Nx}x{cfg.Ny} (N={cfg.N}) "
              f"subarrays={cfg.Qx}x{cfg.Qy} (Q={cfg.Q}) "
              f"subarray_size={cfg.Lx}x{cfg.Ly} (L={cfg.L})")
        print(f"K1={cfg.K1} K2={cfg.K2} P={cfg.P} sigma_w2={cfg.sigma_w2} "
              f"d1={cfg.d1_over_lambda} d2={cfg.d2_over_lambda}")
        print(f"surface_power_element={ris_power(cfg.N, cfg.power):.6g} W "
              f"surface_power_subarray={ris_power(cfg.Q, cfg.power):.6g} W")
        print("config ok")
        return 0

    if args.command == "eta":
        from .phases import coherence_factor, phase_slopes
        p1, p2 = phase_slopes(cfg)
        eta = coherence_factor(cfg)
        loss = math.inf if eta == 0.0 else -math.log2(eta) + 0.0
        print(f"p1 = {p1:.12g}")
        print(f"p2 = {p2:.12g}")
        print(f"eta = {eta:.12g}")
        print(f"-log2(eta) = {loss:.12g}")
        return 0

    if args.command.startswith("sweep-"):
        from .sweeps import (sweep_rician_factor, sweep_ris_size,
                             sweep_subarray_count, write_csv)
        run = {"seed": args.seed, "workers": args.workers}
        if args.command == "sweep-k":
            rows = sweep_rician_factor(cfg, k_grid=args.k_grid,
                                       samples=args.samples, **run)
        elif args.command == "sweep-q":
            rows = sweep_subarray_count(cfg, l0_grid=args.l0_grid,
                                        num_angle_draws=args.draws, **run)
        else:
            rows = sweep_ris_size(cfg, n_grid=args.n_grid, l0_set=args.l0_set,
                                  num_angle_draws=args.draws, **run)
        if args.out is None:
            write_csv(rows, sys.stdout)
        else:
            with open(args.out, "w", newline="") as fh:
                write_csv(rows, fh)
            print(f"wrote {len(rows)} rows to {args.out}")
        return 0

    if args.command == "oracle":
        from .phases import los_cascade_gain, optimal_phases
        from .sweeps import exhaustive_phase_search, grid_resolution_slack
        best, grid_gain = exhaustive_phase_search(cfg, grid_levels=args.levels)
        closed = los_cascade_gain(cfg, optimal_phases(cfg))
        slack = grid_resolution_slack(cfg, args.levels)
        print(f"closed_form_gain = {closed:.12g}")
        print(f"grid_search_gain = {grid_gain:.12g} ({args.levels} levels)")
        print(f"grid_resolution_slack = {slack:.12g}")
        if grid_gain > closed * (1.0 + 1e-9) + 1e-12:
            print("error: grid search beat the closed form", file=sys.stderr)
            return 2
        print("closed form is optimal on this grid")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def entry() -> None:
    # The console script is one short run: what it allocates lives until the
    # process ends, so the cyclic collector has nothing to free. Off during
    # the run, and with every object frozen before the collection at exit,
    # it no longer walks numpy's modules. main() leaves the collector alone,
    # because tests and the benchmark's traced runs call it in-process.
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
