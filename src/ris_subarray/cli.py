"""Command-line harness: config validation, phase-design inspection, sweeps.

Every subcommand loads a JSON config (--config) with any --set NAME=VALUE
overrides merged into it, and exits 0 on success or nonzero with a
diagnostic on stderr. Each takes only the flags it uses: the sweeps add
--seed, --workers and --out, and write the fixed CSV schema to --out, or
to stdout when --out is omitted.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from functools import partial

# The numeric modules (and with them numpy) are imported by the commands
# that use them, so `validate` runs on the standard library alone.
from .config import (MAX_SEED, ORACLE_MAX_LEVELS, SystemConfig, _unique_keys,
                     check_grid, check_int, check_rician, load_config, ris_power)

# Each sweep command and the library function it calls. Its flags' dests are
# that function's parameter names, and a flag left out is left out of the
# call (argparse.SUPPRESS), so every default lives in the library.
SWEEPS = {"sweep-k": "sweep_rician_factor", "sweep-q": "sweep_subarray_count",
          "sweep-n": "sweep_ris_size"}


def _parsed(parse, text: str):
    try:
        return parse(text)
    except ValueError:
        return text                 # not a number: the check rejects it


def checked(name: str, *bounds, check=check_int, parse=int):
    """An argparse type: the text parsed, then judged by the library's check
    of parameter `name`, whose message becomes the usage error."""
    def convert(text: str):
        try:
            return check(name, _parsed(parse, text), *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def grid(name: str, check=check_int, parse=int):
    """`checked` for a comma-separated grid, judged by the library's check_grid."""
    return checked(name, check, check=check_grid, parse=lambda text: [
        _parsed(parse, t) for t in text.split(",") if t.strip()])


def override(text: str) -> tuple[str, object]:
    # argparse quotes this function's name when VALUE is not JSON.
    name, eq, value = text.partition("=")
    if not eq or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, json.loads(value, object_pairs_hook=_unique_keys)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-subarray",
        description="Subarray-based RIS downlink: phase design and SE/EE sweeps")
    subs = parser.add_subparsers(dest="command", required=True)
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", required=True, help="JSON config file")
    config_flags.add_argument(
        "--set", dest="overrides", action="append", default=[], type=override,
        metavar="NAME=VALUE",
        help="set a config field, e.g. M=8 or angles.theta_d2=1.2 (repeatable)")
    run_flags = argparse.ArgumentParser(add_help=False,
                                        argument_default=argparse.SUPPRESS)
    run_flags.add_argument("--seed", type=checked("seed", 0, MAX_SEED),
                           help="master seed, a 64-bit unsigned integer")
    run_flags.add_argument("--out", default=None, help="CSV output path")
    run_flags.add_argument("--workers", type=checked("workers"),
                           help="upper bound on worker processes; a sweep starts "
                                "one per 250000 samples or angle draws in total, "
                                "and none when that gives fewer than two")
    add = partial(subs.add_parser, parents=[config_flags])
    add_sweep = partial(subs.add_parser, parents=[config_flags, run_flags],
                        argument_default=argparse.SUPPRESS)

    add("validate", help="check a config and print its shape")
    add("eta", help="print phase slopes and coherence factor")

    sub = add_sweep("sweep-k", help="SE vs Rician factor (Monte Carlo + bound)")
    sub.add_argument("--samples", type=checked("samples"),
                     help="Monte Carlo samples per point")
    sub.add_argument("--k-grid", help="comma-separated K values", type=grid(
        "k_grid", check_rician, parse=float))

    sub = add_sweep("sweep-q", help="regional SE/EE vs subarray count")
    sub.add_argument("--l0-grid", type=grid("l0_grid"),
                     help="comma-separated subarray sides (default: all divisors)")
    sub.add_argument("--draws", dest="num_angle_draws", type=checked("num_angle_draws"),
                     help="random angle tuples to average over")

    sub = add_sweep("sweep-n", help="regional SE/EE vs surface size")
    sub.add_argument("--n-grid", type=grid("n_grid"),
                     help="comma-separated surface sizes (perfect squares)")
    sub.add_argument("--l0-set", type=grid("l0_set"),
                     help="subarray sides to sweep alongside the element scheme")
    sub.add_argument("--draws", dest="num_angle_draws", type=checked("num_angle_draws"),
                     help="random angle tuples to average over")

    sub = add("oracle", help="exhaustive phase grid search vs the closed form")
    sub.add_argument("--levels", type=checked("grid_levels", 1, ORACLE_MAX_LEVELS),
                     default=16, help="phase grid levels per subarray")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, load_config(args.config, args.overrides))
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
        print("inert: d1_over_lambda and angles.theta_d1 change no output")
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

    if args.command in SWEEPS:
        from . import sweeps
        run = {key: value for key, value in vars(args).items()
               if key not in ("command", "config", "overrides", "out")}
        rows = getattr(sweeps, SWEEPS[args.command])(cfg, **run)
        if args.out is None:
            sweeps.write_csv(rows, sys.stdout)
        else:
            with open(args.out, "w", newline="") as fh:
                sweeps.write_csv(rows, fh)
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
