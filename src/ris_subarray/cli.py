"""Command-line harness: config validation, phase-design certificate, sweeps.

Every command loads a JSON config (--config) with any --set NAME=VALUE
overrides merged in. COMMANDS holds each command's flags and help text:
argparse took longer to import and set up than a regional sweep's arithmetic.
"""

import gc
import json
import os
import sys
from types import SimpleNamespace

# Each command imports only the modules on its own path, and only a sweep-k
# of more than sampler.SMALL_RUN samples per point loads numpy.
from .config import (RUN_ARGUMENTS, SystemConfig, _unique_keys, check_int,
                     check_run, load_config, ris_power)


def _parsed(parse, text: str):
    try:
        return parse(text)
    except ValueError:
        return text                 # not a number: the check rejects it


def checked(name: str, parse=int):
    """A run flag's converter: the text parsed, then judged by the one rule of
    run argument name, config.RUN_ARGUMENTS[name], as the library judges it."""
    return lambda text: check_run(name, _parsed(parse, text))


def grid(name: str, parse=int):
    """`checked` for a comma-separated grid."""
    return checked(name, parse=lambda text: [_parsed(parse, t) for t in text.split(",")])


def override(text: str) -> tuple[str, object]:
    name, eq, value = text.partition("=")
    try:
        if eq and name:
            return name, json.loads(value, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"VALUE of {text!r} is not JSON: {exc}") from None
    raise ValueError(f"expected NAME=VALUE, got {text!r}")


CONFIG_FLAGS = {"--config": ("config", str, "JSON config file (required)"),
                "--set": ("overrides", override, "NAME=VALUE: set a config field")}
RUN_FLAGS = {**CONFIG_FLAGS,
             "--seed": ("seed", checked("seed"), "master seed < 2**64"),
             "--out": ("out", str, "CSV output path (default: standard output)"),
             "--workers": ("workers", lambda text: check_int("workers", _parsed(int, text)),
                           "ignored: runs in-process")}
DRAWS = ("num_angle_draws", checked("num_angle_draws"), "angle tuples to average")
# command -> (help, {flag: (dest, converter, help)}). A run flag's dest is a
# key of config.RUN_ARGUMENTS and a parameter of its library function; left
# out, the library's default holds.
COMMANDS = {
    "validate": ("check a config and print its shape", CONFIG_FLAGS),
    "eta": ("print phase slopes, coherence factor and the phase certificate",
            CONFIG_FLAGS),
    "sweep-k": ("SE vs Rician factor (Monte Carlo + bound)", {**RUN_FLAGS,
        "--samples": ("samples", checked("samples"), "Monte Carlo samples per point"),
        "--k-grid": ("k_grid", grid("k_grid", parse=float), "Rician factors K")}),
    "sweep-q": ("regional SE/EE vs subarray count", {**RUN_FLAGS, "--draws": DRAWS,
        "--l0-grid": ("l0_grid", grid("l0_grid"), "subarray sides (all divisors)")}),
    "sweep-n": ("regional SE/EE vs surface size", {**RUN_FLAGS, "--draws": DRAWS,
        "--n-grid": ("n_grid", grid("n_grid"), "surface sizes, perfect squares"),
        "--l0-set": ("l0_set", grid("l0_set"), "subarray sides >= 2 beside elements")}),
}
SWEEPS = {"sweep-k": ("sweeps", "sweep_rician_factor"),  # module, function
          "sweep-q": ("regional", "sweep_subarray_count"),
          "sweep-n": ("regional", "sweep_ris_size")}


def _stop(error: str = ""):
    """Exit 2 after a usage error as argparse reported one, or 0 after the help."""
    usage = "usage: ris-subarray COMMAND --config CONFIG [flags]"
    if error:
        print(f"{usage}\nris-subarray: error: {error}", file=sys.stderr)
        raise SystemExit(2)
    print(usage, __doc__.partition("\n")[0], sep="\n\n")
    for command, (about, flags) in COMMANDS.items():
        print(f"\n{command}: {about}")
        for flag, (_, _, text) in flags.items():
            print(f"  {flag:<11}{text}")
    raise SystemExit(0)


def parse_args(argv) -> SimpleNamespace:
    """argv read against COMMANDS. A flag is spelled in full and given once
    (--set repeats), and its value, the text after `=` or else the next
    token, is converted as it is read: `--seed -1` reaches the seed check."""
    command, *rest = argv or [""]
    if command in ("-h", "--help"):
        _stop()
    if command not in COMMANDS:
        _stop(f"argument COMMAND: invalid choice: {command!r}" if command
              else "the following arguments are required: COMMAND")
    flags, values, unknown = COMMANDS[command][1], {"overrides": []}, []
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            _stop()
        if flag not in flags:
            unknown.append(token)
            continue
        if not eq and (value := next(tokens, None)) is None:
            _stop(f"argument {flag}: expected one argument")
        dest, convert, _ = flags[flag]
        try:
            value = convert(value)
        except ValueError as exc:
            _stop(f"argument {flag}: {exc}")
        if dest in values and dest != "overrides":
            _stop(f"argument {flag}: given twice; it takes one value")
        values[dest] = values[dest] + [value] if dest == "overrides" else value
    if "config" not in values:
        _stop("the following arguments are required: --config")
    if unknown:
        _stop(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    try:
        if sys.stdout is None:      # closed at start (`>&-`)
            raise OSError("standard output is closed")
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return _dispatch(args, load_config(args.config, args.overrides))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, cfg: SystemConfig) -> int:
    if args.command == "validate":
        print(f"M={cfg.M} surface={cfg.Nx}x{cfg.Ny} (N={cfg.N}) "
              f"subarrays={cfg.Qx}x{cfg.Qy} (Q={cfg.Q}) "
              f"subarray_size={cfg.Lx}x{cfg.Ly} (L={cfg.L})\n"
              f"K1={cfg.K1} K2={cfg.K2} P={cfg.P} sigma_w2={cfg.sigma_w2} "
              f"d2={cfg.d2_over_lambda}\n"
              f"surface_power_element={ris_power(cfg.N, cfg.power):.6g} W "
              f"surface_power_subarray={ris_power(cfg.Q, cfg.power):.6g} W\nconfig ok")
        return 0
    if args.command == "eta":
        from .design import eta_record
        record = eta_record(cfg)
        print("\n".join(f"{name} = {value:.12g}" for name, value in record.items()))
        # The closed form must reach the coherent bound to rounding.
        if not record["shortfall"] <= 1e-12:
            print("error: the closed-form phases fall short of the coherent bound",
                  file=sys.stderr)
            return 2
        return 0
    # a sweep, the rest of COMMANDS, run from the module that holds it
    from . import sweeps
    module, name = SWEEPS[args.command]
    run = {key: value for key, value in vars(args).items() if key in RUN_ARGUMENTS}
    # __import__ is timed by -X importtime, where importlib.import_module is not
    rows = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(cfg, **run)
    out = getattr(args, "out", None)
    if out is None:
        sweeps.write_csv(rows, sys.stdout)
    else:
        with open(out, "w", newline="") as fh:
            sweeps.write_csv(rows, fh)
        print(f"wrote {len(rows)} rows to {out}")
    return 0


def entry() -> None:
    """The console script: main() with the cyclic collector off, its output
    flushed, then os._exit, with no teardown and no atexit handlers. A failed
    flush is one error line and exit 1. main() leaves the collector and the
    exit alone: tests and the benchmark's traced runs call it in-process."""
    gc.disable()
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):   # None: closed
            stream.flush()
    except OSError as exc:
        code = 1
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass                        # stderr is gone too: the code tells
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
