"""A fuzz of cli.main: every command, with up to four --set overrides of any
config field, on the small committed config; each sweep also draws its
--seed and grid flags. And a fuzz of every public name of the package, each
called with drawn arguments.

No run may end in a traceback, and no number a run prints may be non-finite
unless the run asks for it: bad input is an error line (exit 1) or a
usage error (exit 2), and good input gives finite results. Likewise a
public name raises a ConfigError that names a parameter, or returns finite
results. The examples are
derandomized, with no example database and a fixed budget, so every run
tries the same ones and a failure is a defect of the code.
"""

import contextlib
import inspect
import io
import json
import math
import re
import signal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ris_subarray
from ris_subarray import (Angles, ConfigError, PowerConstants, SweepResult,
                          SystemConfig, load_config)
from ris_subarray.cli import main
from ris_subarray.sampler import SMALL_RUN

ORACLE_SMALL = str(Path(__file__).resolve().parents[1] / "configs" / "oracle_small.json")
# Each command with run flags small enough for hundreds of runs; sweep-k on
# both samplers. The sample and draw counts stay fixed.
RUNS = [["validate"], ["eta"], ["sweep-q", "--draws", "3"], ["sweep-n", "--draws", "3"],
        ["sweep-k", "--samples", "16"], ["sweep-k", "--samples", str(SMALL_RUN + 1)]]
FIELDS = [*SystemConfig.__annotations__,
          *(f"angles.{name}" for name in Angles.__annotations__),
          *(f"power.{name}" for name in PowerConstants.__annotations__)]
VALUES = st.one_of(
    st.integers(-2, 70),
    st.integers(2 ** 53, 10 ** 400),        # huge, up to past a float's range
    st.floats(),                            # nan, inf and subnormals among them
    st.sampled_from([5e-324, 1e-320, 2.2e-308, 1e308]),
    st.booleans(), st.none(), st.text(max_size=4))
# The run flags drawn, each kept only on the commands that take it.
FLAGS_OF = {"sweep-k": {"--seed", "--k-grid"}, "sweep-q": {"--seed", "--l0-grid"},
            "sweep-n": {"--seed", "--n-grid", "--l0-set"}}
NUMBER_TEXTS = st.one_of(
    st.integers(-2, 70).map(str),
    st.integers(-10 ** 400, 10 ** 400).map(str),    # huge and signed
    st.sampled_from(["inf", "-inf", "nan", "1e308", "5e-324", "-0", "2.5", "1e3",
                     str(2 ** 64 - 1), str(2 ** 64)]),
    st.text(max_size=4))                            # malformed
FLAG_TEXTS = st.one_of(
    NUMBER_TEXTS,
    # comma-joined grids, empty entries among them
    st.lists(st.one_of(NUMBER_TEXTS, st.just("")), min_size=2, max_size=4).map(",".join))
NONFINITE = re.compile(r"(?i)\b(?:nan|inf|infinity)\b")


class TooSlow(Exception):
    """Raised by the timer: neither OSError nor ValueError, so main passes it on."""


def _too_slow(signum, frame):
    raise TooSlow("a fuzzed run took more than 10 s")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(run=st.sampled_from(RUNS),
       sets=st.lists(st.tuples(st.sampled_from(FIELDS), VALUES), max_size=4),
       flags=st.dictionaries(st.sampled_from(sorted(set().union(*FLAGS_OF.values()))),
                             FLAG_TEXTS, max_size=3))
# the one non-finite value a sweep row may show, which the drawn examples miss
@example(run=["sweep-k", "--samples", "16"], sets=[], flags={"--k-grid": "1,inf"})
def test_fuzzed_overrides_give_an_error_or_finite_results(run, sets, flags):
    argv = [*run, "--config", ORACLE_SMALL]
    for name, value in sets:
        argv += ["--set", f"{name}={json.dumps(value)}"]
    for flag, text in flags.items():
        if flag in FLAGS_OF.get(run[0], ()):
            argv += [flag, text]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:       # a usage error, as argparse exits
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, code)
    assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())
    # The non-finite numbers a run asks for: a pure-LoS Rician factor, in
    # the config or on a sweep-k row, and -log2(eta) at a grating null,
    # where eta is 0.
    shown = re.sub(r"\bK[12]=inf\b|^(?:element|subarray),K,inf,", "",
                   out.getvalue(), flags=re.MULTILINE)
    if "\neta = 0\n" in shown:
        shown = shown.replace("\n-log2(eta) = inf\n", "\n")
    assert not NONFINITE.search(shown), (argv, out.getvalue())


# The public names, each with (valid values, bad values) per positional
# argument; an example draws at most one of its arguments bad. A count
# (samples, draws) never draws a huge value, since it sizes the run.
# load_config's path is fixed, as a drawn string would name a missing file
# (an OSError), and so is write_csv's stream, which the library does not
# check. ConfigError is the error itself, and SweepResult a plain row that
# write_csv checks.
UNCHECKED = {"ConfigError", "SweepResult"}
BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 2.5]),
    st.sampled_from([2 ** 64, 10 ** 400]), st.booleans(), st.none(), st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
BAD_COUNT = BAD.filter(lambda v: not (isinstance(v, int) and v > 64))
RAW = json.loads(Path(ORACLE_SMALL).read_text())
SMALL = load_config(ORACLE_SMALL)
ROW = SweepResult("element", "Q", 16.0, None, None, 1.0, 0.1)
# A row with one field drawn bad, which write_csv must name.
BAD_ROW = st.builds(lambda field, value: ROW._replace(**{field: value}),
                    st.sampled_from(ROW._fields), BAD)


def arg(valid, bad=BAD):
    """(valid values, bad values) of one argument: a value or a strategy."""
    return valid if isinstance(valid, st.SearchStrategy) else st.just(valid), bad


def fixed(valid):
    """An argument that is valid even when it is the one drawn bad."""
    return arg(valid, arg(valid)[0])


def grid(entries, bad_entries=BAD):
    """(valid grids, grids with a bad entry or bad values) of a grid."""
    return arg(st.lists(entries, min_size=1, max_size=2), st.one_of(
        st.lists(st.one_of(entries, bad_entries), min_size=1, max_size=2), BAD))


SEED = arg(st.integers(0, 2 ** 64 - 1))
PUBLIC_ARGS = {
    "Angles": [arg(st.floats(-7.0, 7.0)) for _ in Angles.__annotations__],
    "PowerConstants": [arg(st.floats(0.0, 50.0)) for _ in PowerConstants.__annotations__],
    "SystemConfig": [arg(value) for value in SMALL],
    "coherence_factor": [arg(SMALL)],
    "config_from_dict": [arg(RAW, st.one_of(BAD, st.builds(
        lambda field, value: {**RAW, field: value}, st.sampled_from(FIELDS), BAD)))],
    "load_config": [fixed(ORACLE_SMALL),
                    arg(st.lists(st.tuples(st.sampled_from(FIELDS), VALUES), max_size=2))],
    "max_se_upper_bound": [arg(SMALL)],
    "monte_carlo_se": [arg(SMALL), grid(st.floats(0.0, 1.0)),
                       arg(st.integers(1, 8), BAD_COUNT), SEED],
    "optimal_phases": [arg(SMALL)],
    "ris_power": [arg(st.integers(0, 2 ** 20)), arg(PowerConstants())],
    "sweep_rician_factor": [arg(SMALL), grid(st.floats(0.0, 100.0)),
                            arg(st.integers(1, 8), BAD_COUNT), SEED],
    "sweep_ris_size": [arg(SMALL), grid(st.sampled_from([1, 4, 16, 64])),
                       grid(st.integers(2, 4)), arg(st.integers(1, 3), BAD_COUNT), SEED],
    "sweep_subarray_count": [arg(SMALL), grid(st.sampled_from([1, 2, 4])),
                             arg(st.integers(1, 3), BAD_COUNT), SEED],
    "write_csv": [grid(st.just(ROW), st.one_of(BAD, BAD_ROW)),
                  fixed(st.builds(io.StringIO))],
}
# Beside its own parameters, what a config builder's error may name: a
# field, a section or the config.
CONFIG_NAMES = [*FIELDS, "config"]


def finite(value) -> bool:
    """Every number in value is finite but a Rician factor, which a caller
    may set to inf for pure LoS."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, SystemConfig):
        value = [v for k, v in vars(value).items() if k not in ("K1", "K2")]
    if isinstance(value, SweepResult) and value.var_name == "K":
        value = value._replace(var_value=0.0)
    if isinstance(value, (tuple, list, Angles, PowerConstants)):
        return all(map(finite, value))
    return True                     # an int, a label or None


def test_every_public_name_is_fuzzed():
    assert set(PUBLIC_ARGS) == set(ris_subarray.__all__) - UNCHECKED


@pytest.mark.parametrize("name", sorted(PUBLIC_ARGS))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_public_name_gives_a_named_error_or_finite_results(name, data):
    # A function's error starts with one of its parameters' names. A record
    # or a config reader names a field, a section or the config somewhere:
    # a rule across fields, such as the SNR cap, names them within.
    fn, slots = getattr(ris_subarray, name), PUBLIC_ARGS[name]
    bad = data.draw(st.sampled_from([None, *range(len(slots))]))
    args = data.draw(st.tuples(*[slot[i == bad] for i, slot in enumerate(slots)]))
    try:
        result = fn(*args)
    except ConfigError as exc:
        params = [] if isinstance(fn, type) else list(inspect.signature(fn).parameters)
        if isinstance(fn, type) or name in ("config_from_dict", "load_config"):
            names = "|".join(map(re.escape, CONFIG_NAMES + params))
            named = re.search(rf"(?<![\w.])({names})(?!\w)", str(exc))
        else:
            named = re.match(rf"({'|'.join(params)})\b", str(exc))
        assert named, (args, str(exc))
    else:
        assert finite(result), (args, result)
