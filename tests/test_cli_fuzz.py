"""A fuzz of cli.main: every command, with up to four --set overrides of any
config field, on the small committed config.

No run may end in a traceback, and no number a run prints may be non-finite
unless the config asks for it: bad input is an error line (exit 1) or a
usage error (exit 2), and good input gives finite results. The examples are
derandomized, with no example database and a fixed budget, so every run
tries the same ones and a failure is a defect of the code.
"""

import contextlib
import io
import json
import re
import signal
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ris_subarray import Angles, PowerConstants, SystemConfig
from ris_subarray.cli import main
from ris_subarray.sampler import SMALL_RUN

ORACLE_SMALL = str(Path(__file__).resolve().parents[1] / "configs" / "oracle_small.json")
# Each command with run flags small enough for hundreds of runs; sweep-k on
# both samplers. The grids are the library's defaults.
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
NONFINITE = re.compile(r"(?i)\b(?:nan|inf|infinity)\b")


class TooSlow(Exception):
    """Raised by the timer: neither OSError nor ValueError, so main passes it on."""


def _too_slow(signum, frame):
    raise TooSlow("a fuzzed run took more than 10 s")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(run=st.sampled_from(RUNS),
       sets=st.lists(st.tuples(st.sampled_from(FIELDS), VALUES), max_size=4))
def test_fuzzed_overrides_give_an_error_or_finite_results(run, sets):
    argv = [*run, "--config", ORACLE_SMALL]
    for name, value in sets:
        argv += ["--set", f"{name}={json.dumps(value)}"]
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
    # The non-finite numbers a config asks for: a pure-LoS Rician factor,
    # and -log2(eta) at a grating null, where eta is 0.
    shown = re.sub(r"\bK[12]=inf\b", "", out.getvalue())
    if "\neta = 0\n" in shown:
        shown = shown.replace("\n-log2(eta) = inf\n", "\n")
    assert not NONFINITE.search(shown), (argv, out.getvalue())
