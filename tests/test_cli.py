import gc
import importlib
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from functools import partial
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

import ris_subarray
from ris_subarray import (ConfigError, cli, coherence_factor, config, design,
                          load_config, monte_carlo_se, optimal_phases, regional,
                          sweep_rician_factor, sweep_ris_size, sweep_subarray_count,
                          sweeps)
from ris_subarray.cli import main
from ris_subarray.config import MAX_N, MAX_SEED, SHOWN_MAX, PowerConstants, check_int
from ris_subarray.numpy_sampler import MC_CHUNK
from ris_subarray.regional import DEFAULT_N_GRID
from ris_subarray.sampler import SMALL_RUN
from ris_subarray.sweeps import SweepResult, write_csv

from helpers import (NULL_ANGLES, oracle_gain, random_config, reference_config,
                     scalar_slopes, small_config, small_raw, steering_couplings)

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
DEFAULT = str(CONFIG_DIR / "default.json")
ORACLE_SMALL = str(CONFIG_DIR / "oracle_small.json")
HEADER = "scheme,var_name,var_value,se_mc,se_mc_stderr,se_ub,ee"


def write_small(tmp_path, **extra) -> str:
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small_raw(**extra)))
    return str(path)


def test_validate_ok(capsys):
    assert main(["validate", "--config", DEFAULT]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "M=64" in out and "N=1024" in out and "Q=256" in out


def test_validate_override_reflected(capsys):
    assert main(["validate", "--config", DEFAULT, "--set", "M=8"]) == 0
    assert "M=8" in capsys.readouterr().out


def test_validate_bad_override(capsys):
    assert main(["validate", "--config", DEFAULT, "--set", "Lx=3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "divide" in err


# (NAME, VALUE as typed, the value a JSON edit writes): every field of the
# config, the power section included, which small_raw() leaves out.
SET_CASES = [
    ("M", "8", 8), ("Nx", "8", 8), ("Ny", "8", 8), ("Lx", "1", 1),
    ("Ly", "4", 4), ("K1", "3.5", 3.5), ("K2", "Infinity", math.inf),
    ("P", "2.5", 2.5), ("sigma_w2", "0.5", 0.5),
    ("d2_over_lambda", "0.25", 0.25), ("angles.theta_a1", "0.2", 0.2), ("angles.phi_a1", "0.3", 0.3),
    ("angles.theta_d2", "1.2", 1.2), ("angles.phi_d2", "-0.5", -0.5),
    ("power.p_driver", "0.5", 0.5),
]


@pytest.mark.parametrize("name, text, value", SET_CASES,
                         ids=[case[0] for case in SET_CASES])
def test_set_is_an_edit_of_the_file(tmp_path, monkeypatch, name, text, value):
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args, cfg: seen.append(cfg) or 0)
    assert main(["validate", "--config", write_small(tmp_path),
                 "--set", f"{name}={text}"]) == 0
    raw = small_raw()
    parent, _, key = name.rpartition(".")
    (raw.setdefault(parent, {}) if parent else raw)[key] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(raw))
    assert seen == [load_config(edited)]
    assert seen[0] != small_config()


@pytest.mark.parametrize("text", ["M", "=8", "P=pi", "M=8,", "K1=nan",
                                  # a section's keys are field names
                                  'angles={"phi_d2": 1, "phi_d2": 2}'])
def test_malformed_set_is_a_usage_error(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", DEFAULT, "--set", text])
    assert exc.value.code == 2
    assert "argument --set:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["[" * 100_000, '{"a": ' * 100_000],
                         ids=["array", "object"])
def test_set_nested_past_the_recursion_limit_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", DEFAULT, "--set", f"M={value}"])
    assert exc.value.code == 2
    _, error = capsys.readouterr().err.splitlines()   # the usage line, then this
    assert error.startswith(f"ris-subarray: error: argument --set: VALUE of 'M={value[:9]}")
    assert "is not JSON: maximum recursion depth exceeded" in error


@pytest.mark.parametrize("value, line", [
    ("[" * 900 + "]" * 900, "error: M must be a positive integer, got "
     + "[" * 100 + "... (1800 characters)"),
    ("[" * 900, "ris-subarray: error: argument --set: VALUE of 'M="
     + "[" * 97 + "... (904 characters) is not JSON: Expecting value: line 1 "
     "column 901 (char 900)"),
], ids=["config error", "usage error"])
def test_an_error_line_shows_at_most_100_characters_of_the_input(capsys, value, line):
    try:
        main(["validate", "--config", DEFAULT, "--set", f"M={value}"])
    except SystemExit:
        pass
    assert capsys.readouterr().err.splitlines()[-1] == line


@pytest.mark.parametrize("sets, field", [
    (["Q=4"], "unknown config field 'Q'"),
    (["angles.theta_d3=0"], "unknown config field 'angles.theta_d3'"),
    # the transmit array's spacing and angle change no output: not fields
    (["d1_over_lambda=0.5"], "unknown config field 'd1_over_lambda'"),
    (["angles.theta_d1=0"], "unknown config field 'angles.theta_d1'"),
    (["M.x=1"], "config field 'M' is not a section"),
    (["P.x=1"], "config field 'P' is not a section"),
    (["M=8", "M=16"], "duplicate config field 'M'"),
    (["angles.phi_d2=1", "angles.phi_d2=2"],
     "duplicate config field 'angles.phi_d2'"),
    (['power={"p_rest": 1}', "power.p_driver=1"], "duplicate config field 'power'"),
    (["M=8.0"], "M must be a positive integer"),
    (["M=true"], "M must be a positive integer"),
    (['M="8"'], "M must be a positive integer"),
    (["K1=NaN"], "K1 must be"),
    (["K2=-1"], "K2 must be"),
    (["angles.theta_d2=Infinity"], "angles.theta_d2 must be finite"),
    (["power.p_rest=-1"], "power.p_rest must be"),
    # integers too large for a float are not finite, not a traceback
    pytest.param(["P=1" + "0" * 400], "P must be finite", id="P=10**400"),
    pytest.param(["K1=1" + "0" * 400], "K1 must be finite", id="K1=10**400"),
    # values whose rates or phases would overflow a float, once an
    # OverflowError traceback (M) or inf and nan rows written as results
    pytest.param(["M=1" + "0" * 400], "the largest SNR", id="M=10**400"),
    # once a run that never ended, in eta's certificate
    (["Nx=9007199254740992"], "the surface size, Nx * Ny, must be at most 2**20"),
    (["P=1e308"], "the largest SNR"),
    (["sigma_w2=1e-310"], "the largest SNR"),
    (["d2_over_lambda=1e308"], "d2_over_lambda=1e+308 overflows the phase slopes: "
     "2*pi*d2_over_lambda must be finite"),
    # finite power terms whose total is not, once a config ok (and inf
    # surface power) from validate and ee = 0 rows from the sweeps
    (["power.p_rest=1e308", "power.p_control=1e308"], "the largest total power"),
    (["power.p_dynamic=1e308", "power.p_control=1e308"], "the largest total power"),
    # a repeated key inside a field's value is left to the field's check
    (['M={"x": 1, "x": 2}'], "M must be a positive integer, got {'x': 2}\n"),
    (['angles.phi_d2={"x": 1, "x": 2}'], "angles.phi_d2 must be finite"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_set_field_is_rejected_naming_it(capsys, sets, field):
    argv = ["validate", "--config", DEFAULT]
    for text in sets:
        argv += ["--set", text]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}")


@pytest.mark.parametrize("p_rest", [1e-320, 6e-306])
def test_tiny_total_power_is_an_error_not_an_inf_row(tmp_path, capsys, p_rest):
    # Once exit 0 and ee = inf: on every row at 1e-320 W, and at 6e-306 W,
    # where each draw's efficiency is finite, on the element row's mean.
    power = json.dumps(dict(p_rest=p_rest, p_dynamic=0, p_control=0, p_driver=0))
    out = tmp_path / "q.csv"
    assert main(["sweep-q", "--config", ORACLE_SMALL, "--set", f"power={power}",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: the largest energy efficiency, 1001 / (power.p_rest + "
        "power.p_dynamic + power.p_control + 1 * power.p_driver), must be below "
        "2**1000, got ")
    assert not out.exists()


def test_set_infinite_rician_factor_is_pure_los(capsys):
    assert main(["validate", "--config", DEFAULT, "--set", "K1=Infinity"]) == 0
    assert "K1=inf" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["validate", "--samples", "5"],
    ["validate", "--seed", "3"],
    ["eta", "--samples", "5"],
    ["eta", "--out", "f.csv"],
    ["eta", "--workers", "2"],
    ["sweep-q", "--samples", "5"],
    ["sweep-n", "--samples", "5"],
], ids=" ".join)
def test_flag_a_command_does_not_use_is_rejected(capsys, argv):
    command, *flag = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", ORACLE_SMALL, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate"], ["eta"], ["sweep-q", "--draws", "2"],
    ["sweep-q", "--draws", "2", "--out"], ["sweep-n", "--draws", "2", "--out"],
    ["sweep-k", "--samples", "8", "--out"], ["--help"], ["eta", "-h"],
], ids=" ".join)
def test_closed_stdout_is_an_error(tmp_path, monkeypatch, capsys, argv):
    # `ris-subarray eta --config ... >&-` starts with sys.stdout None. Every
    # command reports there, a sweep with --out its `wrote N rows` line, and
    # so does the help, so each stops before the command line is parsed: no
    # config is read and no CSV is written.
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(cli, "load_config", lambda *args: pytest.fail("loaded"))
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "out.csv")]
    assert main([*argv, "--config", ORACLE_SMALL]) == 1
    assert capsys.readouterr().err == "error: standard output is closed\n"
    assert not (tmp_path / "out.csv").exists()


# A valid value of every flag in cli.COMMANDS.
FLAG_VALUES = {"--config": ORACLE_SMALL, "--set": "M=8", "--seed": "5",
               "--out": "out.csv", "--workers": "2", "--k-grid": "0,10",
               "--samples": "8", "--draws": "3", "--l0-grid": "1,2",
               "--n-grid": "16,64", "--l0-set": "2"}
FLAGS = [(command, flag) for command, (_, flags) in cli.COMMANDS.items()
         for flag in flags]


@pytest.mark.parametrize("command, flag", FLAGS, ids=" ".join)
def test_flag_equals_value_is_flag_then_value(monkeypatch, command, flag):
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args, cfg: seen.append(
        (vars(args), cfg)) or 0)
    value = FLAG_VALUES[flag]
    rest = [] if flag == "--config" else ["--config", DEFAULT]
    assert main([command, *rest, f"{flag}={value}"]) == 0
    assert main([command, *rest, flag, value]) == 0
    assert seen[0] == seen[1]
    assert cli.COMMANDS[command][1][flag][0] in seen[0][0]    # the flag's dest


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], *([command, "-h"] for command in cli.COMMANDS),
    ["sweep-k", "--config", "CFG", "--samples", "8", "--help"],
], ids=" ".join)
def test_help_lists_every_command_and_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([DEFAULT if arg == "CFG" else arg for arg in argv])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    sections = {section.split("\n")[0]: section.split("\n")[1:]
                for section in out.rstrip("\n").split("\n\n")}
    for command, (about, flags) in cli.COMMANDS.items():
        lines = sections[f"{command}: {about}"]
        assert len(lines) == len(flags)
        for line, (flag, (_, _, text)) in zip(lines, flags.items()):
            assert line.split(None, 1) == [flag, text]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: COMMAND"),
    (["sweep-z", "--config", "CFG"], "argument COMMAND: invalid choice: 'sweep-z'"),
    (["validate"], "the following arguments are required: --config"),
    (["validate", "--set", "M=8"], "the following arguments are required: --config"),
    (["sweep-q", "--config", "CFG", "--draws"],
     "argument --draws: expected one argument"),
    (["validate", "--config"], "argument --config: expected one argument"),
    # a flag is spelled in full: no prefix of it is accepted
    (["sweep-k", "--config", "CFG", "--samp", "5"], "unrecognized arguments: --samp 5"),
    (["sweep-k", "--config", "CFG", "--samp=5"], "unrecognized arguments: --samp=5"),
    # a flag given twice is never the last one wins; only --set repeats
    (["sweep-k", "--config", "CFG", "--samples", "5", "--samples", "6"],
     "argument --samples: given twice"),
    (["sweep-q", "--config", "CFG", "--seed=1", "--seed", "1"],
     "argument --seed: given twice"),
    (["validate", "--config", "CFG", "--config", "CFG"],
     "argument --config: given twice"),
    (["validate", "--config", "CFG", "--set=P=pi"],
     "argument --set: VALUE of 'P=pi' is not JSON"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_usage_error_exits_2(capsys, argv, message):
    # CFG is a config file that exists
    with pytest.raises(SystemExit) as exc:
        main([DEFAULT if arg == "CFG" else arg for arg in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {message}" in err


def test_missing_config_file(capsys):
    assert main(["validate", "--config", "/nonexistent/cfg.json"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("data, fault", [
    (b"", "not JSON: Expecting value"), (b"\xff{}", "not UTF-8: 'utf-8' codec"),
    (b"[" * 100_000, "not JSON: maximum recursion depth exceeded")],
    ids=["not-json", "not-utf8", "too-deep"])
def test_a_config_that_does_not_decode_exits_1_naming_the_file(tmp_path, capsys,
                                                               data, fault):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    assert main(["validate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: config file {str(path)!r} is {fault}")
    assert err.count("\n") == 1


def test_eta_matches_library(capsys):
    assert main(["eta", "--config", DEFAULT]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    values = {}
    for line in lines:
        key, _, text = line.partition(" = ")
        values[key.strip()] = float(text)
    cfg = small_config(M=64, Nx=32, Ny=32)
    p1, p2 = scalar_slopes(cfg)
    eta = coherence_factor(cfg)
    assert values["p1"] == float(f"{p1:.12g}")
    assert values["p2"] == float(f"{p2:.12g}")
    assert math.isclose(values["eta"], eta, rel_tol=1e-10)
    assert math.isclose(values["-log2(eta)"], -math.log2(eta), rel_tol=1e-10)


def test_sweep_k_writes_csv(tmp_path, capsys):
    cfg_path = write_small(tmp_path)
    out_path = tmp_path / "k.csv"
    rc = main(["sweep-k", "--config", cfg_path, "--k-grid", "0,5",
               "--samples", "32", "--seed", "7", "--out", str(out_path)])
    assert rc == 0
    assert f"wrote 4 rows to {out_path}" in capsys.readouterr().out
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 5
    assert lines[1].startswith("element,K,0,")


def test_sweep_k_stdout(tmp_path, capsys):
    cfg_path = write_small(tmp_path)
    rc = main(["sweep-k", "--config", cfg_path, "--k-grid", "1",
               "--samples", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith(HEADER)


def test_sweep_k_seed_determinism(tmp_path):
    cfg_path = write_small(tmp_path)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, ("3", "3", "4")):
        rc = main(["sweep-k", "--config", cfg_path, "--k-grid", "0,10",
                   "--samples", "24", "--seed", seed, "--out", str(path)])
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


# The CSV of `sweep-k --config configs/oracle_small.json --k-grid 0,10
# --samples 64 --seed 7`, recorded once when every row of a sweep came to
# share one draw. At up to SMALL_RUN samples per point every variate comes
# from Random.random(), whose stream Python keeps across versions, so these
# bytes must hold on every supported Python. The rows of K = 0 are equal.
SWEEP_K_SMALL_RUN_GOLDEN = """\
scheme,var_name,var_value,se_mc,se_mc_stderr,se_ub,ee
element,K,0,9.2880545378,0.0916715863089,9.41151098801,
element,K,10,13.0864877301,0.028605555084,13.0726157051,
subarray,K,0,9.2880545378,0.0916715863089,9.41151098801,
subarray,K,10,10.7795320134,0.0628238653425,10.7815381203,
"""


def test_sweep_k_small_run_matches_golden(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(["sweep-k", "--config", ORACLE_SMALL, "--k-grid", "0,10",
               "--samples", "64", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == SWEEP_K_SMALL_RUN_GOLDEN.encode()


def test_sweep_q_quick(tmp_path, capsys):
    cfg_path = write_small(tmp_path)
    rc = main(["sweep-q", "--config", cfg_path, "--draws", "3",
               "--l0-grid", "1,2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == HEADER
    schemes = {ln.split(",")[0] for ln in lines[1:]}
    assert schemes == {"element", "subarray"}
    for ln in lines[1:]:
        assert ln.split(",")[6] != ""  # EE column populated


def test_sweep_n_quick(tmp_path, capsys):
    cfg_path = write_small(tmp_path)
    rc = main(["sweep-n", "--config", cfg_path, "--n-grid", "4,16",
               "--l0-set", "2", "--draws", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    schemes = {ln.split(",")[0] for ln in lines[1:]}
    assert schemes == {"element", "subarray_L2"}


def test_sweep_n_rejects_non_square(tmp_path, capsys):
    cfg_path = write_small(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep-n", "--config", cfg_path, "--n-grid", "8", "--draws", "2"])
    assert exc.value.code == 2
    assert ("argument --n-grid: n_grid must be a perfect square, got 8"
            in capsys.readouterr().err)


# The standard output of `eta` on each committed config, recorded before its
# record moved from cli to design.eta_record. The first four lines, which the
# two configs share, were recorded before the certificate lines were appended.
ETA_HEAD = ("p1 = -2.72069904635\np2 = -1.07287384329\neta = 0.190024742888\n"
            "-log2(eta) = 2.39574081256\n")
ETA_GOLDEN = {
    "default.json": ETA_HEAD + "closed_form_gain = 12752344.6271\n"
                               "coherent_bound = 12752344.6271\nshortfall = 0\n",
    "oracle_small.json": ETA_HEAD + "closed_form_gain = 194.585336717\n"
                                    "coherent_bound = 194.585336717\nshortfall = 0\n",
}


def eta_lines(monkeypatch, capsys, cfg) -> tuple[int, dict, str]:
    """eta's exit code, its `name = value` lines and its stderr on cfg."""
    monkeypatch.setattr(cli, "load_config", lambda *args: cfg)
    rc = main(["eta", "--config", "cfg.json"])
    out, err = capsys.readouterr()
    return rc, dict(line.split(" = ") for line in out.splitlines()), err


@pytest.mark.parametrize("name", ["default.json", "oracle_small.json"])
def test_eta_certifies_the_closed_form(capsys, name):
    # The printed closed-form gain reaches the coherent bound
    # (sum_q |w_q|)^2 * M, which no phases can beat, and both equal
    # eta * N^2 * M. Both are checked against the couplings built from the
    # steering vectors, not the library's, to within the 12 printed digits.
    assert main(["eta", "--config", str(CONFIG_DIR / name)]) == 0
    out = capsys.readouterr().out
    assert out == ETA_GOLDEN[name]
    values = dict(line.split(" = ") for line in out.splitlines())
    assert list(values)[4:] == ["closed_form_gain", "coherent_bound", "shortfall"]
    gain, bound, shortfall = map(float, list(values.values())[4:])
    cfg = load_config(CONFIG_DIR / name)
    assert math.isclose(gain, oracle_gain(cfg, optimal_phases(cfg)), rel_tol=1e-11)
    coherent = math.fsum(map(abs, steering_couplings(cfg))) ** 2 * cfg.M
    assert math.isclose(bound, coherent, rel_tol=1e-11)
    assert 0.0 <= shortfall <= 1e-12
    assert math.isclose(gain, coherence_factor(cfg) * cfg.N ** 2 * cfg.M, rel_tol=1e-11)


def test_eta_certificate_holds_at_any_q(monkeypatch, capsys):
    # Random surfaces of up to 64 subarrays, and both grating-null configs,
    # where every coupling and so the bound itself is rounding noise: the
    # shortfall is scaled by N^2 * M, so it stays at rounding there too.
    rng = np.random.default_rng(2201)
    cfgs = [random_config(rng, sides=(1, 2, 3), groups=(1, 2, 5, 8))
            for _ in range(300)]
    cfgs += [reference_config(angles=NULL_ANGLES),
             reference_config(Lx=4, Ly=8, angles=NULL_ANGLES)]
    for cfg in cfgs:
        rc, values, err = eta_lines(monkeypatch, capsys, cfg)
        assert (rc, err) == (0, "")
        assert float(values["shortfall"]) <= 1e-12


def test_eta_refuses_phases_short_of_the_bound(monkeypatch, capsys):
    # A design off the optimum by 0.1 rad on every other subarray no longer
    # aligns the couplings (shifting all of them alike would): one error
    # line and exit 2.
    closed = design.optimal_phases
    monkeypatch.setattr(design, "optimal_phases", lambda cfg: tuple(
        phi + 0.1 * (q % 2) for q, phi in enumerate(closed(cfg))))
    rc, values, err = eta_lines(monkeypatch, capsys, load_config(DEFAULT))
    assert rc == 2
    assert err == "error: the closed-form phases fall short of the coherent bound\n"
    assert float(values["shortfall"]) > 1e-12


@pytest.mark.parametrize("spacing", [1e6, 1e9, 1e12, 1e100, 1e300])
def test_eta_certificate_holds_at_large_spacings(monkeypatch, capsys, spacing):
    # The phase slopes are reduced mod pi, so the element phases are as
    # small at any spacing as at half a wavelength: unreduced, their
    # rounding put the closed form short of the bound from about 1e9.
    cfg = load_config(DEFAULT).replace(d2_over_lambda=spacing)
    rc, values, err = eta_lines(monkeypatch, capsys, cfg)
    assert (rc, err) == (0, "")
    assert float(values["shortfall"]) <= 1e-12


@pytest.mark.parametrize("argv", [
    ["sweep-k", "--samples", "0"],
    ["sweep-q", "--draws", "0"],
    ["sweep-n", "--draws", "-1"],
    ["sweep-k", "--workers", "-5"],
    ["sweep-q", "--workers", "0"],
    ["sweep-k", "--k-grid", ","],
    ["sweep-k", "--k-grid", "0,0"],
    ["sweep-k", "--k-grid", "1,nan"],
    ["sweep-k", "--k-grid", "-1"],
    ["sweep-q", "--l0-grid", "0"],
    ["sweep-q", "--l0-grid", ""],
    ["sweep-n", "--n-grid", "16,0"],
    ["sweep-n", "--l0-set", ","],
    ["sweep-n", "--n-grid", "16,,64"],
    ["sweep-n", "--n-grid", "16,64,"],
    ["sweep-n", "--n-grid", ",16"],
    ["sweep-q", "--seed", "-1"],
    ["sweep-k", "--seed", "-1"],
    ["sweep-q", "--seed", str(2 ** 64)],
], ids=" ".join)
def test_bad_run_argument_rejected_at_parse_time(tmp_path, capsys, argv):
    command, flag, value = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", write_small(tmp_path), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("run", [["sweep-k", "--samples", "8"],
                                 ["sweep-q", "--draws", "2"]], ids=" ".join)
def test_largest_seed_accepted(tmp_path, capsys, run):
    rc = main([*run, "--config", write_small(tmp_path), "--seed",
               str(2 ** 64 - 1)])
    assert rc == 0
    assert capsys.readouterr().out.startswith(HEADER)


# (command, flag, text, library function, the parsed value it gets): a text
# that is not a number reaches the shared check as the text itself.
BAD_RUN_FLAGS = [
    ("sweep-k", "--samples", "0", sweep_rician_factor, {"samples": 0}),
    ("sweep-k", "--samples", "2.5", sweep_rician_factor, {"samples": "2.5"}),
    ("sweep-k", "--seed", "-1", sweep_rician_factor, {"seed": -1}),
    ("sweep-q", "--seed", "-1", sweep_subarray_count, {"seed": -1}),
    ("sweep-q", "--seed", str(2 ** 64), sweep_subarray_count, {"seed": 2 ** 64}),
    ("sweep-n", "--seed", "x", sweep_ris_size, {"seed": "x"}),
    ("sweep-k", "--k-grid", "1,nan", sweep_rician_factor,
     {"k_grid": [1.0, math.nan]}),
    ("sweep-k", "--k-grid", "-1", sweep_rician_factor, {"k_grid": [-1.0]}),
    ("sweep-k", "--k-grid", "0,ten", sweep_rician_factor, {"k_grid": [0.0, "ten"]}),
    ("sweep-k", "--k-grid", ",", sweep_rician_factor, {"k_grid": ["", ""]}),
    ("sweep-k", "--k-grid", "0,0", sweep_rician_factor, {"k_grid": [0.0, 0.0]}),
    ("sweep-q", "--l0-grid", "2,0", sweep_subarray_count, {"l0_grid": [2, 0]}),
    ("sweep-q", "--l0-grid", "0", sweep_subarray_count, {"l0_grid": [0]}),
    ("sweep-q", "--l0-grid", "", sweep_subarray_count, {"l0_grid": [""]}),
    ("sweep-q", "--draws", "0", sweep_subarray_count, {"num_angle_draws": 0}),
    ("sweep-n", "--draws", "1e3", sweep_ris_size, {"num_angle_draws": "1e3"}),
    ("sweep-n", "--draws", "-1", sweep_ris_size, {"num_angle_draws": -1}),
    ("sweep-n", "--n-grid", "16,-4", sweep_ris_size, {"n_grid": [16, -4]}),
    ("sweep-n", "--n-grid", "16,,64", sweep_ris_size, {"n_grid": [16, "", 64]}),
    ("sweep-n", "--n-grid", "16,0", sweep_ris_size, {"n_grid": [16, 0]}),
    ("sweep-n", "--n-grid", "16,64,", sweep_ris_size, {"n_grid": [16, 64, ""]}),
    ("sweep-n", "--n-grid", ",16", sweep_ris_size, {"n_grid": ["", 16]}),
    ("sweep-n", "--l0-set", "2.0", sweep_ris_size, {"l0_set": ["2.0"]}),
    ("sweep-n", "--l0-set", ",", sweep_ris_size, {"l0_set": ["", ""]}),
    ("sweep-n", "--n-grid", "16,8", sweep_ris_size, {"n_grid": [16, 8]}),
    ("sweep-n", "--l0-set", "1,2", sweep_ris_size, {"l0_set": [1, 2]}),
]


@pytest.mark.parametrize("command, flag, text, fn, kwargs", BAD_RUN_FLAGS,
                         ids=[" ".join(case[:3]) for case in BAD_RUN_FLAGS])
def test_bad_run_flag_says_what_the_library_says(tmp_path, capsys, command,
                                                 flag, text, fn, kwargs):
    # The flag and the library parameter share one check, so the usage error
    # carries the library's message for the value, naming the parameter.
    cfg_path = write_small(tmp_path)
    with pytest.raises(ValueError) as library:
        fn(load_config(cfg_path), **kwargs)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, flag, text])
    assert exc.value.code == 2
    assert f"argument {flag}: {library.value}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, sweep", [
    ("sweep-k", sweep_rician_factor),
    ("sweep-q", sweep_subarray_count),
    ("sweep-n", sweep_ris_size),
], ids=["sweep-k", "sweep-q", "sweep-n"])
def test_sweep_default_grid_is_the_library_default(tmp_path, command, sweep):
    # A run flag left out is left out of the library call: every default
    # (grid, samples or draws, seed) is the library's.
    cfg_path, out = write_small(tmp_path), tmp_path / "cli.csv"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
    library = io.StringIO()
    write_csv(sweep(load_config(cfg_path)), library)
    assert out.read_bytes() == library.getvalue().encode()


# The run arguments' one vocabulary: the sweeps' parameters and flags.
RUN_ARGUMENTS = {"seed", "samples", "num_angle_draws", "k_grid", "l0_grid",
                 "n_grid", "l0_set"}


@pytest.mark.parametrize("fn", [monte_carlo_se, sweep_rician_factor,
                                sweep_subarray_count, sweep_ris_size],
                         ids=lambda fn: fn.__name__)
def test_run_entry_point_names_its_arguments_as_the_sweeps_do(fn):
    # One name per run argument: a seed is `seed` and a sample count
    # `samples` wherever a public function takes one.
    params = set(inspect.signature(fn).parameters) - {"cfg", "cfg_base", "etas"}
    assert params <= RUN_ARGUMENTS, params - RUN_ARGUMENTS
    assert set(config.RUN_ARGUMENTS) == RUN_ARGUMENTS


def test_every_run_entry_point_and_flag_reads_its_rule_by_name(tmp_path, capsys,
                                                                monkeypatch):
    # A run argument's rule is stated once, in config.RUN_ARGUMENTS: a rule
    # changed there changes every library entry point and the flag alike.
    monkeypatch.setitem(config.RUN_ARGUMENTS, "seed", partial(check_int, low=0, high=10))
    message = "seed must be an integer in [0, 10], got 11"
    cfg = small_config()
    for call in [lambda: monte_carlo_se(cfg, [0.5], 8, 11),
                 lambda: sweep_rician_factor(cfg, samples=8, seed=11),
                 lambda: sweep_subarray_count(cfg, seed=11),
                 lambda: sweep_ris_size(cfg, seed=11)]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call()
    with pytest.raises(SystemExit) as exc:
        main(["sweep-q", "--config", write_small(tmp_path), "--seed", "11"])
    assert exc.value.code == 2
    assert f"argument --seed: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli.SWEEPS))
def test_sweep_flags_are_its_library_parameters(command):
    module, name = cli.SWEEPS[command]
    fn = getattr(importlib.import_module(f"ris_subarray.{module}"), name)
    dests = {dest for flag, (dest, _, _) in cli.COMMANDS[command][1].items()
             if flag not in ("--config", "--set", "--out", "--workers")}
    assert dests == set(inspect.signature(fn).parameters) - {"cfg_base"}


def test_negative_zero_k_is_k_zero(tmp_path):
    # -0.0 is K = 0: the rows are labelled 0, and the bytes are those of 0.
    run = ["sweep-k", "--config", write_small(tmp_path), "--samples", "8"]
    paths = [tmp_path / "minus.csv", tmp_path / "plus.csv"]
    assert main([*run, "--k-grid=-0,5", "--out", str(paths[0])]) == 0
    assert main([*run, "--k-grid=0,5", "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert ",-0," not in paths[0].read_text()


def fresh_process(code: str, *argv: str, stdout=subprocess.PIPE, option="-c",
                  **env) -> subprocess.CompletedProcess:
    """code run on argv in a new interpreter that sees src/ and tests/, with
    the variables in env set, or unset where None; with option="-m", code
    names the module to run as __main__."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run([sys.executable, option, code, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          env={k: v for k, v in env.items() if v is not None})


def fresh_python(code: str) -> str:
    """Standard output of code run in a new interpreter."""
    proc = fresh_process(code)
    proc.check_returncode()
    return proc.stdout.strip()


def test_readme_quick_start_runs():
    # The ```python block under "## Quick start", found as by the awk rule
    # `/^## Quick start/{s=1} s&&/^```python$/{p=1;next} p&&/^```$/{exit} p`:
    # a public name that is renamed or removed breaks the example here.
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("## Quick start"))
    begin = lines.index("```python", start) + 1
    code = "\n".join(lines[begin:lines.index("```", begin)])
    assert "monte_carlo_se" in code
    proc = fresh_process(code)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # The ``` block after "The same through the CLI:", each `ris-subarray`
    # line run through main() from a directory whose configs/ is the repo's:
    # a renamed flag or command breaks the example here. Each sweep writes
    # the CSV it reports, header first.
    lines = (ROOT / "README.md").read_text().splitlines()
    begin = lines.index("```", lines.index("The same through the CLI:")) + 1
    commands = [shlex.split(line) for line in lines[begin:lines.index("```", begin)]]
    assert [argv[1] for argv in commands] == [
        "validate", "eta", "sweep-k", "sweep-q", "sweep-n"]
    (tmp_path / "configs").symlink_to(CONFIG_DIR)
    monkeypatch.chdir(tmp_path)
    for program, *argv in commands:
        assert program == "ris-subarray"
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            rows = (tmp_path / path).read_text().splitlines()
            assert rows[0] == HEADER and len(rows) > 1, argv
            assert out == f"wrote {len(rows) - 1} rows to {path}\n", argv


def readme_table(header: str) -> list[list[str]]:
    """The cells of each row of the README table under the line header."""
    lines = (ROOT / "README.md").read_text().splitlines()
    begin = lines.index(header) + 2
    return [line.strip("| ").split(" | ")
            for line in takewhile(lambda line: line.startswith("|"), lines[begin:])]


def test_readme_command_table_is_the_flag_table():
    # Each row of the README's "Command | Flags" table names commands and
    # the flags of each in cli.COMMANDS, in their order: a renamed, added,
    # removed or reordered flag or command leaves the table wrong here.
    table = {command: re.findall(r"`(--[\w-]+)`", flags)
             for commands, flags in readme_table("| Command | Flags |")
             for command in re.findall(r"`([\w-]+)`", commands)}
    assert table == {command: list(flags) for command, (_, flags) in cli.COMMANDS.items()}


def test_readme_run_argument_table_is_the_rule_table():
    # The rows of the README's "Input (CLI flag)" table that name a flag are
    # config.RUN_ARGUMENTS, each with the flag the CLI reads it from and its
    # entry as the rule, plus --workers: a renamed or removed run argument
    # leaves no stale row, and a new one no missing row.
    rows = readme_table("| Input (CLI flag) | Rule | Default |")
    flagged = [(row[0], row[1]) for row in rows if row[0].endswith(")")]
    want = {f"`{dest}` (`{flag}`)": f'`RUN_ARGUMENTS["{dest}"]`:'
            for _, flags in cli.COMMANDS.values()
            for flag, (dest, *_) in flags.items() if dest in config.RUN_ARGUMENTS}
    assert len(want) == len(config.RUN_ARGUMENTS)
    want["`--workers` (CLI only)"] = ""
    assert sorted(first for first, _ in flagged) == sorted(want)
    for first, rule in flagged:
        assert rule.startswith(want[first]), first


def readme_text() -> str:
    """README.md with each run of whitespace, line breaks too, as one space."""
    return " ".join((ROOT / "README.md").read_text().split())


def readme_block(after: str, fence: str = "```") -> str:
    """The fenced block that opens with the line fence after the line after."""
    lines = (ROOT / "README.md").read_text().splitlines()
    begin = lines.index(fence, lines.index(after)) + 1
    return "\n".join(lines[begin:lines.index("```", begin)])


def power_of_two(number: int) -> str:
    """number as the README writes a power of two: 2**20 is 2²⁰."""
    exponent = number.bit_length() - 1
    assert number == 1 << exponent
    return "2" + str(exponent).translate(str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹"))


def spaced(number: int) -> str:
    """number as the README writes it: 65536 is 65 536."""
    return f"{number:,}".replace(",", " ")


def test_readme_quotes_each_value_as_the_code_holds_it():
    # Each value the README states outside the blocks and tables read above,
    # formatted from the name that holds it in the code, the run-argument
    # table's defaults and limits included: a changed constant, default or
    # limit leaves its sentence stale here.
    cfg = load_config(DEFAULT)
    defaults = {}       # each parameter's defaults, over the functions that take it
    for function in (sweep_rician_factor, sweep_subarray_count, sweep_ris_size,
                     load_config):
        for name, parameter in inspect.signature(function).parameters.items():
            defaults.setdefault(name, set()).add(parameter.default)
    [samples], [draws], [seed], [l0_set], [overrides], [l0_grid] = (
        defaults[name] for name in ("samples", "num_angle_draws", "seed", "l0_set",
                                    "overrides", "l0_grid"))
    assert l0_grid is None      # the table's default_l0_grid(cfg)
    python = re.search(r'requires-python = ">=([\d.]+)"',
                       (ROOT / "pyproject.toml").read_text()).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    versions = re.findall(r'"([\d.]+)"', re.search(r"python-version: \[(.*)\]",
                                                   workflow).group(1))
    offsets = [int(k) for k in re.search(r"offset: \[(.*)\]", workflow).group(1).split(",")]
    assert offsets == list(range(1, max(offsets) + 1))
    quoted = [
        f"# {cfg.M} antennas, {cfg.Nx}x{cfg.Ny} surface, {cfg.Lx}x{cfg.Ly} subarrays",
        f"# {coherence_factor(cfg):.3f} for the default geometry",
        f"Requires Python >= {python} and numpy",
        f"--n-grid {','.join(map(str, DEFAULT_N_GRID))} --out",
        f"| {spaced(samples)}, `sweep_rician_factor`; none,",
        f"| {draws}, `sweep_subarray_count`, `sweep_ris_size` |",
        f"| {seed}, each sweep; none,",
        f"integer in [0, {power_of_two(MAX_SEED + 1)}) |",
        f"each an integer in [1, {power_of_two(MAX_N)}], a perfect square |",
        f"integer in [0, {power_of_two(MAX_N)}], the largest surface |",
        f"| {l0_set}, `sweep_ris_size` |",
        f"| `{overrides}`, none |",
        f"up to `sampler.SMALL_RUN` = {SMALL_RUN} samples per point |",
        f"| `sweep-k`, more than {SMALL_RUN} samples per point |",
        f"**`SMALL_RUN` is {SMALL_RUN}.**",
        f"between {SMALL_RUN + 1} samples and itself",
        f"n ≤ `sampler.SMALL_RUN` = {SMALL_RUN}:",
        f"n > {SMALL_RUN}: numpy's Philox, in fixed chunks of {spaced(MC_CHUNK)} ",
        f"{SMALL_RUN} and {SMALL_RUN + 1} samples at one seed share no draws",
        f"must be at most 2**{MAX_N.bit_length() - 1}` (`config.MAX_N`)",
        f"the first {SHOWN_MAX} characters of the value it rejects",
        f"on Python {' and '.join(versions)} against",
        f"at offsets 1 to {max(offsets)}.",
    ]
    text = readme_text()
    assert [phrase for phrase in quoted if phrase not in text] == []
    # the table's default names are the library's
    for *_, cell in readme_table("| Input (CLI flag) | Rule | Default |"):
        for name in re.findall(r"`(\w+)", cell):
            assert any(hasattr(module, name) for module in (
                ris_subarray, sweeps, regional)), name


def test_readme_quotes_the_library_s_messages(tmp_path, monkeypatch, capsys):
    # Each error message the README quotes, or the rule it quotes from one,
    # is the text the library writes.
    small, zero = small_config(), dict(p_dynamic=0.0, p_control=0.0, p_driver=0.0)
    messages = []
    for change in [dict(P=1e308), dict(d2_over_lambda=1e308),
                   dict(power=PowerConstants(p_rest=1e308, p_control=1e308)),
                   dict(power=PowerConstants(p_rest=1e-320, **zero)),
                   dict(Nx=2 * MAX_N, Ny=1, Lx=1, Ly=1)]:
        with pytest.raises(ConfigError) as exc:
            small.replace(**change)
        messages.append(str(exc.value).partition(", got")[0].rpartition("slopes: ")[2])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text("")
    with pytest.raises(ConfigError) as exc:
        load_config("cfg.json")
    messages.append(str(exc.value))
    with pytest.raises(SystemExit):
        main(["sweep-q", "--config", DEFAULT, "--draws", "0"])
    messages.append(capsys.readouterr().err.splitlines()[-1].partition("error: ")[2])
    text = readme_text()
    assert all(messages) and [message for message in messages if message not in text] == []


def test_readme_config_example_is_the_default_config():
    # the example is configs/default.json, its keys the records' fields and
    # its power section PowerConstants' defaults
    example = json.loads(readme_block("## Config files", "```json"))
    cfg = load_config(DEFAULT)
    assert example == json.loads(Path(DEFAULT).read_text())
    assert sorted(example) == sorted(cfg._fields)
    assert sorted(example["angles"]) == sorted(cfg.angles._fields)
    assert example["power"] == dict(zip(PowerConstants()._fields, PowerConstants()))


def test_readme_csv_header_is_the_row_s_fields():
    assert readme_block("## CSV output") == ",".join(SweepResult._fields) == HEADER
    fh = io.StringIO()
    write_csv([SweepResult("element", "K", 1 / 3, 2 / 3, 1e-20, math.pi, None)], fh)
    assert fh.getvalue().splitlines()[-1] == "element,K,%.12g,%.12g,%.12g,%.12g," % (
        1 / 3, 2 / 3, 1e-20, math.pi)
    assert "floats are printed with `%.12g`" in readme_text()


# A number with a unit of time or memory: 62 ms, 13.1 MB, 0.2 µs, 1.5 s.
FIGURE = re.compile(r"\d[\d.,·⁰¹²³⁴⁵⁶⁷⁸⁹ ]*(?:[nµu]s|ms|s|min|seconds?|minutes?"
                    r"|(?:[kKMGT]i?)?B|bytes?)\b")


def test_readme_states_no_timing_or_memory_figure():
    # Figures drift with the machine and the session that measured them;
    # they live in CHANGES.md, which the README's trade-offs point to.
    assert FIGURE.findall(readme_text()) == []
    for figure in ["62 ms", "13.1 MB", "0.2 µs", "1.56 s", "2·10⁵ B", "34.7 MiB"]:
        assert FIGURE.search(f"took {figure} here"), figure


# What the installed `ris-subarray` console script runs.
ENTRY = "from ris_subarray.cli import entry; entry()"


@pytest.mark.parametrize("argv, code", [
    (["sweep-q", "--config", ORACLE_SMALL, "--draws", "3"], 0),
    (["validate", "--config", DEFAULT, "--set", "Lx=3"], 1),
    (["sweep-q", "--config", DEFAULT, "--l0-grid", "3"], 1),
    (["sweep-k", "--config", DEFAULT, "--samples", "0"], 2),
], ids=["sweep", "bad config", "bad grid", "usage error"])
def test_console_entry_keeps_exit_codes(argv, code):
    assert fresh_process(ENTRY, *argv).returncode == code


@pytest.mark.parametrize("overrides, code", [([], 0), (["--set", "Lx=3"], 1)],
                         ids=["ok", "bad config"])
def test_python_m_cli_runs_main(overrides, code):
    # `python -m ris_subarray.cli` runs main() and exits through sys.exit.
    proc = fresh_process("ris_subarray.cli", "validate", "--config", ORACLE_SMALL,
                         *overrides, option="-m")
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stdout.endswith("config ok\n")
    else:
        assert [line[:6] for line in proc.stderr.splitlines()] == ["error:"]


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["sweep-k", "--config", write_small(tmp_path), "--k-grid", "0",
                 "--samples", "8", "--out", str(tmp_path / "k.csv")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_console_entry_writes_the_csv_main_writes(tmp_path):
    # entry() runs main() with the collector off and ends the process without
    # the interpreter's teardown, so only its own flush gets buffered output
    # out: the pipe is block-buffered with PYTHONUNBUFFERED unset. Each
    # sampler and a regional sweep, whose angle stream is the library's own.
    for name, rows, argv in [
            ("stdlib", 4, ["sweep-k", "--k-grid", "0,10", "--samples", "64"]),
            ("numpy", 4, ["sweep-k", "--k-grid", "0,10", "--samples",
                          str(SMALL_RUN + 1)]),
            ("regional", 3, ["sweep-q", "--draws", "50"])]:
        argv = [*argv, "--config", ORACLE_SMALL]
        entry_csv, main_csv = tmp_path / f"{name}-entry.csv", tmp_path / f"{name}.csv"
        to_file = fresh_process(ENTRY, *argv, "--out", str(entry_csv),
                                PYTHONUNBUFFERED=None)
        to_stdout = fresh_process(ENTRY, *argv, PYTHONUNBUFFERED=None)
        code = main([*argv, "--out", str(main_csv)])
        assert to_file.returncode == to_stdout.returncode == code == 0, (
            name, to_file.stderr + to_stdout.stderr)
        assert to_file.stdout == f"wrote {rows} rows to {entry_csv}\n", name
        assert entry_csv.read_bytes() == main_csv.read_bytes(), name
        assert to_stdout.stdout.encode() == main_csv.read_bytes(), name


@pytest.mark.parametrize("unbuffered", ["1", None],
                         ids=["PYTHONUNBUFFERED", "buffered"])
@pytest.mark.parametrize("to_file", [False, True], ids=["csv", "report"])
def test_console_entry_into_a_closed_pipe_is_one_error_line(tmp_path, unbuffered,
                                                            to_file):
    # `ris-subarray sweep-q ... | true` with the reader gone: the write fails
    # in main() when unbuffered, and entry()'s flush fails when buffered.
    # Either way one error line and exit 1, no traceback, and nothing from
    # the interpreter's teardown.
    out = ["--out", str(tmp_path / "q.csv")] if to_file else []
    read, write = os.pipe()
    os.close(read)
    try:
        proc = fresh_process(ENTRY, "sweep-q", "--config", ORACLE_SMALL,
                             "--draws", "3", *out, stdout=write,
                             PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, (
        proc.stderr)


@pytest.mark.parametrize("argv", [["eta"], ["sweep-q", "--draws", "3", "--out"]],
                         ids=" ".join)
def test_console_entry_with_stdout_closed_at_start(tmp_path, argv):
    # `ris-subarray eta --config ... >&-`: the interpreter starts without
    # file descriptor 1, so sys.stdout is None. One error line and exit 1.
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "q.csv")]
    code = ("import os, sys; os.close(1); os.execv(sys.executable, "
            f"[sys.executable, '-c', {ENTRY!r}, *sys.argv[1:]])")
    proc = fresh_process(code, *argv, "--config", ORACLE_SMALL)
    assert proc.returncode == 1
    assert proc.stderr == "error: standard output is closed\n"
    assert not (tmp_path / "q.csv").exists()


def test_workers_flag_is_ignored(tmp_path):
    # --workers is parsed and checked, then dropped: 4 points x 1.5e5
    # samples starts no process machinery and writes the bytes of the same
    # run without the flag.
    argv = ["sweep-k", "--config", ORACLE_SMALL, "--k-grid", "0,10",
            "--samples", "150000", "--out"]
    code = ("import sys; from ris_subarray.cli import main; "
            "rc = main(sys.argv[1:]); print(rc, [m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules])")
    proc = fresh_process(code, *argv, str(tmp_path / "workers.csv"),
                         "--workers", "2")
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr
    assert main([*argv, str(tmp_path / "plain.csv")]) == 0
    assert ((tmp_path / "workers.csv").read_bytes()
            == (tmp_path / "plain.csv").read_bytes())


# The import rule, one row per way into the package: a snippet of code, or
# an argv that main() runs on ORACLE_SMALL, and the modules of the package
# it loads. Each command compiles only the modules on its own path: the
# regional sweeps neither the phase design nor the sampler, and sweep-k
# neither the regional sweeps nor the design. numpy, and numpy.random with
# it, loads if and only if a Monte Carlo run exceeds SMALL_RUN samples per
# point, and numpy_sampler with them.
NUMPY = ("numpy", "numpy.random")
# Loaded by numpy itself, and by no numpy-free run but struct, which the
# regional sweeps load: the config records are not dataclasses, whose import
# pulls in inspect, write_csv joins its fields without the csv module, and
# the number checks consult the numbers ABCs only for a type JSON never gives.
NUMPY_OWN = ("dataclasses", "inspect", "csv", "struct", "numbers")
# The regional sweeps' Philox words and slope arrays; sweep-k loads neither.
REGIONAL_OWN = ("struct", "array")
# Loaded by no run: no command parses with argparse, which loads gettext and
# locale, every run stays in its process, and no module of the package
# imports __future__.
NEVER = ("argparse", "gettext", "locale", "multiprocessing",
         "concurrent.futures.process", "__future__")
PHASE_DESIGN = ("from ris_subarray import design, load_config; "
                f"design.phase_certificate(load_config({DEFAULT!r}))")
REGIONAL = {"cli", "config", "sweeps", "regional", "metrics", "phases"}
SWEEP_K = {"cli", "config", "sweeps", "metrics", "phases", "sampler"}
IMPORT_RULE = {    # id: (code or argv, package modules loaded, numpy loads)
    "phase-design": (PHASE_DESIGN, {"config", "phases", "design"}, False),
    "validate": (["validate"], {"cli", "config"}, False),
    "eta": (["eta"], {"cli", "config", "phases", "design"}, False),
    "sweep-q": (["sweep-q", "--draws", "3", "--out"], REGIONAL, False),
    "sweep-n": (["sweep-n", "--n-grid", "16", "--draws", "3", "--out"], REGIONAL, False),
    "sweep-k": (["sweep-k", "--k-grid", "0", "--samples", "8", "--out"], SWEEP_K, False),
    "sweep-k-small-run": (["sweep-k", "--k-grid", "0", "--samples", str(SMALL_RUN),
                           "--out"], SWEEP_K, False),
    "sweep-k-numpy": (["sweep-k", "--k-grid", "0", "--samples", str(SMALL_RUN + 1),
                       "--out"], SWEEP_K | {"numpy_sampler"}, True),
}


def test_readme_module_table_is_the_import_rule():
    # Each row of the README's module table lists the package modules, and
    # numpy where it loads, of the command runs of IMPORT_RULE: one row per
    # distinct rule, in IMPORT_RULE's order.
    rules = []
    for run, modules, numpy in IMPORT_RULE.values():
        if isinstance(run, list) and (modules, numpy) not in rules:
            rules.append((modules, numpy))
    rows = [(set(re.findall(r"`(\w+)`", cell)), "numpy" in re.sub(r"`\w+`", "", cell))
            for _, cell in readme_table("| Command | Modules of `ris_subarray` it loads |")]
    assert rows == rules


def modules_loaded_by(code) -> tuple[set, set]:
    """The package's modules, by their names within it, and the other
    watched modules that `code` loads in a fresh interpreter."""
    # A site hook may load a watched standard-library module first (a .pth
    # file can import struct). Each is dropped from sys.modules before the
    # run, so that the run's own import of it counts.
    stdlib = NEVER + NUMPY_OWN + REGIONAL_OWN
    proc = fresh_process(
        f"import sys; [sys.modules.pop(m, None) for m in {stdlib!r}]; "
        f"before = set(sys.modules); {code}; print(*[m for m in sys.modules "
        f"if m not in before and (m in {stdlib + NUMPY!r} or m.startswith('ris_subarray.'))])")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())   # after the run's output
    package = {m for m in loaded if m.startswith("ris_subarray.")}
    return {m.removeprefix("ris_subarray.") for m in package}, loaded - package


def test_cli_import_leaves_numpy_unloaded():
    package, loaded = modules_loaded_by("import ris_subarray.cli")
    assert package == {"cli", "config"}
    assert not loaded & {*NUMPY, *NUMPY_OWN, *REGIONAL_OWN}, loaded


def test_cli_import_leaves_process_pool_unloaded():
    _, loaded = modules_loaded_by("import ris_subarray.cli")
    assert not loaded & set(NEVER), loaded


@pytest.mark.parametrize("run, modules, numpy", IMPORT_RULE.values(),
                         ids=IMPORT_RULE)
def test_only_sweep_k_imports_numpy_random(tmp_path, run, modules, numpy):
    if isinstance(run, list):
        out = [str(tmp_path / "out.csv")] if run[-1] == "--out" else []
        argv = [*run, *out, "--config", ORACLE_SMALL]
        run = f"from ris_subarray.cli import main; assert main({argv!r}) == 0"
    package, loaded = modules_loaded_by(run)
    assert package == modules
    assert loaded & set(NUMPY) == (set(NUMPY) if numpy else set())
    own = set(REGIONAL_OWN) if "regional" in modules else set()
    assert own <= loaded - set(NUMPY) <= own | (set(NUMPY_OWN) if numpy else set())

PUBLIC = ["Angles", "ConfigError", "PowerConstants", "SweepResult",
          "SystemConfig", "coherence_factor", "config_from_dict",
          "load_config", "max_se_upper_bound",
          "monte_carlo_se", "optimal_phases", "ris_power",
          "sweep_rician_factor", "sweep_ris_size", "sweep_subarray_count",
          "write_csv"]


def test_star_import_binds_the_submodule_objects():
    # Each public name is the object its defining submodule holds.
    code = ("import sys; ns = {}; exec('from ris_subarray import *', ns); "
            "print(sorted(k for k in ns if k != '__builtins__')); "
            "print(all(sys.modules[v.__module__].__dict__[k] is v "
            "for k, v in ns.items() if k != '__builtins__'))")
    names, same = fresh_python(code).splitlines()
    assert names == repr(PUBLIC)
    assert same == "True"


def test_unknown_package_attribute_raises():
    code = ("import ris_subarray\n"
            "try:\n    ris_subarray.sample_channels\n"
            "except AttributeError as exc:\n    print(exc)")
    assert fresh_python(code) == (
        "module 'ris_subarray' has no attribute 'sample_channels'")
