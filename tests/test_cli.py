import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ris_subarray import (cli, coherence_factor, exhaustive_phase_search,
                          load_config, sweep_rician_factor, sweep_ris_size,
                          sweep_subarray_count)
from ris_subarray.cli import main
from ris_subarray.phases import phase_slopes
from ris_subarray.sweeps import WORK_PER_WORKER, write_csv

from helpers import small_config, small_raw

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


@pytest.mark.parametrize("text", ["M", "=8", "P=pi", "M=8,", "K1=nan"])
def test_malformed_set_is_a_usage_error(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", DEFAULT, "--set", text])
    assert exc.value.code == 2
    assert "argument --set:" in capsys.readouterr().err


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
    (["P=1e308"], "the largest SNR"),
    (["sigma_w2=1e-310"], "the largest SNR"),
    (["d2_over_lambda=1e308"], "d2_over_lambda=1e+308 overflows the phases"),
    # finite power terms whose total is not, once a config ok (and inf
    # surface power) from validate and ee = 0 rows from the sweeps
    (["power.p_rest=1e308", "power.p_control=1e308"], "the largest total power"),
    (["power.p_dynamic=1e308", "power.p_control=1e308"], "the largest total power"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_set_field_is_rejected_naming_it(capsys, sets, field):
    argv = ["validate", "--config", DEFAULT]
    for text in sets:
        argv += ["--set", text]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}")


def test_set_infinite_rician_factor_is_pure_los(capsys):
    assert main(["validate", "--config", DEFAULT, "--set", "K1=Infinity"]) == 0
    assert "K1=inf" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["validate", "--samples", "5"],
    ["validate", "--seed", "3"],
    ["eta", "--out", "f.csv"],
    ["oracle", "--workers", "2"],
    ["sweep-q", "--samples", "5"],
    ["sweep-n", "--samples", "5"],
], ids=" ".join)
def test_flag_a_command_does_not_use_is_rejected(capsys, argv):
    command, *flag = argv
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", ORACLE_SMALL, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["validate", "--config", "/nonexistent/cfg.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_eta_matches_library(capsys):
    assert main(["eta", "--config", DEFAULT]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    values = {}
    for line in lines:
        key, _, text = line.partition(" = ")
        values[key.strip()] = float(text)
    cfg = small_config(M=64, Nx=32, Ny=32)
    p1, p2 = phase_slopes(cfg)
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


def test_oracle_agrees(capsys):
    rc = main(["oracle", "--config", ORACLE_SMALL, "--levels", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "closed form is optimal on this grid" in out
    assert "closed_form_gain" in out and "grid_search_gain" in out


@pytest.mark.parametrize("argv", [
    ["sweep-k", "--samples", "0"],
    ["sweep-q", "--draws", "0"],
    ["sweep-n", "--draws", "-1"],
    ["sweep-k", "--workers", "-5"],
    ["oracle", "--levels", "0"],
    ["oracle", "--levels", "33"],
    ["sweep-k", "--k-grid", ","],
    ["sweep-k", "--k-grid", "0,0"],
    ["sweep-k", "--k-grid", "1,nan"],
    ["sweep-k", "--k-grid", "-1"],
    ["sweep-q", "--l0-grid", "0"],
    ["sweep-q", "--l0-grid", ""],
    ["sweep-n", "--n-grid", "16,0"],
    ["sweep-n", "--l0-set", ","],
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
    ("sweep-k", "--workers", "-5", sweep_rician_factor, {"workers": -5}),
    ("sweep-k", "--seed", "-1", sweep_rician_factor, {"seed": -1}),
    ("sweep-q", "--seed", str(2 ** 64), sweep_subarray_count, {"seed": 2 ** 64}),
    ("sweep-n", "--seed", "x", sweep_ris_size, {"seed": "x"}),
    ("sweep-k", "--k-grid", "1,nan", sweep_rician_factor,
     {"k_grid": [1.0, math.nan]}),
    ("sweep-k", "--k-grid", "-1", sweep_rician_factor, {"k_grid": [-1.0]}),
    ("sweep-k", "--k-grid", "0,ten", sweep_rician_factor, {"k_grid": [0.0, "ten"]}),
    ("sweep-k", "--k-grid", ",", sweep_rician_factor, {"k_grid": []}),
    ("sweep-k", "--k-grid", "0,0", sweep_rician_factor, {"k_grid": [0.0, 0.0]}),
    ("sweep-q", "--l0-grid", "2,0", sweep_subarray_count, {"l0_grid": [2, 0]}),
    ("sweep-q", "--draws", "0", sweep_subarray_count, {"num_angle_draws": 0}),
    ("sweep-n", "--draws", "1e3", sweep_ris_size, {"num_angle_draws": "1e3"}),
    ("sweep-n", "--n-grid", "16,-4", sweep_ris_size, {"n_grid": [16, -4]}),
    ("sweep-n", "--l0-set", "2.0", sweep_ris_size, {"l0_set": ["2.0"]}),
    ("sweep-n", "--n-grid", "16,8", sweep_ris_size, {"n_grid": [16, 8]}),
    ("sweep-n", "--l0-set", "1,2", sweep_ris_size, {"l0_set": [1, 2]}),
    ("oracle", "--levels", "0", exhaustive_phase_search, {"grid_levels": 0}),
    ("oracle", "--levels", "33", exhaustive_phase_search, {"grid_levels": 33}),
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
    # (grid, samples or draws, seed, workers) is the library's.
    cfg_path, out = write_small(tmp_path), tmp_path / "cli.csv"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
    library = io.StringIO()
    write_csv(sweep(load_config(cfg_path)), library)
    assert out.read_bytes() == library.getvalue().encode()


def test_negative_zero_k_is_k_zero(tmp_path):
    # -0.0 is K = 0: the rows are labelled 0, and the bytes are those of 0.
    run = ["sweep-k", "--config", write_small(tmp_path), "--samples", "8"]
    paths = [tmp_path / "minus.csv", tmp_path / "plus.csv"]
    assert main([*run, "--k-grid=-0,5", "--out", str(paths[0])]) == 0
    assert main([*run, "--k-grid=0,5", "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert ",-0," not in paths[0].read_text()


def fresh_process(code: str, *argv: str) -> subprocess.CompletedProcess:
    """code run on argv in a new interpreter that sees src/ and tests/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path})


def fresh_python(code: str) -> str:
    """Standard output of code run in a new interpreter."""
    proc = fresh_process(code)
    proc.check_returncode()
    return proc.stdout.strip()


# What the installed `ris-subarray` console script runs.
ENTRY = "from ris_subarray.cli import entry; entry()"


@pytest.mark.parametrize("argv, code", [
    (["sweep-q", "--config", ORACLE_SMALL, "--draws", "3"], 0),
    (["validate", "--config", DEFAULT, "--set", "Lx=3"], 1),
    (["sweep-k", "--config", DEFAULT, "--samples", "0"], 2),
], ids=["sweep", "bad config", "usage error"])
def test_console_entry_keeps_exit_codes(argv, code):
    assert fresh_process(ENTRY, *argv).returncode == code


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["sweep-k", "--config", write_small(tmp_path), "--k-grid", "0",
                 "--samples", "8", "--out", str(tmp_path / "k.csv")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("samples, pools", [("64", []), ("150000", [2])],
                         ids=["serial", "pool"])
def test_console_entry_writes_the_csv_main_writes(tmp_path, samples, pools):
    # entry() runs main() with the collector off and frozen at exit; the
    # bytes must not change, also in pool workers forked with it off.
    argv = ["sweep-k", "--config", ORACLE_SMALL, "--k-grid", "0,10",
            "--samples", samples, "--workers", "2", "--out"]
    watch = ("import atexit, gc, types; from helpers import count_pools; "
             "pools = count_pools(types.SimpleNamespace(setattr=setattr)); "
             "atexit.register(lambda: print(pools, gc.isenabled(), "
             "gc.get_freeze_count() > 0)); ")
    proc = fresh_process(watch + ENTRY, *argv, str(tmp_path / "entry.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{pools} False True"
    assert main([*argv, str(tmp_path / "main.csv")]) == 0
    assert ((tmp_path / "entry.csv").read_bytes()
            == (tmp_path / "main.csv").read_bytes())


def test_workers_help_quotes_work_per_worker(capsys):
    # The help spells the constant out, since sweeps (and numpy) must not be
    # imported to build the parser.
    with pytest.raises(SystemExit):
        main(["sweep-k", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"one per {WORK_PER_WORKER} samples" in help_text


def test_cli_import_leaves_process_pool_unloaded():
    # Only --workers >= 2 needs the pool; every other run skips its imports.
    code = ("import sys, ris_subarray.cli; print([m for m in ('multiprocessing',"
            " 'concurrent.futures.process') if m in sys.modules])")
    assert fresh_python(code) == "[]"


def test_small_sweep_starts_no_process_pool(tmp_path):
    # 6 points x 16 samples is far too little work for a second process.
    argv = ["sweep-k", "--config", "configs/default.json", "--k-grid",
            "0,10,100", "--samples", "16", "--workers", "2",
            "--out", str(tmp_path / "k.csv")]
    code = (f"import sys; from ris_subarray.cli import main; rc = main({argv!r}); "
            "print(rc, [m for m in ('multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules])")
    assert fresh_python(code).splitlines()[-1] == "0 []"


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, ris_subarray.cli; print('numpy' in sys.modules)"
    assert fresh_python(code) == "False"


@pytest.mark.parametrize("argv, loaded", [
    (["sweep-q", "--draws", "3"], False),
    (["sweep-n", "--n-grid", "16", "--draws", "3"], False),
    (["sweep-k", "--k-grid", "0", "--samples", "8"], True),
], ids=["sweep-q", "sweep-n", "sweep-k"])
def test_only_sweep_k_imports_numpy_random(tmp_path, argv, loaded):
    # The library computes the regional angle stream itself; sweep-k still
    # draws its normals, chi-squares and point seeds through numpy.random.
    argv = [*argv, "--config", ORACLE_SMALL, "--out", str(tmp_path / "out.csv")]
    code = (f"import sys; from ris_subarray.cli import main; rc = main({argv!r}); "
            "print(rc, 'numpy' in sys.modules, 'numpy.random' in sys.modules)")
    assert fresh_python(code).splitlines()[-1] == f"0 True {loaded}"


def test_validate_runs_without_numpy():
    code = ("import sys; from ris_subarray.cli import main; "
            "rc = main(['validate', '--config', 'configs/default.json']); "
            "print(rc, 'numpy' in sys.modules)")
    assert fresh_python(code).splitlines()[-1] == "0 False"


PUBLIC = ["Angles", "ConfigError", "PowerConstants", "SweepResult",
          "SystemConfig", "coherence_factor", "config_from_dict",
          "draw_angle_tuples", "energy_efficiency", "exhaustive_phase_search",
          "load_config", "los_cascade_gain", "max_se_upper_bound",
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
