"""Benchmark of the ris-subarray CLI, end to end and by layer.

    python3 bench/run.py --workload mc-ref --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seconds 27      # everything

--trace 0 times fresh CLI processes and prints the end-to-end metrics.
--trace 1 runs the same argv in-process through ris_subarray.cli.main with
the library wrapped by the span tracer, and prints the per-layer metrics.
Either way every CSV is checked, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned to one thread before numpy can load, here
# and in every child. Unpinned, the 1024x64 cascade gemv swings from ~31 us to
# ~4 ms depending on thread wake-up, which would drown every other effect.
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "bench"
sys.path.insert(0, str(BENCH))

from checks import McChecker, Tally, check_regional  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import (WORKLOADS, cli_seeds, invocation_argvs,  # noqa: E402
                       setup_argv)

# What the installed `ris-subarray` console script runs.
CLI_PRELUDE = ("import sys; from ris_subarray.cli import entry; "
               "sys.argv[0] = 'ris-subarray'; entry()")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ris_subarray.cli; "
                "print(time.perf_counter() - t)")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_PERCENTILE = 70
# The p70 has ten samples beyond it from 34 samples on. A run in a slow phase
# of the box goes on past --seconds to reach that, up to MAX_OVERRUN times
# --seconds, so the length of a run stays bounded.
MIN_INVOCATIONS = 34
MAX_OVERRUN = 1.4
TARGET_STDERR_BITS = 0.01
# The calibration job: a fresh interpreter that imports numpy, draws Philox
# normals and runs a plain loop, touching nothing of ris_subarray. The box's
# speed swings by 20-50% within minutes (shared host); this job swings with
# it and the program's code cannot move it. Every timed process is paired
# with the calibration job run just before it, and timings are reported as
# (raw / calibration) x CALIBRATION_NOMINAL_S: seconds at the nominal speed.
CALIBRATION_JOB = ("import numpy as np\n"
                   "np.random.Generator(np.random.Philox(key=[1, 2]))"
                   ".standard_normal(600_000)\n"
                   "total = 0\n"
                   "for i in range(150_000):\n"
                   "    total += i * i\n")
# Median wall of the calibration job on the 2-vCPU x86 box the bounds were
# set on.
CALIBRATION_NOMINAL_S = 0.16

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_p70_s", "s"),
    ("samples_per_s", "1/s"),
    ("time_to_0.01bit_s", "s"),
    ("peak_rss_mb", "MB"),
]

_TIMED_SPANS = ["channel.complex_normal", "channel.sample_stream",
                "channel.sample_channels", "metrics.monte_carlo_se",
                "phases.effective_cascade", "phases.coherence_factor",
                "metrics.max_se_upper_bound", "metrics.energy_efficiency",
                "config.validate", "channel.los", "arrays.steering",
                "arrays.offsets", "phases.optimal_phases"]
PER_LAYER = (
    [(f"{s}.calls", "count") for s in _TIMED_SPANS]
    + [(f"{s}.self_s", "s") for s in _TIMED_SPANS]
    + [("channel.normals_drawn", "count"),
       ("channel.bytes_drawn_computed", "B"),
       ("phases.cascade_flops_computed", "flop"),
       ("config.load.self_s", "s"), ("cli.import_s", "s"), ("cli.self_s", "s"),
       ("sweeps.self_s", "s"), ("sweeps.csv.self_s", "s"),
       ("sweeps.pool.self_s", "s"), ("sweeps.points", "count"),
       ("sweeps.points_failed", "count"), ("trace.wall_s", "s"),
       ("trace.overhead_s", "s"), ("trace.unattributed_s", "s")])


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of values at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def environment_record() -> dict:
    """What produced the numbers: code, interpreter, BLAS, cores, thread pins."""
    import numpy as np
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10
                                    ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "child_threads": {k: os.environ[k] for k in sorted(os.environ)
                              if k.endswith("_NUM_THREADS")
                              or k == "VECLIB_MAXIMUM_THREADS"}}


class OutputCheck:
    """Checks every CSV of one workload against bench/reference.json."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.tally = Tally()
        if workload.kind == "mc":
            entry = next(v for v in reference["mc"].values()
                         if v["config"] == workload.config
                         and v["k_grid"] == workload.k_grid)
            self.mc = McChecker(entry["points"], workload.samples)
            self.points = len(entry["points"])
        else:
            self.golden = reference["regional"]["seeds"]
            first = next(iter(self.golden.values()))
            self.points = sum(len(first[k].splitlines()) - 1
                              for k in ("sweep-q", "sweep-n"))
        self.draw_var: list[float] = []   # regional: sum of s_p^2 per invocation

    def check(self, cli_seed: int, results: list[tuple[int, str | None]]) -> None:
        if self.workload.kind == "mc":
            self.mc.check(*results[0], self.tally)
            return
        entry = self.golden[str(cli_seed)]
        spread = 0.0
        for (rc, text), key in zip(results, ("sweep-q", "sweep-n")):
            check_regional(rc, text, entry[key], self.tally)
            spread += sum(s * s for s in entry[f"{key}.draw_std"])
        self.draw_var.append(spread)

    def finish(self) -> None:
        if self.workload.kind == "mc":
            self.mc.finish(self.tally)

    def sum_draw_variance(self) -> float:
        """Sum over points of the per-draw variance s_p^2 behind each value."""
        if self.workload.kind == "mc":
            return sum(s * s for _, s in self.mc.pooled_spread().values())
        return statistics.fmean(self.draw_var)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _spawn(python_args: list[str], env: dict, log) -> tuple[float, int, float]:
    """Run one Python process; return (wall s, exit code, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *python_args],
                            cwd=ROOT, env=env, stdout=log, stderr=log)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _invoke_processes(workload, cli_seed: int, env: dict, log):
    walls, rss, results = 0.0, 0.0, []
    for argv, out in invocation_argvs(workload, cli_seed, str(OUT)):
        Path(out).unlink(missing_ok=True)
        wall, rc, peak = _spawn(["-c", CLI_PRELUDE, *argv], env, log)
        walls += wall
        rss = max(rss, peak)
        results.append((rc, _read(out) if rc == 0 else None))
    return walls, rss, results


def _calibration(env: dict, log) -> float:
    """Wall time of one run of the calibration job."""
    wall, rc, _ = _spawn(["-c", CALIBRATION_JOB], env, log)
    if rc != 0:
        raise RuntimeError(f"calibration job exited {rc}")
    return wall


def run_end_to_end(workload, seed: int, seconds: float, reference: dict):
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    checker = OutputCheck(workload, reference)
    seeds = cli_seeds(workload, seed, [int(s) for s in getattr(checker, "golden", ())])
    setup_cmd = ["-c", CLI_PRELUDE, *setup_argv(workload)]
    setup, setup_raw, walls, walls_raw, rss, calibration = [], [], [], [], [], []
    with open(OUT / f"{workload.name}.log", "w") as log:
        # Warm-up: bytecode caches and the page cache, as an installed CLI has.
        _spawn(setup_cmd, env, log)
        cli_seed = next(seeds)
        checker.check(cli_seed, _invoke_processes(workload, cli_seed, env, log)[2])
        for _ in range(SETUP_REPEATS):
            calibration.append(_calibration(env, log))
            wall, rc, _ = _spawn(setup_cmd, env, log)
            if rc != 0:
                checker.tally.note(f"validate exited {rc}")
                return None, checker, []
            setup.append(wall / calibration[-1] * CALIBRATION_NOMINAL_S)
            setup_raw.append(wall)
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(walls) < MIN_INVOCATIONS
               and time.perf_counter() - start < MAX_OVERRUN * seconds):
            cli_seed = next(seeds)
            calibration.append(_calibration(env, log))
            wall, peak, results = _invoke_processes(workload, cli_seed, env, log)
            checker.check(cli_seed, results)
            walls.append(wall / calibration[-1] * CALIBRATION_NOMINAL_S)
            walls_raw.append(wall)
            rss.append(peak)
    checker.finish()

    draws = checker.points * workload.draws_per_point
    wall_med = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_med,
        "wall_p70_s": percentile(walls, TAIL_PERCENTILE),
        "samples_per_s": draws / wall_med,
        "time_to_0.01bit_s": (wall_med / draws * checker.sum_draw_variance()
                              / TARGET_STDERR_BITS ** 2),
        "peak_rss_mb": statistics.median(rss),
    }
    n = len(walls)
    beyond = n - math.ceil(TAIL_PERCENTILE / 100 * n)
    lines = [
        f"# timings at nominal speed: raw wall / wall of the calibration job "
        f"run just before it x {CALIBRATION_NOMINAL_S} s (calibration job median "
        f"{statistics.median(calibration):.4f} s over {len(calibration)} runs)",
        f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} fresh "
        f"`validate` processes; raw median {statistics.median(setup_raw):.4f} s)",
        f"wall_s = {wall_med:.4f} s (median of {n} invocations; raw median "
        f"{statistics.median(walls_raw):.4f} s)",
        f"wall_p70_s = {metrics['wall_p70_s']:.4f} s (p{TAIL_PERCENTILE} of {n}, "
        f"{beyond} samples beyond it; raw {percentile(walls_raw, TAIL_PERCENTILE):.4f} s)",
        f"samples_per_s = {metrics['samples_per_s']:.6g} 1/s ({draws} "
        f"{'MC samples' if workload.kind == 'mc' else 'angle-draw bound evaluations'}"
        f" per invocation)",
        f"time_to_0.01bit_s = {metrics['time_to_0.01bit_s']:.6g} s (every one of "
        f"{checker.points} points to a {TARGET_STDERR_BITS}-bit standard error)",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB (median of {n}, max "
        f"{max(rss):.2f} MB)",
    ]
    return metrics, checker, lines


def _in_process(cli_main, argv_outs, tracer=None):
    """Run argvs through cli.main; return (wall s, [(exit code, csv)])."""
    results = []
    sink = io.StringIO()
    t0 = time.perf_counter()
    for argv, out in argv_outs:
        Path(out).unlink(missing_ok=True)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if tracer is None:
                    rc = cli_main(argv)
                else:
                    with tracer.span("cli"):
                        rc = cli_main(argv)
            except Exception as exc:   # recorded as a failed invocation
                print(f"error: {exc!r}", file=sys.stderr)
                rc = 1
        results.append((rc, out))
    wall = time.perf_counter() - t0
    return wall, [(rc, _read(out) if rc == 0 else None) for rc, out in results]


def run_traced(workload, seed: int, seconds: float, reference: dict):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imports = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                                    env=env, capture_output=True, text=True,
                                    check=True).stdout)
               for _ in range(IMPORT_REPEATS)]
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    from ris_subarray import cli

    checker = OutputCheck(workload, reference)
    seeds = cli_seeds(workload, seed, [int(s) for s in getattr(checker, "golden", ())])
    tracer = Tracer()
    plain, traced, unattributed = [], [], []
    per_call: dict[str, list[float]] = {}
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for use_tracer in (False, True):
            cli_seed = next(seeds)
            argv_outs = invocation_argvs(workload, cli_seed, str(OUT))
            if not use_tracer:
                wall, results = _in_process(cli.main, argv_outs)
                plain.append(wall)
            else:
                first, before = len(tracer.start), dict(tracer.counters)
                tracer.install()
                try:
                    wall, results = _in_process(cli.main, argv_outs, tracer)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                spans = self_times(tracer.names, tracer.name_id, tracer.parent,
                                   tracer.start, tracer.end, first)
                unattributed.append(wall - sum(s for _, s in spans.values()))
                if first:   # keep the spans of the first traced invocation only
                    tracer.truncate(first)
                sample = {f"{k}.calls": c for k, (c, _) in spans.items()}
                sample.update({f"{k}.self_s": s for k, (_, s) in spans.items()})
                sample.update({k: v - before.get(k, 0.0)
                               for k, v in tracer.counters.items()})
                for name, _ in PER_LAYER:
                    per_call.setdefault(name, []).append(sample.get(name, 0))
            checker.check(cli_seed, results)
    checker.finish()
    tracer.save(OUT / f"{workload.name}.spans.tsv")

    metrics = {name: statistics.median(per_call[name]) for name, _ in PER_LAYER
               if name in per_call}
    metrics.update({
        "cli.import_s": statistics.median(imports),
        "sweeps.points_failed": checker.tally.failed,
        "trace.wall_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.unattributed_s": statistics.median(unattributed),
    })
    channel = sum(v for k, v in metrics.items()
                  if k.startswith("channel.") and k.endswith(".self_s"))
    lines = [f"{name} = {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER]
    lines.append(f"# per-invocation medians over {len(traced)} traced and "
                 f"{len(plain)} untraced in-process invocations; channel.* self "
                 f"time is {channel / metrics['trace.wall_s']:.1%} of traced wall")
    return metrics, checker, lines


def run_one(name: str, seed: int, seconds: float, trace: bool, reference: dict):
    workload = WORKLOADS[name]
    runner = run_traced if trace else run_end_to_end
    metrics, checker, lines = runner(workload, seed, seconds, reference)
    tally = checker.tally
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": metrics is not None and tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
                   if metrics is not None else {},
    }
    return result, lines + [f"# check: {note}" for note in tally.notes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an exception, so children are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    missing = [p for p in ("src/ris_subarray/cli.py", "configs/default.json",
                           "configs/oracle_small.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a ris-subarray checkout, missing {missing}",
              file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment_record()

    if args.workload != "all":
        jobs = [(args.workload, bool(args.trace))]
    else:
        jobs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    results = {}
    for name, trace in jobs:
        print(f"# workload={name} seed={args.seed} seconds={args.seconds} "
              f"trace={int(trace)}", flush=True)
        print(f"# env {json.dumps(env, sort_keys=True)}", flush=True)
        result, lines = run_one(name, args.seed, args.seconds, trace, reference)
        print("\n".join(lines), flush=True)
        results[f"{name}/trace{int(trace)}"] = result
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": int(trace), "env": env, "result": result}
        (OUT / f"result-{name}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
    if args.workload != "all":
        print(json.dumps(results.popitem()[1]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
