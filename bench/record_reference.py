"""Record the reference data the output checks compare against.

    python3 bench/record_reference.py

Writes bench/reference.json from the code currently in src/:

- regional: the sweep-q and sweep-n CSVs of every golden seed, which later
  code must reproduce byte for byte, and the spread of the per-draw bound at
  every point;
- mc: per (scheme, K) point of each Monte Carlo workload, the sample mean,
  standard deviation and kurtosis of the per-sample SE, and the bound column
  as printed. Samples come from seeds at or above REFERENCE_SEED_BASE, which
  no workload uses.

The file pins the behaviour of the code it was recorded from. Re-record only
on purpose, never to make a failing check pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from workloads import (REFERENCE_SEED_BASE, REGIONAL_DRAWS,  # noqa: E402
                       WORKLOADS, invocation_argvs)

GOLDEN_SEEDS = tuple(range(1, 17))
MC_BATCHES = {"mc-ref": (4, 1000), "mc-small": (5, 20_000)}
MC_KURTOSIS_SAMPLES = {"mc-ref": 600, "mc-small": 3000}


def run_cli(argv: list[str]) -> None:
    from ris_subarray.cli import main
    with open(os.devnull, "w") as sink:
        old, sys.stdout = sys.stdout, sink
        try:
            rc = main(argv)
        finally:
            sys.stdout = old
    if rc != 0:
        raise SystemExit(f"CLI failed ({rc}): {argv}")


def regional_draw_std(csv_text: str, seed: int) -> list[float]:
    """Standard deviation of the per-draw bound behind each se_ub value."""
    from dataclasses import replace

    from ris_subarray import (Angles, draw_angle_tuples, load_config,
                              max_se_upper_bound, validate_config)
    base = load_config(ROOT / WORKLOADS["regional"].config)
    tuples = draw_angle_tuples(seed, REGIONAL_DRAWS)
    stds = []
    for row in csv.DictReader(io.StringIO(csv_text)):
        value = float(row["var_value"])
        if row["var_name"] == "Q":
            nx = base.Nx
            l0 = math.isqrt(base.N // int(value))
        else:
            nx = math.isqrt(int(value))
            l0 = 1 if row["scheme"] == "element" else int(row["scheme"].rpartition("_L")[2])
        cfg = validate_config(replace(base, Nx=nx, Ny=nx, Lx=l0, Ly=l0))
        vals = np.array([max_se_upper_bound(replace(cfg, angles=Angles(*map(float, t))))
                         for t in tuples])
        if format(float(np.mean(vals)), ".12g") != row["se_ub"]:
            raise SystemExit(f"per-draw bounds do not reproduce row {row}")
        stds.append(float(np.std(vals, ddof=1)))
    return stds


def record_regional(tmp: str) -> dict:
    seeds = {}
    for seed in GOLDEN_SEEDS:
        entry = {}
        for argv, out in invocation_argvs(WORKLOADS["regional"], seed, tmp):
            run_cli(argv)
            text = Path(out).read_text()
            key = argv[0]
            entry[key] = text
            entry[f"{key}.draw_std"] = regional_draw_std(text, seed)
        seeds[str(seed)] = entry
        print(f"regional seed {seed}: done", file=sys.stderr)
    return {"draws": REGIONAL_DRAWS, "seeds": seeds}


def record_mc(name: str) -> dict:
    from ris_subarray import load_config, sweep_rician_factor
    w = WORKLOADS[name]
    cfg = load_config(ROOT / w.config)
    k_grid = [float(k) for k in w.k_grid.split(",")]
    acc: dict[tuple[str, str], list[float]] = {}
    bounds: dict[tuple[str, str], str] = {}
    batches, size = MC_BATCHES[name]
    for b in range(batches):
        for r in sweep_rician_factor(cfg, k_grid=k_grid, samples=size,
                                     seed=REFERENCE_SEED_BASE + b):
            key = (r.scheme, format(r.var_value, ".12g"))
            n, s, ss = acc.get(key, [0, 0.0, 0.0])
            var = r.se_mc_stderr ** 2 * size
            acc[key] = [n + size, s + size * r.se_mc,
                        ss + (size - 1) * var + size * r.se_mc ** 2]
            bounds[key] = format(r.se_ub, ".12g")
        print(f"{name} batch {b}: done", file=sys.stderr)
    singles: dict[tuple[str, str], list[float]] = {}
    for i in range(MC_KURTOSIS_SAMPLES[name]):
        for r in sweep_rician_factor(cfg, k_grid=k_grid, samples=1,
                                     seed=REFERENCE_SEED_BASE + 10_000 + i):
            singles.setdefault((r.scheme, format(r.var_value, ".12g")),
                               []).append(r.se_mc)
    points = []
    for key, (n, s, ss) in sorted(acc.items()):
        mean = s / n
        var = (ss - n * mean ** 2) / (n - 1)
        x = np.asarray(singles[key])
        d = x - x.mean()
        kurt = float(np.mean(d ** 4) / np.mean(d ** 2) ** 2)
        points.append({"scheme": key[0], "var_value": key[1],
                       "se_ub": bounds[key], "mean": mean,
                       "std": math.sqrt(var), "n": n, "kurtosis": kurt})
    return {"config": w.config, "k_grid": w.k_grid, "points": points}


def main() -> None:
    os.chdir(ROOT)
    tmp = ROOT / ".bench_build" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    ref = {"regional": record_regional(str(tmp)),
           "mc": {name: record_mc(name) for name in MC_BATCHES}}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
