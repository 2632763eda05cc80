"""Benchmark workloads: which CLI invocations each one runs.

Every workload is a closed loop of fresh `ris-subarray` processes, one
invocation after the other. The workload seed (the benchmark's --seed) picks
the CLI `--seed` of every invocation; the CLI itself only sees the argv.

Sizes are chosen so one invocation takes about half a second on a 2-core
x86 box with BLAS pinned to one thread (mc-ref: 0.6 s). With the calibration
job run before each one, a 27 s run holds 34-50 invocations, enough for a
70th percentile with ten samples beyond it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_CONFIG = "configs/default.json"
SMALL_CONFIG = "configs/oracle_small.json"

MC_REF_K_GRID = "0,10,100"
MC_REF_SAMPLES = 16
MC_SMALL_K_GRID = "0,1,2,5,10,20,50,100"  # the CLI default grid, spelled out
MC_SMALL_SAMPLES = 250
REGIONAL_DRAWS = 250

# CLI seeds of the Monte Carlo workloads come from [1, 2**31); the reference
# statistics were recorded at seeds from 2**31 upward, which no workload uses.
MC_SEED_RANGE = (1, 2 ** 31)
REFERENCE_SEED_BASE = 2 ** 31


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "mc" (sweep-k) or "regional" (sweep-q + sweep-n)
    config: str          # config path relative to the repository root
    why: str
    k_grid: str = ""
    samples: int = 0
    workers: int = 1

    @property
    def draws_per_point(self) -> int:
        """Monte Carlo samples (mc) or angle draws (regional) per point."""
        return self.samples if self.kind == "mc" else REGIONAL_DRAWS


WORKLOADS = {w.name: w for w in (
    Workload("mc-ref", "mc", DEFAULT_CONFIG,
             "sweep-k at the reference size (N=1024, M=64): the full-matrix "
             "channel draw dominates",
             k_grid=MC_REF_K_GRID, samples=MC_REF_SAMPLES),
    Workload("mc-small", "mc", SMALL_CONFIG,
             "sweep-k at N=16, M=4: fixed per-sample cost of the Monte Carlo "
             "loop dominates",
             k_grid=MC_SMALL_K_GRID, samples=MC_SMALL_SAMPLES),
    Workload("regional", "regional", DEFAULT_CONFIG,
             "sweep-q and sweep-n: closed-form bound over angle draws, no "
             "random channels"),
    Workload("mc-par", "mc", DEFAULT_CONFIG,
             "mc-ref with --workers 2: the only path through the sweeps "
             "process pool",
             k_grid=MC_REF_K_GRID, samples=MC_REF_SAMPLES, workers=2),
)}


def cli_seeds(workload: Workload, seed: int, golden_seeds=()):
    """Endless sequence of CLI seeds for successive invocations.

    Monte Carlo workloads draw fresh seeds, so every invocation adds
    independent samples. The regional workload cycles through the seeds that
    have a golden CSV, in an order set by the workload seed.
    """
    rng = random.Random(f"{workload.name}:{int(seed)}")
    if workload.kind == "mc":
        while True:
            yield rng.randrange(*MC_SEED_RANGE)
    order = sorted(golden_seeds)
    rng.shuffle(order)
    while True:
        yield from order


def invocation_argvs(workload: Workload, cli_seed: int, out_dir: str
                     ) -> list[tuple[list[str], str]]:
    """(CLI argv, CSV path) of every process one invocation runs."""
    common = ["--config", workload.config, "--seed", str(cli_seed),
              "--workers", str(workload.workers)]
    if workload.kind == "mc":
        out = f"{out_dir}/{workload.name}-k.csv"
        return [(["sweep-k", *common, "--k-grid", workload.k_grid,
                  "--samples", str(workload.samples), "--out", out], out)]
    draws = ["--draws", str(REGIONAL_DRAWS)]
    out_q = f"{out_dir}/{workload.name}-q.csv"
    out_n = f"{out_dir}/{workload.name}-n.csv"
    return [(["sweep-q", *common, *draws, "--out", out_q], out_q),
            (["sweep-n", *common, *draws, "--out", out_n], out_n)]


def setup_argv(workload: Workload) -> list[str]:
    """The fresh-process set-up probe: validate the workload's config."""
    return ["validate", "--config", workload.config]
