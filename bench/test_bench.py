"""Tests of the benchmark itself:  python3 -m pytest bench"""

import json
import math
import random
from pathlib import Path

import pytest

import run
from checks import McChecker, Tally, check_regional
from tracing import Tracer, self_times
from workloads import WORKLOADS, cli_seeds, invocation_argvs

HEADER = "scheme,var_name,var_value,se_mc,se_mc_stderr,se_ub,ee\n"
REF = [{"scheme": "element", "var_value": "0", "se_ub": "20", "mean": 19.0,
        "std": 0.5, "n": 100_000, "kurtosis": 3.0},
       {"scheme": "subarray", "var_value": "0", "se_ub": "20", "mean": 18.0,
        "std": 0.25, "n": 100_000, "kurtosis": 3.0}]


def mc_csv(rng, samples, shift=0.0):
    lines = [HEADER]
    for p in REF:
        x = [rng.gauss(p["mean"] + shift * p["std"], p["std"]) for _ in range(samples)]
        mean = sum(x) / samples
        sd = math.sqrt(sum((v - mean) ** 2 for v in x) / (samples - 1))
        lines.append(f"{p['scheme']},K,0,{mean:.12g},{sd / math.sqrt(samples):.12g},"
                     f"{p['se_ub']},\n")
    return "".join(lines)


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping: union 5),
    # a has child c [2, 3]; d [12, 13] is a second root.
    names = ["root", "a", "b", "c"]
    name_id = [0, 1, 3, 2, 0]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 3.0, 12.0]
    end = [10.0, 4.0, 3.0, 6.0, 13.0]
    out = self_times(names, name_id, parent, start, end)
    assert out["root"] == (2, pytest.approx(10 - 5 + 1))
    assert out["a"] == (1, pytest.approx(3 - 1))
    assert out["c"] == (1, pytest.approx(1))
    assert out["b"] == (1, pytest.approx(3))
    # a and b overlap on [3, 4]: the root counts it once, a and b each once.
    assert sum(s for _, s in out.values()) == pytest.approx(12)
    # A window starting at span 4 sees only the second root.
    assert self_times(names, name_id, parent, start, end, first=4) == {"root": (1, 1.0)}


def test_regional_check_rejects_one_changed_digit():
    golden = HEADER + "element,Q,1024,,,29.0472185493,0.0624510202728\n" \
                      "subarray,Q,1,,,17.3535095898,0.687812508512\n"
    ok = Tally()
    check_regional(0, golden, golden, ok)
    assert (ok.attempted, ok.failed) == (2, 0)
    bad = Tally()
    check_regional(0, golden.replace("17.3535095898", "17.3535095899"), golden, bad)
    assert (bad.attempted, bad.failed) == (2, 1)
    missing = Tally()
    check_regional(0, golden.rsplit("subarray", 1)[0], golden, missing)
    assert missing.failed == 1


def test_checks_reject_nonzero_exit():
    tally = Tally()
    check_regional(1, None, HEADER + "a\nb\n", tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    checker = McChecker(REF, samples=10)
    checker.check(3, None, tally)
    assert (tally.attempted, tally.failed) == (4, 4)


def test_mc_check_rejects_mean_shifted_by_ten_stderr():
    rng = random.Random(1)
    checker = McChecker(REF, samples=100)
    tally = Tally()
    checker.check(0, mc_csv(rng, 100), tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    lines = mc_csv(rng, 100).splitlines()
    row = lines[1].split(",")
    row[3] = format(float(row[3]) + 10 * REF[0]["std"] / math.sqrt(100), ".12g")
    lines[1] = ",".join(row)
    checker.check(0, "\n".join(lines) + "\n", tally)
    assert (tally.attempted, tally.failed) == (4, 1)


def test_mc_exact_sampler_passes_and_biased_one_fails_pooled():
    rng = random.Random(2)
    exact, biased = McChecker(REF, 50), McChecker(REF, 50)
    t_exact, t_biased = Tally(), Tally()
    for _ in range(60):
        exact.check(0, mc_csv(rng, 50), t_exact)
        # A bias of 1.5 per-row stderrs passes every row test...
        biased.check(0, mc_csv(rng, 50, shift=1.5 / math.sqrt(50)), t_biased)
    assert t_biased.failed == 0
    exact.finish(t_exact)
    biased.finish(t_biased)
    # ...but not the test on the 3000 pooled samples.
    assert t_exact.failed == 0
    assert t_biased.failed == t_biased.attempted == 120


def test_mc_check_rejects_noisier_sampler():
    rng = random.Random(3)
    checker, tally = McChecker(REF, 50), Tally()
    for _ in range(60):
        text = mc_csv(rng, 50)
        rows = [r.split(",") for r in text.splitlines()]
        for r in rows[1:]:
            r[4] = format(float(r[4]) * 1.5, ".12g")
        checker.check(0, "\n".join(",".join(r) for r in rows) + "\n", tally)
    checker.finish(tally)
    assert tally.failed == tally.attempted


def test_workload_seed_changes_argv():
    for w in WORKLOADS.values():
        golden = range(1, 17)
        a = [invocation_argvs(w, s, "out") for s, _ in zip(cli_seeds(w, 1, golden), range(5))]
        b = [invocation_argvs(w, s, "out") for s, _ in zip(cli_seeds(w, 2, golden), range(5))]
        again = [invocation_argvs(w, s, "out") for s, _ in zip(cli_seeds(w, 1, golden), range(5))]
        assert a != b
        assert a == again


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tracer_wraps_every_lookup_site_and_restores_them():
    import sys
    sys.path.insert(0, str(run.ROOT / "src"))
    from ris_subarray import channel, metrics
    original = channel.sample_channels
    assert metrics.sample_channels is original
    tracer = Tracer()
    tracer.install()
    try:
        assert metrics.sample_channels is not original
        assert channel.sample_channels is metrics.sample_channels
    finally:
        tracer.uninstall()
    assert metrics.sample_channels is original and channel.sample_channels is original
