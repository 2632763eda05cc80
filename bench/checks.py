"""Output checks. Every sweep point (CSV row) a workload asks for either passes
or counts as failed: on a nonzero exit, a missing or extra row, or a value
that disagrees with the reference recorded from the library at commit
d949032 (bench/reference.json).

- regional: the CSV must equal the golden CSV byte for byte, row by row.
- mc: each row is tested against the reference mean and standard deviation
  of its (scheme, K) point, plus the Jensen clause se_mc <= se_ub + z*stderr.
  At the end of a run the rows of each point are pooled and the pooled mean
  and variance are tested again, which gives the test the power to catch a
  small bias or a noisier sampler; a point that fails the pooled test has all
  its rows counted as failed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

# Two-sided threshold in standard errors. A correct sampler crosses it with
# probability ~2e-9 per test, so tens of thousands of row tests per benchmark
# campaign stay clear of false alarms.
Z = 6.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if note:
            self.note(note)

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


def check_regional(returncode: int, csv_text: str | None, golden: str,
                   tally: Tally) -> None:
    """Byte-for-byte comparison, one point per golden data row."""
    want = golden.splitlines()
    if returncode != 0 or csv_text is None:
        tally.add(len(want) - 1, len(want) - 1, f"exit code {returncode}")
        return
    got = csv_text.splitlines()
    if not csv_text.endswith("\n") or got[:1] != want[:1]:
        tally.add(len(want) - 1, len(want) - 1, "header or line ending differs")
        return
    rows = max(len(got), len(want)) - 1
    bad = [i for i in range(1, rows + 1)
           if i >= len(got) or i >= len(want) or got[i] != want[i]]
    tally.add(rows, len(bad),
              f"rows differ from golden: {bad[:5]}" if bad else "")


def _parse_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@dataclass
class _Pool:
    rows: int = 0
    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def mean_var(self) -> tuple[float, float]:
        mean = self.total / self.n
        return mean, max(0.0, (self.total_sq - self.n * mean ** 2) / (self.n - 1))


class McChecker:
    """Statistical checks of sweep-k CSVs against recorded reference points.

    reference: the "points" list of one reference.json mc entry.
    samples: the --samples value of every checked CSV.
    """

    def __init__(self, reference: list[dict], samples: int):
        self.ref = {(p["scheme"], p["var_value"]): p for p in reference}
        self.samples = samples
        self.pools = {key: _Pool() for key in self.ref}

    def check(self, returncode: int, csv_text: str | None, tally: Tally) -> None:
        points = len(self.ref)
        if returncode != 0 or csv_text is None:
            tally.add(points, points, f"exit code {returncode}")
            return
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        seen = set()
        failed = 0
        for row in rows:
            key = (row.get("scheme"), row.get("var_value"))
            if key in seen or key not in self.ref or row.get("var_name") != "K":
                failed += 1
                tally.note(f"unexpected row {row}")
                continue
            seen.add(key)
            problem = self._row_problem(self.ref[key], row)
            if problem:
                failed += 1
                tally.note(f"{key}: {problem}")
            else:
                self._pool(key, row)
        missing = len(self.ref) - len(seen)
        tally.add(points + (len(rows) - len(seen)), failed + missing,
                  f"{missing} rows missing" if missing else "")

    def _row_problem(self, ref: dict, row: dict) -> str:
        n = self.samples
        if row.get("se_ub") != ref["se_ub"]:
            return f"se_ub {row.get('se_ub')} != reference {ref['se_ub']}"
        mean = _parse_float(row.get("se_mc", ""))
        stderr = _parse_float(row.get("se_mc_stderr", ""))
        if mean is None or stderr is None or stderr < 0 or row.get("ee"):
            return f"malformed values {row}"
        sd = ref["std"]
        tol = Z * sd * math.sqrt(1.0 / n + 1.0 / ref["n"])
        if abs(mean - ref["mean"]) > tol:
            return f"se_mc {mean} off reference {ref['mean']} by more than {tol:.3g}"
        if mean > float(ref["se_ub"]) + Z * sd / math.sqrt(n):
            return f"se_mc {mean} above the bound {ref['se_ub']} (Jensen)"
        return ""

    def _pool(self, key, row) -> None:
        n = self.samples
        mean = float(row["se_mc"])
        var = float(row["se_mc_stderr"]) ** 2 * n
        p = self.pools[key]
        p.rows += 1
        p.n += n
        p.total += n * mean
        p.total_sq += (n - 1) * var + n * mean ** 2

    def pooled_spread(self) -> dict:
        """Per-point pooled (sample count, standard deviation) of the run."""
        return {key: (p.n, math.sqrt(p.mean_var()[1]))
                for key, p in self.pools.items() if p.n > 1}

    def finish(self, tally: Tally) -> None:
        """Pooled tests; rows of a failing point are counted as failed."""
        for key, p in self.pools.items():
            if p.n < 2:
                continue
            ref = self.ref[key]
            mean, var = p.mean_var()
            ref_var = ref["std"] ** 2
            mean_tol = Z * ref["std"] * math.sqrt(1.0 / p.n + 1.0 / ref["n"])
            excess = max(ref["kurtosis"] - 1.0, 0.0)
            var_tol = Z * ref_var * math.sqrt(excess / p.n + excess / ref["n"])
            if abs(mean - ref["mean"]) > mean_tol:
                tally.add(0, p.rows, f"{key}: pooled mean {mean:.6g} off "
                          f"reference {ref['mean']:.6g} by more than {mean_tol:.3g}")
            elif abs(var - ref_var) > var_tol:
                tally.add(0, p.rows, f"{key}: pooled variance {var:.4g} off "
                          f"reference {ref_var:.4g} by more than {var_tol:.3g}")
