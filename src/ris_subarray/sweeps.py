"""Reproducible SE/EE sweeps: the CSV row and its writer, and sweep-k.

Every sweep evaluates a deterministic list of points in the calling
process and sorts the emitted rows, so the CSV output is byte-identical for
a fixed (config, grid, sample or draw count, seed). sweep-k makes one Monte
Carlo draw for all its points, so each of its rows is a function of the
config at its Rician factor, the sample count and the seed alone. The
regional sweeps, which draw one angle stream for all their points, are in
ris_subarray.regional.
"""

import math
from collections import namedtuple

from .config import (ConfigError, SystemConfig, _as_float, _shown, check_run,
                     check_sequence, check_type)
from .metrics import _bounds_from_etas
from .phases import coherence_factor

DEFAULT_K_GRID = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


# One CSV row, fields in column order; None where a sweep computes none.
SweepResult = namedtuple("SweepResult",
                         "scheme var_name var_value se_mc se_mc_stderr se_ub ee")


def _sorted_rows(rows: list[SweepResult]) -> list[SweepResult]:
    return sorted(rows, key=lambda r: (r.scheme, r.var_value))


def sweep_rician_factor(cfg_base: SystemConfig, k_grid=None,
                        samples: int = 10_000, seed: int = 0
                        ) -> list[SweepResult]:
    """Monte Carlo SE and maximized SE bound versus the Rician factor.

    Both hops share the swept factor (default grid DEFAULT_K_GRID).
    The element scheme is the same computation on the Lx = Ly = 1 copy of
    the config, not a separate formula. Every row comes from one Monte
    Carlo draw of standardized variates, seeded seed, which each Rician
    factor scales: the rows of factor k are bit for bit
    monte_carlo_se(cfg_base.replace(K1=k, K2=k), [subarray eta, element
    eta], samples, seed), whatever the rest of the grid holds. Two rows'
    difference carries the noise of one draw; at K = 0 the law does not
    depend on eta and the two rows of a factor are equal.
    """
    check_type("cfg_base", cfg_base, SystemConfig)
    samples = check_run("samples", samples)
    seed = check_run("seed", seed)
    cfgs = [cfg_base.replace(K1=k, K2=k) for k in check_run(
        "k_grid", DEFAULT_K_GRID if k_grid is None else k_grid)]
    schemes = [("subarray", coherence_factor(cfg_base)),
               ("element", coherence_factor(cfg_base.replace(Lx=1, Ly=1)))]
    points = [(cfg, scheme, eta) for cfg in cfgs for scheme, eta in schemes]
    from .sampler import _monte_carlo_se    # only sweep-k compiles the sampler
    runs = _monte_carlo_se([(cfg, eta) for cfg, _, eta in points], samples, seed)
    return _sorted_rows([SweepResult(scheme, "K", cfg.K1, mean, stderr,
                                     _bounds_from_etas(cfg, [eta])[0], None)
                         for (cfg, scheme, eta), (mean, stderr) in zip(points, runs)])


def write_csv(rows: list[SweepResult], fh) -> None:
    """Write rows, a sequence of at least one SweepResult, sorted by scheme,
    then value, in the fixed CSV schema. The labels must be strings and
    var_value, which orders the rows, a real number other than nan (inf is
    one); each other field is such a number or None."""
    rows = [check_type(f"rows[{i}]", row, SweepResult)
            for i, row in enumerate(check_sequence("rows", rows, "SweepResult rows"))]
    for i, row in enumerate(rows):
        for field, value in row._asdict().items():
            if field in ("scheme", "var_name"):
                rule, ok = "a string", isinstance(value, str)
            else:
                optional = field != "var_value"
                rule = "a real number other than nan" + optional * ", or None"
                ok = not math.isnan(_as_float(value)) or optional and value is None
            if not ok:
                raise ConfigError(f"rows[{i}].{field} must be {rule}, got {_shown(value)}")
    fh.write("".join(",".join(map(_fmt, r)) + "\n"
                     for r in [SweepResult._fields, *_sorted_rows(rows)]))


def _fmt(value) -> str:
    # The sweeps' own labels never need quoting; a caller's label that does
    # is quoted as RFC 4180 asks.
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return ("" if value is None else value if isinstance(value, str)
            else format(float(value), ".12g"))
