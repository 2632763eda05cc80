"""In-process span tracer for the per-layer run.

The tracer replaces library functions with wrappers that record a span
(name, start, end, parent) per call. A function is wrapped at every module
attribute that refers to it, because modules import functions by name: the
Monte Carlo loop calls `ris_subarray.metrics.sample_channels`, not
`ris_subarray.channel.sample_channels`. Spans live in flat arrays in memory;
the caller computes self times from them and writes them out at the end.

Nothing in the library is edited; `uninstall()` restores every attribute.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from array import array
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

# Span name -> functions (module, attribute) it covers. A missing attribute is
# skipped, so the tracer keeps working when a later version drops a function;
# the span then simply records no calls.
SPANS = {
    "config.load": [("cli", "_load"), ("config", "load_config"),
                    ("config", "config_from_dict")],
    "config.validate": [("config", "validate_config")],
    "arrays.steering": [("arrays", "ula_steering"), ("arrays", "upa_steering")],
    "arrays.offsets": [("arrays", "arrival_phase_offsets"),
                       ("arrays", "departure_phase_offsets")],
    "channel.los": [("channel", "los_bs_to_ris"), ("channel", "los_ris_to_user")],
    "channel.complex_normal": [("channel", "complex_normal")],
    "channel.sample_stream": [("channel", "sample_stream")],
    "channel.sample_channels": [("channel", "sample_channels")],
    "phases.optimal_phases": [("phases", "optimal_phases")],
    "phases.coherence_factor": [("phases", "coherence_factor")],
    "phases.effective_cascade": [("phases", "effective_cascade")],
    "metrics.max_se_upper_bound": [("metrics", "max_se_upper_bound")],
    "metrics.energy_efficiency": [("metrics", "energy_efficiency")],
    "metrics.monte_carlo_se": [("metrics", "monte_carlo_se")],
    "sweeps": [("sweeps", "sweep_rician_factor"),
               ("sweeps", "sweep_subarray_count"), ("sweeps", "sweep_ris_size")],
    "sweeps.csv": [("sweeps", "write_csv")],
}
MODULES = ("config", "arrays", "channel", "phases", "metrics", "sweeps", "cli")
PACKAGE = "ris_subarray"


def _complex_normal_count(counters, args, kwargs, result) -> None:
    normals = 2 * result.size      # real and imaginary part of each entry
    counters["channel.normals_drawn"] += normals
    counters["channel.bytes_drawn_computed"] += 8 * normals


def _cascade_count(counters, args, kwargs, result) -> None:
    H1 = args[3] if len(args) > 3 else kwargs["H1"]
    counters["phases.cascade_flops_computed"] += 8 * H1.size  # complex MAC = 8 flops


def _points_count(counters, args, kwargs, result) -> None:
    counters["sweeps.points"] += len(result)


COUNTERS = {
    "channel.complex_normal": _complex_normal_count,
    "phases.effective_cascade": _cascade_count,
    "sweeps": _points_count,
}


class Tracer:
    """Records spans into flat arrays; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:      # inside a forked pool worker
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result
        return wrapper

    def _traced_pool(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Parent-side span from pool start to the end of shutdown."""

            def __enter__(self):
                self._bench_span = tracer.open("sweeps.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._bench_span)
        return TracedPool

    def install(self) -> None:
        """Wrap every lookup site of every traced function in the package."""
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        replacements = {id(ProcessPoolExecutor): (ProcessPoolExecutor,
                                                  self._traced_pool())}
        for span, targets in SPANS.items():
            for mod_name, attr in targets:
                fn = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"),
                             attr, None)
                if fn is not None:
                    replacements[id(fn)] = (fn, self.wrap(span, fn,
                                                          COUNTERS.get(span)))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def truncate(self, length: int) -> None:
        """Forget every span from index length on."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[length:]

    def save(self, path) -> None:
        """Write every span as tab-separated name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}"
                         f"\t{self.end[i]:.9f}\t{self.parent[i]}\n")


def self_times(names, name_id, parent, start, end, first: int = 0
               ) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self time) over the spans from index first on.

    A span's self time is its duration minus the part of it that its
    children cover (overlapping children are counted once).
    """
    last = len(start)
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(first, last):
        if parent[i] >= first:
            children[parent[i]].append(i)
    out: dict[str, list] = {}
    for i in range(first, last):
        covered, reach = 0.0, start[i]
        for c in sorted(children[i], key=lambda c: start[c]):
            lo, hi = max(start[c], reach), min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls_self = out.setdefault(names[name_id[i]], [0, 0.0])
        calls_self[0] += 1
        calls_self[1] += (end[i] - start[i]) - covered
    return {k: (v[0], v[1]) for k, v in out.items()}
