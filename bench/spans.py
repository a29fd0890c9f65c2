"""Spans around the package's public functions, recorded from the benchmark.

The package itself is not changed. A span wrapper replaces a function's
attribute on its defining module and on every module that bound the same
function with a ``from`` import, so calls from one module into another are
seen too. Spans are kept in memory as ``[name, start, end, parent, pass_id]``
and written out when the run ends.

Self time of a span is its duration minus the durations of its direct
children. The layer metrics are per-pass self times, per-pass counts and,
for functions called many times, per-call percentiles.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict

_now = time.perf_counter

# Functions whose per-call times are reported (median and a tail percentile).
PER_CALL = (
    "kernels.orbit_counts", "tori.build_torus", "tori.validate",
    "bvalues.b_via_flags", "core.factorize", "core.divisors", "qseries.qpoch",
)
# A function must run this often per traced pass before per-call times count.
PER_CALL_MIN = 20
_TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)

INT63 = 2**63


class Tracer:
    """In-memory span and counter sink for one worker process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.table_dtypes: list[dict] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.pass_id, name)] += value

    def wrap(self, name, fn, after=None, materialize=False):
        """fn with a span around each call; after(tracer, span, args, kwargs, result)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _now()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                rec[2] = _now()
                stack.pop()
            if after is not None:
                after(self, rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def parent_name(self, rec) -> str | None:
        return self.spans[rec[3]][0] if rec[3] >= 0 else None


# ---------------------------------------------------------------------------
# counters computed after a call returns (outside the span's own interval)

def _file_bytes(path) -> int:
    total = 0
    for p in (str(path), str(path) + ".json"):
        try:
            total += os.path.getsize(p)
        except OSError:
            pass
    return total


def _after_sieve_b(tr, rec, args, kwargs, table):
    dtype = table.metadata.get("creation", {}).get("dtype", "unknown")
    rec[0] = "sieve.sieve_b_int64" if dtype == "int64" else "sieve.sieve_b_exact"
    tr.table_dtypes.append({"ell": table.ell, "nmax": table.nmax, "dtype": dtype})
    tr.count("sieve.entries", table.nmax)
    if dtype != "int64":
        tr.count("sieve.exact_tables")
        if table.nmax and max(table.values) >= INT63:
            tr.count("sieve.exact_needed")


def _after_save(tr, rec, args, kwargs, result):
    tr.count("sieve.bytes_written", _file_bytes(args[1] if len(args) > 1 else kwargs["path"]))


def _after_load(tr, rec, args, kwargs, result):
    tr.count("sieve.bytes_read", _file_bytes(args[0] if args else kwargs["path"]))


def _after_sum(tr, rec, args, kwargs, result):
    tr.count("kernels.elements_summed", len(args[0]))


def _after_orbits(tr, rec, args, kwargs, result):
    tr.count("kernels.orbit_tuples", len(result))


def _after_enumerate(tr, rec, args, kwargs, result):
    tr.count("permtuples.tuples", result.total())


def _after_point(tr, rec, args, kwargs, result):
    # a recursive call of b_via_recursion is part of the point that started it
    if tr.parent_name(rec) != rec[0]:
        tr.count("bvalues.points")


def _error_series_name(tr, rec, args, kwargs, result):
    rec[0] = f"stats.error_series_{kwargs.get('method', 'kahan')}"


# (span name, defining module, attribute, modules that bind it by `from` import,
#  after hook, materialize a generator into a list)
WRAPS = [
    ("cli.main", "cli", "main", (), None, False),
    ("sieve.sieve_b", "sieve", "sieve_b", ("genfunc",), _after_sieve_b, False),
    ("sieve.save_table", "sieve", "save_table", (), _after_save, False),
    ("sieve.load_table", "sieve", "load_table", (), _after_load, False),
    ("kernels.conv_pass", "_kernels", "conv_pass", (), None, False),
    ("kernels.kahan_cumsum", "_kernels", "kahan_cumsum", (), _after_sum, False),
    ("kernels.kahan_sum", "_kernels", "kahan_sum", (), _after_sum, False),
    ("kernels.dd_cumsum", "_kernels", "dd_cumsum", (), _after_sum, False),
    ("kernels.local_moments", "_kernels", "local_moments", (), None, False),
    ("kernels.orbit_counts", "_kernels", "orbit_counts", ("permtuples",),
     _after_orbits, False),
    ("stats.cesaro_mean", "stats", "cesaro_mean", (), None, False),
    ("stats.error_series", "stats", "error_series", (), _error_series_name, False),
    ("stats.empirical_moment", "stats", "empirical_moment", (), None, False),
    ("stats.theoretical_moment", "stats", "theoretical_moment", (), None, False),
    ("permtuples.enumerate_A", "permtuples", "enumerate_A", (), _after_enumerate, False),
    ("permtuples.b_from_bruteforce", "permtuples", "b_from_bruteforce", (), None, False),
    ("permtuples.transitive_tuples", "permtuples", "transitive_tuples", ("tori",),
     None, False),
    ("permtuples.bell_transform", "permtuples", "bell_transform", (), None, False),
    ("tori.all_specs", "tori", "all_specs", (), None, True),
    ("tori.spec_count", "tori", "spec_count", (), None, False),
    ("tori.build_torus", "tori", "build_torus", (), None, False),
    ("tori.validate", "tori", "validate", (), None, False),
    ("tori.export_dot", "tori", "export_dot", (), None, False),
    ("tori.double_count_check", "tori", "double_count_check", (), None, False),
    ("bvalues.b_via_flags", "bvalues", "b_via_flags", ("tori",), _after_point, False),
    ("bvalues.b_via_recursion", "bvalues", "b_via_recursion", (), _after_point, False),
    ("bvalues.b_via_multiplicativity", "bvalues", "b_via_multiplicativity", (),
     _after_point, False),
    ("core.factorize", "core", "factorize", ("bvalues",), None, False),
    ("core.divisors", "core", "divisors", ("bvalues", "tori"), None, False),
    ("core.primes_up_to", "core", "primes_up_to", ("stats",), None, False),
    ("genfunc.exp_series", "genfunc", "exp_series", (), None, False),
    ("genfunc.h_vector", "genfunc", "h_vector", (), None, False),
    ("genfunc.partition_numbers", "genfunc", "partition_numbers", (), None, False),
    ("genfunc.cauchy_check", "genfunc", "cauchy_check", (), None, False),
    ("qseries.verify_power_rule", "qseries", "verify_power_rule", (), None, False),
    ("qseries.qpoch", "qseries", "qpoch", ("bvalues",), None, False),
]

# Untraced passes wrap only sieve_b, to record each table's dtype.
PROVENANCE = ("sieve.sieve_b",)


class Patch:
    """Attribute replacements that can be installed and restored per pass."""

    def __init__(self, tracer: Tracer, names=None):
        self.sites: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        for name, home, attr, bound_in, after, materialize in WRAPS:
            if names is not None and name not in names:
                continue
            module = importlib.import_module(f"abundancy.{home}")
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapped = tracer.wrap(name, orig, after, materialize)
            self.sites.append((module, attr, orig, wrapped))
            for other in bound_in:
                mod = importlib.import_module(f"abundancy.{other}")
                if getattr(mod, attr, None) is orig:
                    self.sites.append((mod, attr, orig, wrapped))
                else:
                    self.missing.append(f"{other}.{attr}")

    def install(self) -> None:
        for module, attr, _orig, wrapped in self.sites:
            setattr(module, attr, wrapped)

    def restore(self) -> None:
        for module, attr, orig, _wrapped in self.sites:
            setattr(module, attr, orig)


# ---------------------------------------------------------------------------
# reduction to layer metrics

def self_times(spans, pass_ids) -> tuple[dict, dict, dict]:
    """Per-name total self time, per-name call durations, per-pass top-level time."""
    keep = set(pass_ids)
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    self_total: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    top: dict[int, float] = defaultdict(float)
    for i, rec in enumerate(spans):
        if rec[4] not in keep:
            continue
        dur = rec[2] - rec[1]
        self_total[rec[0]] += dur - child[i]
        durations[rec[0]].append(dur)
        if rec[3] < 0:
            top[rec[4]] += dur
    return self_total, durations, top


def tail_level(calls: float) -> float:
    """Highest percentile with at least ten of ``calls`` beyond it; 0 if none."""
    for level in _TAIL_LEVELS:
        if calls * (100.0 - level) / 100.0 >= 10:
            return level
    return 0.0


def percentile(values: list[float], level: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[int(level * 10) - 1]


def layer_metrics(tracer: Tracer, traced_passes: list[dict]) -> dict[str, float]:
    """Per-pass layer metrics from the traced passes of one run."""
    ids = [p["pass_id"] for p in traced_passes]
    npass = len(ids)
    self_total, durations, top = self_times(tracer.spans, ids)
    out: dict[str, float] = {}
    for name, _home, _attr, _bound, _after, _mat in WRAPS:
        names = [name]
        if name == "sieve.sieve_b":
            names = ["sieve.sieve_b_int64", "sieve.sieve_b_exact"]
        elif name == "stats.error_series":
            names = [f"stats.error_series_{m}" for m in ("kahan", "dd", "naive")]
        for n in names:
            out[f"{n}_s"] = self_total.get(n, 0.0) / npass
    for name in PER_CALL:
        calls = durations.get(name, [])
        per_pass = len(calls) / npass
        out[f"{name}_calls"] = per_pass
        # the level follows the calls of one pass, not of all traced passes,
        # so it does not change with how many passes a run fits
        level = tail_level(per_pass) if per_pass >= PER_CALL_MIN else 0.0
        out[f"{name}_call_p50_s"] = statistics.median(calls) if level else 0.0
        out[f"{name}_call_tail_s"] = percentile(calls, level) if level else 0.0
        out[f"{name}_call_tail_pct"] = level
    counts: dict[str, float] = defaultdict(float)
    for (pid, name), value in tracer.counts.items():
        if pid in ids:
            counts[name] += value
    for name in ("sieve.entries", "sieve.bytes_written", "sieve.bytes_read",
                 "kernels.elements_summed", "kernels.orbit_tuples",
                 "permtuples.tuples", "bvalues.points"):
        out[name] = counts.get(name, 0.0) / npass
    out["tori.specs"] = out["tori.build_torus_calls"]
    # with no exact-path table no exact work was wasted: the best value, 1
    exact = counts.get("sieve.exact_tables", 0.0)
    out["sieve.exact_needed_frac"] = counts.get("sieve.exact_needed", 0.0) / exact if exact else 1.0
    out["bench.uncovered_s"] = sum(p["wall_s"] - top.get(p["pass_id"], 0.0)
                                   for p in traced_passes) / npass
    return out
