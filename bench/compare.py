"""Compare two sets of benchmark records, per workload and end-to-end metric.

    python3 bench/run.py --compare BASE NEW

BASE and NEW are record files, or directories of the records that runs of
the two commits wrote to bench/out/records/. Only untraced, full-size
records are used. Each (workload, metric) row is
labelled against the metric's bound in BENCHMARK.json:

* worse: NEW's median is worse than BASE's by more than the bound;
* improved: NEW wins at least nine tenths of the run pairs and its median
  is better by more than BASE's quartile spread;
* unresolved: a side's quartile spread, as a share of its median, is wider
  than the bound, unless every NEW run is better than every BASE run;
* unchanged: otherwise.

Runs are paired by seed when both sides ran the same seeds, else in order.
Every ratio is printed with its base.

The host's speed can drift by more than the bounds within minutes, so run
the two sides interleaved (base and new in turn, alternating which goes
first). A workload whose base and new runs do not overlap in time is
flagged, because drift between the two sets then reads as a change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = []
    for f in files:
        try:
            rec = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(rec, dict) and rec.get("benchmark_record") and not rec["trace"] \
                and not rec["smoke"]:
            out.append(rec)
    return out


def _spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance) of a list of run values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1


def _pairs(base: list[dict], new: list[dict], name: str) -> list[tuple[float, float]]:
    value = lambda r: r["metrics"][name]["value"]  # noqa: E731
    bseeds = {r["seed"]: r for r in base}
    nseeds = {r["seed"]: r for r in new}
    if set(bseeds) == set(nseeds) and len(bseeds) == len(base) == len(new):
        return [(value(bseeds[s]), value(nseeds[s])) for s in sorted(bseeds)]
    return list(zip(map(value, base), map(value, new)))


def _interleaved(base: list[dict], new: list[dict]) -> bool:
    """Whether the two sides' run times overlap (UTC stamps sort as text)."""
    bt, nt = [r["utc"] for r in base], [r["utc"] for r in new]
    return min(bt) <= max(nt) and min(nt) <= max(bt)


def judge(base: list[dict], new: list[dict], metric: dict) -> dict:
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bvals = [r["metrics"][name]["value"] for r in base]
    nvals = [r["metrics"][name]["value"] for r in new]
    bmed, bspread = _spread(bvals)
    nmed, nspread = _spread(nvals)
    worse_share = sign * (nmed - bmed) / bmed if bmed else 0.0
    pairs = _pairs(base, new, name)
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    all_better = all(sign * (n - b) < 0 for b in bvals for n in nvals)
    wide = (bmed and bspread / abs(bmed) > bound) or (nmed and nspread / abs(nmed) > bound)
    if wide:
        label = "improved" if all_better else "unresolved"
    elif worse_share > bound:
        label = "worse"
    elif wins >= 0.9 * len(pairs) and sign * (bmed - nmed) > bspread:
        label = "improved"
    else:
        label = "unchanged"
    return {
        "metric": name, "unit": metric["unit"], "label": label,
        "base_median": bmed, "new_median": nmed,
        "ratio": nmed / bmed if bmed else None,
        "base_spread": bspread, "new_spread": nspread, "bound": bound,
        "wins": wins, "pairs": len(pairs), "base_runs": len(bvals), "new_runs": len(nvals),
    }


def main(base_path: str, new_path: str, spec: dict) -> int:
    base, new = load(base_path), load(new_path)
    rows = []
    for wl in [w["name"] for w in spec["workloads"]]:
        b = [r for r in base if r["workload"] == wl]
        n = [r for r in new if r["workload"] == wl]
        if not b or not n:
            print(f"{wl}: no records on {'base' if not b else 'new'} side", file=sys.stderr)
            continue
        interleaved = _interleaved(b, n)
        if not interleaved:
            print(f"{wl}: base and new runs do not overlap in time; host drift between "
                  f"the two sets is not controlled", file=sys.stderr)
        for metric in spec["end_to_end"]:
            rows.append({"workload": wl, "interleaved": interleaved, **judge(b, n, metric)})
    for r in rows:
        ratio = f"{r['ratio']:.3f}x of base {r['base_median']:.6g} {r['unit']}" \
            if r["ratio"] is not None else "base is 0"
        share = lambda spread, med: f"{spread / abs(med):.1%}" if med else "n/a"  # noqa: E731
        print(f"{r['workload']:<8} {r['metric']:<12} {r['label']:<10} {ratio}; "
              f"new {r['new_median']:.6g}; quartile spread base "
              f"{share(r['base_spread'], r['base_median'])} new "
              f"{share(r['new_spread'], r['new_median'])} (bound {r['bound']:.1%}); "
              f"wins {r['wins']}/{r['pairs']}; runs {r['base_runs']} vs {r['new_runs']}")
    print(json.dumps({"comparison": rows}))
    return 0 if rows else 1
