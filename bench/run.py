"""Benchmark of the abundancy package: three workloads, end to end and per layer.

Run one measurement (the last stdout line is one JSON object):

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off. Their times are normalized by a fixed reference loop
sampled between the steps of a pass and after every set-up (reference.py),
so the host's drifting speed cancels; the record keeps the raw times too.
``--trace 1`` reports its per-layer metrics, from passes with spans
around the package's public functions; those runs alternate untraced and
traced passes, so the tracing overhead is measured too.

Each run writes a full record (provenance, every pass, every named check,
quartiles) to bench/out/records/. Other modes:

    python3 bench/run.py --selftest            # reduced-size run of each workload
    python3 bench/run.py --compare BASE NEW    # two sets of records, per workload
    python3 bench/run.py --tier1               # time the Tier-1 test suite once

The package is imported from src/ of the checkout that holds this file;
without it the benchmark refuses to run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 7
COLD_START_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
READY_TIMEOUT_S = 60
# A pass that starts just before the deadline may run past it by one pass.
WORKER_GRACE_S = 120
LAYERS = ("cli", "sieve", "kernels", "stats", "permtuples", "tori", "bvalues",
          "core", "genfunc", "qseries")
CHECK_LAYERS = ("cli", "sieve", "stats", "permtuples", "tori", "bvalues",
                "genfunc", "qseries")


class BenchError(RuntimeError):
    """The benchmark itself could not produce a valid result."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def worker_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ABUNDANCY_CACHE_DIR"] = str(run_dir / "cache")
    env["TMPDIR"] = str(run_dir)
    env["PYTHONHASHSEED"] = "0"
    # NumPy asks for transparent huge pages on arrays of 4 MB and more;
    # whether the kernel has them free varies from minute to minute, and
    # peak RSS with it (199 or 216 MB for the same tables run)
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time (start to 'ready')."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"worker did not get ready (exit code {proc.poll()})")
    except BaseException:
        _kill(proc)
        raise
    return proc, setup


def setup_sample(argv: list[str], env: dict) -> tuple[float, float]:
    """Set-up time of one ``--setup-only`` worker, and the reference time it
    sampled right after its set-up, in its own process and so on the same
    CPU."""
    proc, secs = start_worker(argv + ["--setup-only"], env)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        proc.wait(timeout=READY_TIMEOUT_S)
    finally:
        _kill(proc)
        proc.stdout.close()
    try:
        return secs, float(line)
    except ValueError:
        raise BenchError(f"worker printed no reference time: {line[:80]!r}") from None


def cold_start_s(env: dict) -> float:
    samples = []
    for _ in range(COLD_START_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "abundancy.cli", "--help"], env=env,
                       cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _git(*args: str) -> str | None:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(seed: int, result: dict) -> dict:
    # only a repository rooted at this checkout counts, not an enclosing one
    in_repo = (ROOT / ".git").exists()
    status = _git("status", "--porcelain") if in_repo else None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": (status != "") if status is not None else None,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "using_numba": result["using_numba"],
        "kernel_path": "numba" if result["using_numba"] else "numpy",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "seed": seed,
        "table_dtypes": result["table_dtypes"],
        "unwrapped_bindings": result["unwrapped"],
    }


def run(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """One benchmark run: set-up samples, then one worker running passes."""
    spec = load_spec()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp"))
    try:
        env = worker_env(run_dir)
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--out", str(run_dir)] + (["--smoke"] if smoke else [])
        samples = [setup_sample(argv, env) for _ in range(SETUP_SAMPLES)]
        # the measuring worker's own set-up is kept raw only: it starts its
        # passes at once, so no clean reference sample follows it
        proc, worker_setup = start_worker(argv, env)
        try:
            code = proc.wait(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ran longer than {seconds + WORKER_GRACE_S} s")
        finally:
            _kill(proc)
            proc.stdout.close()
        if code != 0 or not (run_dir / "result.json").exists():
            raise BenchError(f"worker exited with code {code}")
        result = json.loads((run_dir / "result.json").read_text())
        cold = cold_start_s(env) if trace else None
        record = make_record(spec, workload, seed, seconds, trace, smoke,
                             samples, worker_setup, result, cold)
        write_record(record, run_dir / "spans.json" if trace else None)
        return record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def make_record(spec, workload, seed, seconds, trace, smoke, samples, worker_setup,
                result, cold) -> dict:
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    checks = result["checks"]
    attempted = sum(c["attempted"] for c in checks.values())
    failed_all = sum(c["failed"] for c in checks.values())
    failed = sum(c["failed"] for c in checks.values() if not c["known_defect"])

    setup = [secs for secs, _ in samples]
    setup_refs = [ref for _, ref in samples]
    refs = setup_refs + [p["reference_s"] for p in passes]
    # A set-up is one piece of under a second, and the reference sampled
    # beside it tracks it less well than its own noise; so every set-up is
    # scaled by the run's median reference sample (set-up workers' and
    # passes'), which follows the drift from run to run.
    run_reference = statistics.median(refs)
    nominal = reference.nominal_s(reference.MIX[workload])
    norm_setup = [s * nominal / run_reference for s in setup]
    e2e = {
        "setup_s": quartiles(norm_setup),
        "wall_s": quartiles([p["norm_wall_s"] for p in plain]),
        "cpu_s": quartiles([p["norm_cpu_s"] for p in plain]),
        "peak_rss_mb": quartiles([result["peak_rss_mb"]]),
        "pass_frac": quartiles([(attempted - failed_all) / attempted]),
    }
    raw = {
        "setup_s": quartiles(setup),
        "wall_s": quartiles([p["wall_s"] for p in plain]),
        "cpu_s": quartiles([p["cpu_s"] for p in plain]),
        "reference_s": quartiles(refs),
    }
    record = {
        "benchmark_record": 1,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "provenance": provenance(seed, result),
        "setup_samples_s": setup,
        "worker_setup_s": worker_setup,
        "setup_reference_s": setup_refs,
        "norm_setup_samples_s": norm_setup,
        "reference_mix": list(reference.MIX[workload]),
        "reference_nominal_s": nominal,
        "passes": passes,
        "end_to_end": e2e,
        "raw": raw,
        "fail_frac": failed_all / attempted,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "failed_known_defects": failed_all - failed,
        "correct": failed == 0,
        "errors": result["errors"],
    }
    if trace:
        layers = dict(result["layers"])
        npass = len(passes)
        for layer in CHECK_LAYERS:
            layers[f"{layer}.failed"] = sum(
                c["failed"] for name, c in checks.items() if name.startswith(layer + ".")
            ) / npass
        layers["cli.cold_start_s"] = cold
        # passes alternate untraced, traced; each pair gives one overhead
        # sample, from normalized times so that host drift cancels
        overhead = [t["norm_wall_s"] - u["norm_wall_s"]
                    for u, t in zip(passes[::2], passes[1::2])]
        layers["bench.untraced_wall_s"] = raw["wall_s"]["median"]
        layers["bench.traced_wall_s"] = statistics.median(p["wall_s"] for p in passes
                                                          if p["traced"])
        layers["bench.reference_s"] = raw["reference_s"]["median"]
        layers["bench.trace_overhead_s"] = statistics.median(overhead)
        layers["bench.trace_overhead_range_s"] = max(overhead) - min(overhead)
        record["per_layer"] = layers
        record["layer_shares"] = layer_shares(layers)
    record["metrics"] = declared_metrics(spec, record)
    return record


def layer_shares(layers: dict) -> dict:
    """Each layer's self time per pass as a share of the traced pass wall time."""
    wall = layers["bench.traced_wall_s"]
    times = {k: v for k, v in layers.items()
             if k.endswith("_s") and "_call_" not in k and k.split(".")[0] in LAYERS
             and k != "cli.cold_start_s"}
    by_layer = {layer: sum(v for k, v in times.items() if k.startswith(layer + "."))
                for layer in LAYERS}
    by_layer["uncovered"] = layers["bench.uncovered_s"]
    top = sorted(times.items(), key=lambda kv: -kv[1])[:8]
    return {
        "layers": {k: v / wall for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])},
        "top_functions": {k: v / wall for k, v in top},
    }


def declared_metrics(spec: dict, record: dict) -> dict:
    """The metrics BENCHMARK.json declares for this trace mode, by name and unit."""
    if record["trace"]:
        declared, values = spec["per_layer"], record["per_layer"]
    else:
        declared = spec["end_to_end"]
        values = {k: v["median"] for k, v in record["end_to_end"].items()}
    names = {m["name"] for m in declared}
    if names != set(values):
        raise BenchError(f"metrics differ from BENCHMARK.json: missing "
                         f"{sorted(names - set(values))}, undeclared "
                         f"{sorted(set(values) - names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def write_record(record: dict, spans: Path | None) -> Path:
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    sha = (record["provenance"]["commit"] or "nogit")[:10]
    stem = (f"BENCH_{record['utc'].replace(':', '')}_{sha}_{record['workload']}"
            f"_s{record['seed']}_t{record['trace']}")
    path = records / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans is not None and spans.exists():
        shutil.copyfile(spans, records / f"{stem}.spans.json")
    return path


def summarize(record: dict) -> str:
    e2e = record["end_to_end"]
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']} "
             f"passes={len(record['passes'])} checks={record['attempted']} "
             f"failed={record['failed']} known-defect failures={record['failed_known_defects']} "
             f"kernel path={record['provenance']['kernel_path']}"]
    for name, q in e2e.items():
        lines.append(f"  {name:<12} median {q['median']:.6g}  q1 {q['q1']:.6g}  "
                     f"q3 {q['q3']:.6g}  n={q['n']}")
    lines.append("  raw (not normalized): " + ", ".join(
        f"{name} {q['median']:.6g}" for name, q in record["raw"].items()))
    for name, c in record["checks"].items():
        if c["failed"]:
            tag = " (known defect)" if c["known_defect"] else ""
            lines.append(f"  FAILED {name}: {c['failed']}/{c['attempted']}{tag}")
    if "layer_shares" in record:
        shares = record["layer_shares"]["layers"]
        lines.append("  layer shares of traced wall: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.005))
        lines.append(f"  tracing overhead {record['per_layer']['bench.trace_overhead_s']:+.3f} s "
                     f"(range {record['per_layer']['bench.trace_overhead_range_s']:.3f} s "
                     f"over pass pairs)")
    return "\n".join(lines)


def selftest() -> int:
    """Reduced-size runs of every workload, untraced and traced."""
    ok = True
    for name in [w["name"] for w in load_spec()["workloads"]]:
        recs = [run(name, seed=1, seconds=0, trace=t, smoke=True) for t in (0, 1)]
        for rec in recs:
            print(summarize(rec), file=sys.stderr)
        per_pass = [
            {k: (c["attempted"] / len(r["passes"]), c["failed"] / len(r["passes"]))
             for k, c in r["checks"].items()}
            for r in recs
        ]
        same = per_pass[0] == per_pass[1]
        correct = all(r["correct"] for r in recs)
        zero = [k for k, v in recs[0]["metrics"].items() if not v["value"]]
        print(f"selftest {name}: metrics declared; traced and untraced checks "
              f"{'agree' if same else 'DIFFER'}; {'correct' if correct else 'INCORRECT'}; "
              f"end-to-end metrics at 0: {zero or 'none'}", file=sys.stderr)
        ok = ok and same and correct and not zero
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--tier1", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "abundancy" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'abundancy'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.compare:
            import compare

            return compare.main(args.compare[0], args.compare[1], load_spec())
        if args.tier1:
            import tier1

            return tier1.main(ROOT, OUT)
        if args.selftest:
            return selftest()
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            ap.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        record = run(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(summarize(record), file=sys.stderr)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
