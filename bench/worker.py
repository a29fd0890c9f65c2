"""One benchmark worker: a fresh interpreter that sets up, then runs passes.

Started by run.py, never by hand. It prints ``ready`` on stdout as soon as
set-up (imports, the smallest-prime-factor table, primes, the workload's
check points) is done; run.py times set-up up to that line. With
``--setup-only`` it then prints the median of three reference samples
(reference.py) and exits; otherwise it runs passes for ``--seconds`` and
writes ``result.json`` into ``--out``.

Each pass is timed step by step with the reference loop sampled between
steps (reference.py); a pass records its raw and its normalized wall and
CPU time. In a traced run the passes alternate untraced and traced, so the
tracing overhead is measured within one process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SETUP_REFERENCE_SAMPLES = 3
MODULES = ("cli", "sieve", "_kernels", "stats", "permtuples", "tori", "bvalues",
           "core", "genfunc", "qseries")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy

    import abundancy

    if Path(abundancy.__file__).resolve().parent != ROOT / "src" / "abundancy":
        print(f"abundancy imported from {abundancy.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    for name in MODULES:
        importlib.import_module(f"abundancy.{name}")
    from abundancy import _kernels, bvalues, core

    core.factorize((1 << 20) - 1)  # fills the smallest-prime-factor table
    core.primes_up_to(10_000)

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = spans.Tracer()
    light = spans.Patch(tracer, spans.PROVENANCE)
    full = spans.Patch(tracer) if args.trace else None
    print("ready", flush=True)
    if args.setup_only:
        # the host's speed right after set-up, sampled in this process
        refs = [reference.sample(reference.MIX[args.workload])[0]
                for _ in range(SETUP_REFERENCE_SAMPLES)]
        print(statistics.median(refs), flush=True)
        return 0

    out = Path(args.out)
    checks = workloads.Checks()
    clear_recursion = getattr(bvalues.b_via_recursion, "cache_clear", None)
    mix = reference.MIX[args.workload]
    passes: list[dict] = []
    errors: list[str] = []
    # a traced run needs two untraced and two traced passes for the overhead
    min_passes = 4 if args.trace else 1
    start = time.perf_counter()
    while True:
        pass_id = len(passes)
        traced = bool(args.trace) and pass_id % 2 == 1
        if clear_recursion is not None:
            clear_recursion()
        # a fresh CLI process starts without garbage; without this, reference
        # cycles left by earlier passes make peak RSS grow with the pass count
        gc.collect()
        pass_dir = out / f"pass{pass_id}"
        pass_dir.mkdir()
        patch = full if traced else light
        patch.install()
        tracer.pass_id = pass_id
        clock = reference.StepClock(mix)
        clock.start()
        try:
            workload.run_pass(pass_dir, checks, clock.lap)
            completed = True
        except Exception:  # a crashing pass is a failed check, and the run goes on
            errors.append(traceback.format_exc())
            completed = False
        clock.stop()
        patch.restore()
        checks("bench.pass_completed", completed, errors[-1] if errors else "")
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append({
            "pass_id": pass_id, "traced": traced,
            "wall_s": clock.wall_s, "cpu_s": clock.cpu_s,
            "norm_wall_s": clock.norm_wall_s, "norm_cpu_s": clock.norm_cpu_s,
            "steps": len(clock.steps),
            "reference_s": statistics.median(w for w, _ in clock.refs),
        })
        elapsed = time.perf_counter() - start
        # a pass with its reference samples takes longer than its steps
        typical = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + typical > args.seconds:
            break

    result = {
        "passes": passes,
        "checks": checks.summary(),
        "errors": errors[:3],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "using_numba": bool(_kernels.USING_NUMBA),
        "table_dtypes": [json.loads(d) for d in
                         sorted({json.dumps(d, sort_keys=True) for d in tracer.table_dtypes})],
        "unwrapped": sorted(set(light.missing) | set(full.missing if full else [])),
    }
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        result["layers"] = spans.layer_metrics(tracer, traced_passes)
        (out / "spans.json").write_text(json.dumps(tracer.spans))
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
