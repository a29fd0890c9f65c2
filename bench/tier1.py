"""Time the Tier-1 test suite once and store the result as a record.

    python3 bench/run.py --tier1

Runs the ROADMAP Tier-1 command with ``--durations`` from the checkout
root and writes bench/out/records/TIER1_<utc>_<commit>.json holding the
total wall time, the pass, fail and skip counts, the failed tests and the
slowest tests. The suite takes minutes, so this is a mode, not a workload.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

DURATIONS = 15
TIMEOUT_S = 3600
_COUNT = re.compile(r"(\d+) (passed|failed|skipped|errors?|xfailed|xpassed|deselected)")
_SLOW = re.compile(r"^\s*([\d.]+)s (call|setup|teardown)\s+(\S+)")


def parse(stdout: str) -> dict:
    counts = {}
    summary = ""
    for line in stdout.splitlines():
        if re.search(r"\bin [\d.]+s\b", line) and _COUNT.search(line):
            summary = line.strip("= ")
    for n, kind in _COUNT.findall(summary):
        counts["errors" if kind.startswith("error") else kind] = int(n)
    slowest = [
        {"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
        for m in map(_SLOW.match, stdout.splitlines()) if m
    ]
    failed = [line.split()[1] for line in stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return {"summary": summary, "counts": counts, "failed_tests": failed,
            "slowest": slowest[:DURATIONS]}


def main(root: Path, out: Path) -> int:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--durations={DURATIONS}"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                         timeout=TIMEOUT_S)
    wall = time.perf_counter() - t0
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    commit = head.stdout.strip() if head.returncode == 0 else None
    utc = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H%M%SZ")
    record = {
        "tier1_record": 1,
        "utc": utc,
        "commit": commit,
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors "
                   f"--durations={DURATIONS}",
        "exit_code": res.returncode,
        "wall_s": wall,
        **parse(res.stdout),
    }
    records = out / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"TIER1_{utc}_{(commit or 'nogit')[:10]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"tier-1: {record['summary']} (wall {wall:.1f} s) -> {path}", file=sys.stderr)
    for slow in record["slowest"][:5]:
        print(f"  {slow['seconds']:8.2f}s {slow['phase']:<8} {slow['test']}", file=sys.stderr)
    print(json.dumps(record))
    return 0
