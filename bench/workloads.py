"""The benchmark's workloads: tables, census and oracle.

A workload runs passes. Each pass does a fixed amount of package work and
checks every result against an independent route or against the CLI's own
gate (exit code and ``ok=``). The seed chooses check points only (sampled
n, rationals, contour parameters, which torus goes to DOT), never sizes, so
the work of a pass does not depend on the seed.

A pass calls ``lap()`` between its steps; the worker times each step and
samples the reference loop there (see reference.py). Checks run inside the
steps, so their time is part of the pass.

Package functions are always looked up on their module at call time, so
the span wrappers of a traced pass see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

from abundancy import bvalues, cli, genfunc, permtuples, qseries, sieve, tori

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854
ZETA4 = math.pi**4 / 90
# Mean of the ell = 2 error sequence at N = 10^6 in the published pipeline.
PUBLISHED_MEAN_E = -0.38508487292161986

# Failures that are known defects of the package today. They are counted
# as failed checks (pass_frac) but do not make a run incorrect.
KNOWN_DEFECTS = {
    "cli.verify_theorem_mean_plain_float":
        "verify-theorem prints mean=np.float64(...) instead of a plain float",
    "stats.naive_replica_exact":
        "error_series(method='naive') is 1 ulp away from the published mean",
}


class Checks:
    """Named pass/fail counts; the layer is the name's prefix."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.details: dict[str, str] = {}

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted[name] += 1
        if not ok:
            self.failed[name] += 1
            self.details.setdefault(name, detail[-500:])
        return ok

    def summary(self) -> dict:
        return {
            name: {
                "attempted": self.attempted[name],
                "failed": self.failed[name],
                "known_defect": name in KNOWN_DEFECTS,
                **({"detail": self.details[name]} if name in self.details else {}),
            }
            for name in sorted(self.attempted)
        }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """abundancy.cli.main in-process, with its stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


_NUMBER = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)"


def field(text: str, key: str) -> float:
    """Float printed as key=..., with or without an np.float64(...) wrapper."""
    m = re.search(rf"(?<![\w.]){re.escape(key)}=(?:np\.float64\()?({_NUMBER})", text)
    return float(m.group(1)) if m else math.nan


class Tables:
    """Headline statistics at N = 10^6, run through the CLI as a user does."""

    name = "tables"

    def __init__(self, seed: int, smoke: bool):
        self.nmax = 20_000 if smoke else 1_000_000
        # the CLI's default theorem tolerances hold at N = 10^6 only
        self.theorem_tol = {2: 1e-3, 3: 5e-2} if smoke else {2: 2e-5, 3: 1e-3}
        self.smoke = smoke
        rng = random.Random(seed)
        self.rows = {ell: sorted(rng.sample(range(1, self.nmax + 1), 16)) for ell in (2, 3)}

    def _csv_rows_ok(self, path: Path, ell: int) -> bool:
        try:
            lines = path.read_bytes().split(b"\n")
            return all(
                lines[n] == f"{n},{bvalues.b_via_multiplicativity(ell, n)}".encode()
                for n in self.rows[ell]
            )
        except (OSError, IndexError):
            return False

    def run_pass(self, out: Path, check: Checks, lap) -> None:
        nmax = str(self.nmax)
        b2 = out / "b2.csv"
        for ell in (2, 3):
            path = out / f"b{ell}.csv"
            code, text = run_cli(["sieve", "--ell", str(ell), "--nmax", nmax,
                                  "--out", str(path)])
            check("cli.sieve_exit_0", code == 0, text)
            check("sieve.csv_rows_match_multiplicativity", self._csv_rows_ok(path, ell))
            lap()

        for ell, ref in ((2, ZETA2), (3, ZETA2 * ZETA3)):
            tol = self.theorem_tol[ell]
            argv = ["verify-theorem", "--ell", str(ell), "--nmax", nmax]
            code, text = run_cli(argv + (["--tol", repr(tol)] if self.smoke else []))
            check("cli.verify_theorem_ok", code == 0 and "ok=True" in text, text)
            check("stats.cesaro_mean_near_zeta_product",
                  abs(field(text, "mean") - ref) <= tol, text)
            check("cli.verify_theorem_mean_plain_float", "np.float64(" not in text, text)
            lap()

        means = {}
        hist = out / "hist.csv"
        for method in ("kahan", "dd", "naive"):
            summary = out / f"summary_{method}.json"
            source = ["--nmax", nmax, "--hist", str(hist)] if method == "kahan" \
                else ["--table", str(b2)]
            code, text = run_cli(["verify-conjecture", "--method", method,
                                  "--summary", str(summary)] + source)
            check("cli.verify_conjecture_exit_0", code == 0, text)
            try:
                means[method] = json.loads(summary.read_text())["mean_E"]
            except (OSError, ValueError, KeyError):
                means[method] = math.nan
            check("cli.conjecture_stdout_matches_summary",
                  field(text, "mean_E") == means[method], text)
            lap()
        try:
            rows = hist.read_text().splitlines()[1:]
            total = sum(int(r.split(",")[2]) for r in rows)
        except (OSError, ValueError, IndexError):
            rows, total = [], -1
        check("stats.histogram_counts_sum_to_n",
              len(rows) == 250 and total == self.nmax, f"{len(rows)} bins, {total}")
        kahan, dd, naive = means["kahan"], means["dd"], means["naive"]
        check("stats.kahan_matches_dd", abs(kahan - dd) < 1e-8, f"{kahan!r} {dd!r}")
        check("stats.naive_matches_dd", abs(naive - dd) < 1e-8, f"{naive!r} {dd!r}")
        if not self.smoke:
            check("stats.kahan_near_published_mean",
                  abs(kahan - PUBLISHED_MEAN_E) < 1e-8, repr(kahan))
            check("stats.naive_replica_exact", naive == PUBLISHED_MEAN_E, repr(naive))

        code, text = run_cli(["moments", "--ell", "2", "--m", "2", "--table", str(b2)])
        check("cli.moments_exit_0", code == 0, text)
        theoretical = field(text, "theoretical")
        # the truncated Euler product undershoots the full one by at most tail_bound
        closed_form = ZETA2**2 * ZETA3 / ZETA4
        check("stats.moment_within_tail_of_closed_form",
              0.0 <= closed_form - theoretical <= field(text, "tail_bound") + 1e-12, text)
        check("stats.empirical_moment_near_theoretical",
              abs(field(text, "empirical") - theoretical) < 1e-2, text)


class Census:
    """Every torus spec of ell = 3 over a fixed range of n: build and validate."""

    name = "census"
    # specs between two laps, about 0.2 s of work
    LAP_SPECS = 200

    def __init__(self, seed: int, smoke: bool):
        self.ell = 3
        self.ns = range(6, 9) if smoke else range(24, 29)
        rng = random.Random(seed)
        self.dot_index = {n: rng.randrange(tori.spec_count(self.ell, n)) for n in self.ns}

    def _dot_ok(self, path: Path, n: int) -> bool:
        # every vertex is declared once, and the collapsed edges carry the
        # ell * n steps (one per direction and vertex) as multiplicities
        lines = path.read_text().splitlines()
        vertices = sum(1 for ln in lines if ln.endswith('";') and " -- " not in ln)
        steps = 0
        for ln in lines:
            if " -- " in ln:
                m = re.search(r"multiplicity=(\d+)", ln)
                steps += int(m.group(1)) if m else 1
        return vertices == n and steps == self.ell * n

    def run_pass(self, out: Path, check: Checks, lap) -> None:
        ell = self.ell
        for n in self.ns:
            count = 0
            for i, spec in enumerate(tori.all_specs(ell, n)):
                if i and i % self.LAP_SPECS == 0:
                    lap()
                real = tori.build_torus(spec)
                check("tori.spec_validates", tori.validate(real).all_true(), repr(spec))
                if i == self.dot_index[n]:
                    path = out / f"torus_{n}.dot"
                    tori.export_dot(real, path)
                    check("tori.dot_has_all_vertices_and_steps", self._dot_ok(path, n))
                count += 1
            check("tori.census_equals_spec_count", count == tori.spec_count(ell, n))
            check("bvalues.census_equals_b_via_flags",
                  count == bvalues.b_via_flags(ell, n), f"n={n} count={count}")
            lap()


class Oracle:
    """The exact routes at small size: brute force, series, q-series, pointwise."""

    name = "oracle"

    POWER_Q = tuple(Fraction(s * a, b) for a, b in ((1, 2), (1, 3), (2, 5), (3, 7))
                    for s in (1, -1))
    CAUCHY_R = (0.3, 0.4, 0.5)
    CAUCHY_M = 256

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.enum = ((2, 5), (3, 4), (4, 3)) if smoke else ((2, 7), (3, 5), (4, 4))
        self.double = ((2, 4), (3, 3)) if smoke else ((2, 5), (3, 4))
        self.point_nmax = 500 if smoke else 5_000
        self.points = {ell: rng.sample(range(1, self.point_nmax + 1), 12) for ell in (2, 3, 4)}
        # (4, 2*10^5) takes the exact Python-int path; so does (5, 5000)
        self.exact = (5, 5_000) if smoke else (4, 200_000)
        self.exact_points = rng.sample(range(1, self.exact[1] + 1), 12)
        self.series = ((2, 12), (3, 8)) if smoke else ((2, 24), (3, 16))
        self.h_n = 100 if smoke else 800
        self.power = [
            (rng.randint(2, 6), Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
             rng.choice(self.POWER_Q))
            for _ in range(40)
        ]
        self.cauchy = []
        for _ in range(8):
            n = rng.randint(3, 10)
            self.cauchy.append((rng.choice((2, 3)), n, rng.randint(1, n),
                                rng.choice(self.CAUCHY_R)))

    def run_pass(self, out: Path, check: Checks, lap) -> None:
        rows = {ell: sieve.sieve_b(ell, self.point_nmax) for ell in (2, 3, 4)}
        lap()

        for ell, n in self.enum:
            counts = permtuples.enumerate_A(ell, n).counts
            row = [rows[ell][v] for v in range(1, n + 1)]
            check("permtuples.enumeration_matches_bell_transform",
                  counts == permtuples.bell_transform(ell, n, row).counts, f"{ell},{n}")
            check("permtuples.bruteforce_matches_sieve",
                  permtuples.b_from_bruteforce(ell, n) == rows[ell][n], f"{ell},{n}")
            lap()
        for ell, n in self.double:
            check("tori.double_count_matches", tori.double_count_check(ell, n).match,
                  f"{ell},{n}")
            lap()

        for ell, ns in self.points.items():
            for n in ns:
                ref = rows[ell][n]
                check("bvalues.flags_matches_sieve", bvalues.b_via_flags(ell, n) == ref)
                check("bvalues.recursion_matches_sieve",
                      bvalues.b_via_recursion(ell, n) == ref)
                check("bvalues.multiplicativity_matches_sieve",
                      bvalues.b_via_multiplicativity(ell, n) == ref)
            lap()

        ell, nmax = self.exact
        table = sieve.sieve_b(ell, nmax)
        for n in self.exact_points:
            check("sieve.exact_table_matches_recursion",
                  table[n] == bvalues.b_via_recursion(ell, n), f"{ell},{n}")
        lap()

        for ell, nmax in self.series:
            poly = genfunc.exp_series(ell, nmax)
            row = [rows[ell][v] for v in range(1, nmax + 1)]
            check("genfunc.exp_series_matches_bell_transform", all(
                poly.a_row(n).counts == permtuples.bell_transform(ell, n, row).counts
                for n in range(1, nmax + 1)), f"{ell},{nmax}")
            lap()

        h = genfunc.h_vector(2, self.h_n, 1)
        check("genfunc.h_vector_matches_partitions",
              h == genfunc.partition_numbers(self.h_n))
        lap()

        for ell, z, q in self.power:
            check("qseries.power_rule_bound_ok",
                  qseries.verify_power_rule(ell, z, q).bound_ok, f"{ell},{z},{q}")
        lap()
        for ell, n, k, r in self.cauchy:
            rep = genfunc.cauchy_check(ell, n, k, r, self.CAUCHY_M)
            check("genfunc.cauchy_matches_exact",
                  rep.abs_err <= 1e-9 * max(1.0, abs(float(rep.exact))),
                  f"{ell},{n},{k},{r}: {rep.abs_err!r}")


WORKLOADS = {cls.name: cls for cls in (Tables, Census, Oracle)}
