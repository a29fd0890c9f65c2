"""Command-line surface: reproducible experiments, machine-readable files.

The handlers pass the parsed arguments straight to the library, which
validates them, and map its exceptions to exit codes: 0 success,
1 verification failure (a failed identity, tolerance or table-load check),
2 usage error (ValueError), 3 budget or resource refusal (BudgetError,
MemoryError).

Exact quantities (integer counts, rationals) are written to JSON as
decimal strings; measured floats are written as JSON numbers. Every output
file is written to a temp file and renamed over its target. Heavy
imports happen inside the subcommand handlers so that --help stays fast
and never loads NumPy; the budget defaults come from the NumPy-free errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from ._files import refuse_long_ints, write_atomic, write_json
from .errors import DEFAULT_MAX_NMAX, DEFAULT_MAX_WORK
from .errors import BudgetError, TableLoadError, VerificationFailure

DEFAULT_ELL = 2
DEFAULT_NMAX = 1_000_000
DEFAULT_BINS = 250
DEFAULT_PRIME_CUTOFF = 10_000
DEFAULT_EPS = 1e-10

_THEOREM_TOL = {2: 2e-5, 3: 1e-3}


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _check_threshold(flag: str, value: float | None) -> None:
    # every comparison with NaN is false, so a NaN gate would never fail
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{flag} must be finite and >= 0, got {value}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="abundancy",
        description="Exact arithmetic and limit statistics of B(ell,n)/n^{ell-1}",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("sieve", help="bulk B(ell,n) table to CSV + sidecar")
    p.add_argument("--ell", type=int, default=DEFAULT_ELL)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--out", required=True)
    p.add_argument("--max-nmax", type=int, default=DEFAULT_MAX_NMAX)

    p = sub.add_parser("bruteforce", help="enumerate commuting tuples, count orbits")
    p.add_argument("--ell", type=int, default=DEFAULT_ELL)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-work", type=int, default=DEFAULT_MAX_WORK,
                   help="cap on the entries of the centralizers, class sweeps and "
                        "last-level tuples, plus the recurrence's passes in 64-bit limbs")
    p.add_argument("--out", default=None, help="A-row JSON path")

    p = sub.add_parser("genfunc", help="exact coefficient triangle A(ell,n,k)")
    p.add_argument("--ell", type=int, default=DEFAULT_ELL)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--max-work", type=int, default=DEFAULT_MAX_WORK,
                   help="cap on the triangle's inner-loop terms, nmax(nmax+1)(nmax+2)/6")
    p.add_argument("--out", default=None, help="triangle JSON path")

    p = sub.add_parser("cauchy", help="contour-quadrature coefficient check")
    p.add_argument("--ell", type=int, default=DEFAULT_ELL)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--grid", "-M", dest="M", type=int, required=True,
                   help="number of quadrature angles")
    p.add_argument("--n-trunc", type=int, default=None)
    p.add_argument("--max-err", type=float, default=None,
                   help="fail (exit 1) if abs_err exceeds this")
    p.add_argument("--out", default=None)

    p = sub.add_parser("qcheck", help="finite q-series power rule, exact rationals")
    p.add_argument("--ell", type=int, default=DEFAULT_ELL)
    p.add_argument("--q", type=_fraction_arg, required=True, help="rational, |q| < 1")
    p.add_argument("--z", type=_fraction_arg, required=True)
    p.add_argument("--eps", type=_fraction_arg, default=Fraction(1, 10**12),
                   help="tail truncation bound")

    p = sub.add_parser("verify-theorem", help="Cesaro mean against zeta(2)..zeta(ell)")
    p.add_argument("--ell", type=int, default=DEFAULT_ELL)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--tol", type=float, default=None,
                   help=f"defaults: {_THEOREM_TOL}")

    p = sub.add_parser("verify-conjecture",
                       help="ell=2 error sequence: mean, rel err, histogram")
    p.add_argument("--table", default=None, help="CSV from `sieve` (ell=2)")
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX,
                   help="sieve size when no --table given")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--method", default="kahan",
                   choices=["kahan", "naive", "dd", "exact"],
                   help="summation path; kahan, the default, names the "
                        "correctly rounded path (the same bits as dd)")
    p.add_argument("--hist", default=None, help="histogram CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path")
    p.add_argument("--max-rel-err", type=float, default=None,
                   help="fail (exit 1) if rel_err exceeds this")

    p = sub.add_parser("moments", help="limiting-distribution moments")
    p.add_argument("--ell", type=int, default=DEFAULT_ELL)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--prime-cutoff", type=int, default=DEFAULT_PRIME_CUTOFF)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--table", default=None,
                   help="add the empirical moment from this table")
    p.add_argument("--out", default=None)

    p = sub.add_parser("tori", help="build a twisted torus; validate; export DOT")
    p.add_argument("--dims", required=True, help="comma-separated, e.g. 4,6")
    p.add_argument("--twists", default="",
                   help="per-direction vectors, e.g. '4;2,3' for ell=3")
    p.add_argument("--dot", default=None, help="DOT output path")
    p.add_argument("--check", action="store_true",
                   help="run the four structural checks; fail unless all true")

    return ap


# ---------------------------------------------------------------------------
# handlers

def _cmd_sieve(args) -> int:
    from .sieve import save_table, sieve_b

    table = sieve_b(args.ell, args.nmax, max_nmax=args.max_nmax)
    save_table(table, args.out)
    print(f"sieve ell={args.ell} nmax={args.nmax} -> {args.out} (+ .json sidecar)")
    return 0


def _cmd_bruteforce(args) -> int:
    from .permtuples import enumerate_A

    at = enumerate_A(args.ell, args.n, max_work=args.max_work)
    row = {str(k): str(at[k]) for k in range(1, args.n + 1)}
    if args.out:
        write_json(args.out, {"ell": args.ell, "n": args.n, "counts": row})
    compact = ",".join(f"{k}:{v}" for k, v in row.items())
    print(f"bruteforce ell={args.ell} n={args.n} total={at.total()} counts={{{compact}}}")
    return 0


def _cmd_genfunc(args) -> int:
    from .genfunc import exp_series

    poly = exp_series(args.ell, args.nmax, max_work=args.max_work)
    if args.out:
        refuse_long_ints(((n, max(row)) for n, row in enumerate(poly.rows)),
                         f"A({args.ell}, n, k)")
        payload = {
            "ell": poly.ell,
            "N": poly.N,
            "rows": [[str(c) for c in row] for row in poly.rows],
        }
        write_json(args.out, payload)
    print(f"genfunc ell={args.ell} N={args.nmax} rows={args.nmax + 1}"
          + (f" -> {args.out}" if args.out else ""))
    return 0


def _cmd_cauchy(args) -> int:
    from dataclasses import asdict

    from .genfunc import cauchy_check

    _check_threshold("--max-err", args.max_err)
    rep = cauchy_check(args.ell, args.n, args.k, args.r, args.M,
                       n_trunc=args.n_trunc)
    if args.out:
        write_json(args.out, asdict(rep) | {"exact": str(rep.exact)})
    print(f"cauchy ell={args.ell} n={args.n} k={args.k} r={args.r} M={args.M} "
          f"numeric={rep.numeric!r} exact={rep.exact} abs_err={rep.abs_err:.3e}")
    if args.max_err is not None and rep.abs_err > args.max_err:
        raise VerificationFailure(
            f"abs_err {rep.abs_err:.3e} exceeds --max-err {args.max_err:.3e}"
        )
    return 0


def _cmd_qcheck(args) -> int:
    from .qseries import verify_power_rule

    rep = verify_power_rule(args.ell, args.z, args.q, tail_eps=args.eps)
    print(f"qcheck ell={args.ell} q={args.q} z={args.z} terms={rep.terms} "
          f"tail_bound={rep.tail_bound} ok={rep.bound_ok}")
    if not rep.bound_ok:
        raise VerificationFailure(
            f"|lhs - rhs| not within tail bound at q={args.q}, z={args.z}"
        )
    return 0


def _cmd_verify_theorem(args) -> int:
    from .sieve import sieve_b
    from .stats import cesaro_mean, zeta_product

    _check_threshold("--tol", args.tol)
    if args.ell < 2:  # sieve_b accepts ell = 1; the theorem does not
        raise ValueError(f"verify-theorem needs ell >= 2, got {args.ell}")
    tol = args.tol if args.tol is not None else _THEOREM_TOL.get(args.ell)
    if tol is None:
        raise ValueError(f"no default tolerance for ell={args.ell}; pass --tol")
    table = sieve_b(args.ell, args.nmax)
    mean = cesaro_mean(table, args.nmax)
    ref = zeta_product(args.ell)
    diff = abs(mean - ref)
    ok = diff <= tol
    print(f"verify-theorem ell={args.ell} N={args.nmax} mean={mean!r} "
          f"ref={ref!r} |diff|={diff:.3e} tol={tol:.1e} ok={ok}")
    if not ok:
        raise VerificationFailure(f"|mean - ref| = {diff:.3e} > tol = {tol:.1e}")
    return 0


def _cmd_verify_conjecture(args) -> int:
    from .sieve import load_table, sieve_b
    from .stats import error_series

    _check_threshold("--max-rel-err", args.max_rel_err)
    if args.table is not None:
        table = load_table(args.table, ell=2)
    else:
        table = sieve_b(2, args.nmax)
    summary = error_series(table, bins=args.bins, method=args.method)
    if args.hist:
        lines = ["bin_left,bin_right,count"]
        lines.extend(f"{left!r},{right!r},{count}"
                     for left, right, count in summary.histogram)
        lines.append("")
        write_atomic(args.hist, "\n".join(lines).encode("utf-8"))
    if args.summary:
        write_json(args.summary, {
            "nmax": summary.nmax,
            "mean_E": summary.mean_E,
            "mu": -summary.minus_mu,
            "rel_err": summary.rel_err,
            "bins": summary.bins,
            "last_E": summary.last_E,
            "method": summary.method,
        })
    print(f"verify-conjecture N={summary.nmax} method={summary.method} "
          f"mean_E={summary.mean_E!r} rel_err={summary.rel_err:.3e} "
          f"bins={summary.bins}")
    if args.max_rel_err is not None and summary.rel_err > args.max_rel_err:
        raise VerificationFailure(
            f"rel_err {summary.rel_err:.3e} exceeds --max-rel-err "
            f"{args.max_rel_err:.3e}"
        )
    return 0


def _cmd_moments(args) -> int:
    from dataclasses import asdict, replace

    from .sieve import load_table
    from .stats import empirical_moment, theoretical_moment

    result = theoretical_moment(args.ell, args.m, prime_cutoff=args.prime_cutoff,
                                eps=args.eps)
    if args.table is not None:
        table = load_table(args.table, ell=args.ell)
        result = replace(result,
                         empirical=empirical_moment(table, args.m, table.nmax))
    if args.out:
        write_json(args.out, asdict(result))
    emp = "" if result.empirical is None else f" empirical={result.empirical!r}"
    print(f"moments ell={result.ell} m={result.m} "
          f"theoretical={result.theoretical!r}{emp} "
          f"tail_bound={result.tail_bound:.3e} cutoff={result.prime_cutoff}")
    return 0


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed --dims: {text!r}") from exc


def _parse_twists(text: str) -> tuple[tuple[int, ...], ...]:
    if not text:
        return ()
    try:
        return tuple(
            tuple(int(part) for part in group.split(","))
            for group in text.split(";")
        )
    except ValueError as exc:
        raise ValueError(f"malformed --twists: {text!r}") from exc


def _cmd_tori(args) -> int:
    from .tori import TorusSpec, build_torus, export_dot, validate

    spec = TorusSpec(dims=_parse_dims(args.dims), twists=_parse_twists(args.twists))
    real = build_torus(spec)
    extra = ""
    checks = None
    if args.check:
        checks = validate(real)
        extra = (f" commutes={checks.commutes} transitive={checks.transitive} "
                 f"group_order_n={checks.group_order_n} "
                 f"basepoint_bijective={checks.basepoint_bijective}")
    if args.dot:
        export_dot(real, args.dot)
        extra += f" -> {args.dot}"
    print(f"tori dims={spec.dims} n={spec.n} edges={len(real.edges)}{extra}")
    if checks is not None and not checks.all_true():
        raise VerificationFailure(f"structural checks failed: {checks}")
    return 0


_DISPATCH = {
    "sieve": _cmd_sieve,
    "bruteforce": _cmd_bruteforce,
    "genfunc": _cmd_genfunc,
    "cauchy": _cmd_cauchy,
    "qcheck": _cmd_qcheck,
    "verify-theorem": _cmd_verify_theorem,
    "verify-conjecture": _cmd_verify_conjecture,
    "moments": _cmd_moments,
    "tori": _cmd_tori,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # The top level takes no option but -h. argparse would read an
        # unknown option's value as the subcommand and blame that word.
        for arg in argv:
            if not arg.startswith("-"):
                break
            if arg not in ("-h", "--help"):
                parser.error(f"unrecognized arguments: {arg}")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.cmd](args)
    except BudgetError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except (VerificationFailure, TableLoadError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
