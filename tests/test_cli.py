import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import abundancy
from abundancy import genfunc, permtuples, sieve
from abundancy.cli import build_parser, main
from abundancy.stats import mu_constant


def run(argv):
    return main(argv)


def test_parser_defaults():
    parse = build_parser().parse_args
    args = parse(["sieve", "--out", "x.csv"])
    assert args.ell == 2 and args.nmax == 10**6
    assert parse(["verify-conjecture"]).bins == 250
    args = parse(["moments", "--m", "1"])
    assert args.prime_cutoff == 10**4 and args.eps == 1e-10


def test_budget_defaults_match_the_library():
    parse = build_parser().parse_args
    assert parse(["sieve", "--out", "x.csv"]).max_nmax == sieve.DEFAULT_MAX_NMAX
    assert parse(["bruteforce", "--n", "1"]).max_work == permtuples.DEFAULT_MAX_WORK
    assert parse(["genfunc"]).max_work == permtuples.DEFAULT_MAX_WORK


def test_help_does_not_import_numpy():
    src = str(Path(abundancy.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from abundancy.cli import main\n"
        "for argv in (['--help'], ['sieve', '--help']):\n"
        "    assert main(argv) == 0\n"
        "    assert 'numpy' not in sys.modules, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["sieve", "--ell", "0"], "ell must be >= 1, got 0"),
    (["sieve", "--nmax", "0"], "nmax must be >= 1, got 0"),
    (["verify-conjecture", "--nmax", "100", "--bins", "0"],
     "bins must be >= 1, got 0"),
    (["moments", "--m", "1", "--prime-cutoff", "1"],
     "prime_cutoff must be >= 2, got 1"),
    (["moments", "--m", "1", "--eps", "0"], "eps must be positive, got 0.0"),
])
def test_bad_values_exit_2_and_write_nothing(tmp_path, capsys, argv, message):
    outputs = {
        "sieve": ["--out", str(tmp_path / "t.csv")],
        "verify-conjecture": ["--hist", str(tmp_path / "h.csv"),
                              "--summary", str(tmp_path / "s.json")],
        "moments": ["--out", str(tmp_path / "m.json")],
    }[argv[0]]
    assert run(argv + outputs) == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sieve_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "b2.csv"
    assert run(["sieve", "--ell", "2", "--nmax", "100", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("n,value\n1,1\n")
    assert text.endswith("\n")
    sidecar = json.loads((tmp_path / "b2.csv.json").read_text())
    assert set(sidecar) == {"ell", "nmax", "format_version", "sha256"}


def test_sieve_idempotent(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["sieve", "--nmax", "500", "--out", str(a)]) == 0
    assert run(["sieve", "--nmax", "500", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_text().replace("a.csv", "b.csv") \
        == (tmp_path / "b.csv.json").read_text().replace("b.csv", "b.csv")


def test_sieve_budget_exit_3(tmp_path):
    out = tmp_path / "x.csv"
    code = run(["sieve", "--nmax", "100000", "--max-nmax", "10",
                "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_moments_prime_cutoff_budget_exit_3(capsys):
    start = time.perf_counter()
    assert run(["moments", "--m", "1", "--prime-cutoff", str(10**12)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("budget refused: ")


def test_verify_conjecture_bins_budget_exit_3(capsys):
    from abundancy.errors import MAX_BINS

    assert run(["verify-conjecture", "--nmax", "100", "--bins", str(MAX_BINS + 1)]) == 3
    assert capsys.readouterr().err.startswith("budget refused: ")


def test_bruteforce_row_and_budget(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert run(["bruteforce", "--ell", "2", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload == {"ell": 2, "n": 3, "counts": {"1": "8", "2": "9", "3": "1"}}
    assert "total=18" in capsys.readouterr().out
    assert run(["bruteforce", "--ell", "2", "--n", "12"]) == 3
    assert run(["bruteforce", "--ell", "2", "--n", "0"]) == 2


def test_bruteforce_long_tuples_at_n_1(capsys):
    assert run(["bruteforce", "--ell", "3000", "--n", "1"]) == 0
    assert "counts={1:1}" in capsys.readouterr().out
    assert run(["bruteforce", "--ell", "30000000", "--n", "1"]) == 3
    assert run(["bruteforce", "--ell", "5000", "--n", "7"]) == 3


def test_bruteforce_budget_counts_the_search(capsys):
    # (2, 8), (3, 7), (2, 9) and (3, 9) run by the class equation at every
    # level, within the default
    assert run(["bruteforce", "--ell", "2", "--n", "8"]) == 0
    assert "total=887040 counts={1:75600," in capsys.readouterr().out
    assert run(["bruteforce", "--ell", "3", "--n", "7"]) == 0
    assert "total=856800 counts={1:41040," in capsys.readouterr().out
    assert run(["bruteforce", "--ell", "2", "--n", "9"]) == 0
    assert "total=10886400 counts={1:524160," in capsys.readouterr().out
    assert run(["bruteforce", "--ell", "3", "--n", "9"]) == 0
    assert "counts={1:5241600," in capsys.readouterr().out
    # C(s) of a transposition of 12 points is refused before it is built
    start = time.perf_counter()
    with mock.patch.object(permtuples, "_rotation_centralizer", side_effect=AssertionError):
        assert run(["bruteforce", "--ell", "2", "--n", "12"]) == 3
    assert "C(s) of the cycle type with parts [2]" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0
    # (3, 7) does 70,126 work in all, the last level's tuples last
    assert run(["bruteforce", "--ell", "3", "--n", "7", "--max-work", "70125"]) == 3
    assert "last level's tuples take the work to 70126" in capsys.readouterr().err
    assert run(["bruteforce", "--ell", "3", "--n", "7", "--max-work", "70126"]) == 0


def test_genfunc_json(tmp_path):
    out = tmp_path / "tri.json"
    assert run(["genfunc", "--ell", "2", "--nmax", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ell"] == 2 and payload["N"] == 4
    assert payload["rows"][3] == ["0", "8", "9", "1"]
    assert run(["genfunc", "--nmax", "0"]) == 2



@pytest.mark.parametrize("argv, named", [
    (["sieve", "--ell", "5000", "--nmax", "10", "--out"], "B(5000, n) at n=8"),
    (["genfunc", "--ell", "5000", "--nmax", "10", "--out"], "A(5000, n, k) at n=6"),
])
def test_values_past_the_int_str_limit_exit_3_and_write_nothing(
        tmp_path, capsys, argv, named):
    limit = sys.get_int_max_str_digits()
    if limit != 4300:
        pytest.skip(f"the first n named is for the default limit, not {limit}")
    assert run(argv + [str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget refused: ")
    assert f"{named} has more than {limit} digits" in err
    assert list(tmp_path.iterdir()) == []


def test_genfunc_without_out_prints_any_length(capsys):
    # the values are only refused where they would be written
    assert run(["genfunc", "--ell", "5000", "--nmax", "10"]) == 0
    assert capsys.readouterr().out == "genfunc ell=5000 N=10 rows=11\n"


def test_memory_error_exits_3_without_traceback(monkeypatch, capsys):
    import abundancy.tori

    def exhaust(spec):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(abundancy.tori, "build_torus", exhaust)
    assert run(["tori", "--dims", "100000,100000", "--twists", "1"]) == 3
    assert capsys.readouterr().err == "out of memory: Unable to allocate 74.5 GiB\n"

def test_cauchy_exit_codes(tmp_path):
    out = tmp_path / "c.json"
    assert run(["cauchy", "--n", "5", "--k", "2", "--r", "0.3",
                "--grid", "64", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 5 and payload["k"] == 2
    assert float(payload["abs_err"]) < 1e-6
    # forced verification failure: unreachable tolerance
    assert run(["cauchy", "--n", "5", "--k", "2", "--r", "0.3",
                "--grid", "8", "--max-err", "1e-18"]) == 1
    assert run(["cauchy", "--n", "5", "--k", "2", "--r", "1.5",
                "--grid", "64"]) == 2


@pytest.mark.parametrize("argv, named", [
    (["--ell", "2", "--n", "200", "--k", "3", "--r", "0.01", "-M", "16"],
     "r=0.01, n=200"),
    (["--ell", "2", "--n", "5", "--k", "200", "--r", "0.5", "-M", "8"], "k=200"),
    (["--ell", "1100", "--n", "10", "--k", "1", "--r", "0.1", "-M", "8",
      "--n-trunc", "12"], "ell=1100, m=2"),
    (["--ell", "5000", "--n", "10", "--k", "1", "--r", "0.1", "-M", "8"],
     "ell=5000, m=2"),
])
def test_cauchy_float_range_exits_2_and_writes_nothing(
    tmp_path, capsys, monkeypatch, argv, named
):
    # each refusal comes before the series or the table is built
    def built(*args, **kwargs):
        raise AssertionError("built before the refusal")

    monkeypatch.setattr(genfunc, "sieve_b", built)
    monkeypatch.setattr(genfunc, "exp_series", built)
    out = tmp_path / "c.json"
    assert run(["cauchy", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert err.startswith("usage error: ") and err.count("\n") == 1  # no traceback
    assert list(tmp_path.iterdir()) == []


def test_qcheck_exit_codes():
    assert run(["qcheck", "--ell", "3", "--q", "1/3", "--z", "1",
                "--eps", "1e-12"]) == 0
    assert run(["qcheck", "--q", "3/2", "--z", "1"]) == 2  # |q| >= 1
    assert run(["qcheck", "--q", "abc", "--z", "1"]) == 2  # parse failure


def test_series_budgets_exit_3_fast(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["qcheck", "--ell", "6", "--z", "3/2", "--q", "999/1000"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("budget refused: ") and "ell=6, q=999/1000" in err
    # ell = 1000 forms numbers of about 1,001,000 bits at K = 0, and ell =
    # 300 sums 339 terms of 299 window factors each
    start = time.perf_counter()
    assert run(["qcheck", "--ell", "1000", "--z", "1", "--q", "1/2"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "MAX_POWER_COST" in capsys.readouterr().err
    assert run(["qcheck", "--ell", "300", "--z", "1", "--q", "1/2"]) == 0
    assert "terms=339" in capsys.readouterr().out
    # 10^7 angles x 48 coefficients
    start = time.perf_counter()
    assert run(["cauchy", "--n", "5", "--k", "2", "--r", "0.3", "--grid", "10000000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "M=10000000, n_trunc=48" in capsys.readouterr().err
    out = tmp_path / "tri.json"
    start = time.perf_counter()
    assert run(["genfunc", "--nmax", "3000", "--out", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "N=3000" in capsys.readouterr().err
    assert run(["genfunc", "--nmax", "10", "--max-work", "219", "--out", str(out)]) == 3
    assert list(tmp_path.iterdir()) == []
    assert run(["genfunc", "--nmax", "10", "--max-work", "220", "--out", str(out)]) == 0


def test_qcheck_size_budget_exits_3_fast(capsys):
    # the window and the right side alone form numbers of about ell^2/2 bits
    start = time.perf_counter()
    assert run(["qcheck", "--ell", "8000", "--z", "0", "--q", "1/2"]) == 3
    assert run(["qcheck", "--ell", "20001", "--z", "0", "--q", "1/2"]) == 3
    # q = 0 sums one term, and cost(0) <= MAX_POWER_COST < cost(1) here
    assert run(["qcheck", "--ell", "998", "--z", "3", "--q", "0"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("MAX_POWER_COST") == 3 and "ell=8000, q=1/2" in err
    assert "ell=998, q=0 needs about 1 terms" in err


def test_verify_theorem_exit_codes():
    assert run(["verify-theorem", "--ell", "2", "--nmax", "200000",
                "--tol", "1e-3"]) == 0
    assert run(["verify-theorem", "--ell", "2", "--nmax", "10000",
                "--tol", "1e-12"]) == 1
    assert run(["verify-theorem", "--ell", "1"]) == 2
    assert run(["verify-theorem", "--ell", "4", "--nmax", "1000"]) == 2  # no default tol


_GATED = {
    "--max-rel-err": ["verify-conjecture", "--nmax", "1000"],
    "--max-err": ["cauchy", "--n", "5", "--k", "2", "--r", "0.3", "--grid", "8"],
    "--tol": ["verify-theorem", "--nmax", "1000"],
}


@pytest.mark.parametrize("flag", sorted(_GATED))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-3"])
def test_non_finite_or_negative_thresholds_exit_2(monkeypatch, capsys, flag, value):
    # x > nan is false: a NaN gate would pass anything, so it is refused
    # before any table or series is built
    def built(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    monkeypatch.setattr(sieve, "sieve_b", built)
    monkeypatch.setattr(genfunc, "cauchy_check", built)
    assert run([*_GATED[flag], f"{flag}={value}"]) == 2
    assert capsys.readouterr().err == (
        f"usage error: {flag} must be finite and >= 0, got {float(value)}\n"
    )


def test_verify_conjecture_artifacts(tmp_path):
    table = tmp_path / "t.csv"
    assert run(["sieve", "--nmax", "50000", "--out", str(table)]) == 0
    hist1 = tmp_path / "h1.csv"
    summ1 = tmp_path / "s1.json"
    hist2 = tmp_path / "h2.csv"
    summ2 = tmp_path / "s2.json"
    args = ["verify-conjecture", "--table", str(table), "--bins", "40"]
    assert run(args + ["--hist", str(hist1), "--summary", str(summ1)]) == 0
    assert run(args + ["--hist", str(hist2), "--summary", str(summ2)]) == 0
    assert hist1.read_bytes() == hist2.read_bytes()
    assert summ1.read_bytes() == summ2.read_bytes()

    lines = hist1.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 41
    assert sum(int(ln.split(",")[2]) for ln in lines[1:]) == 50000

    payload = json.loads(summ1.read_text())
    assert set(payload) == {"nmax", "mean_E", "mu", "rel_err", "bins",
                            "last_E", "method"}
    assert payload["nmax"] == 50000
    assert payload["method"] == "kahan"
    assert payload["bins"] == 40


def test_verify_conjecture_failure_modes(tmp_path):
    table = tmp_path / "t3.csv"
    assert run(["sieve", "--ell", "3", "--nmax", "100", "--out", str(table)]) == 0
    # wrong-ell table is a load validation failure
    assert run(["verify-conjecture", "--table", str(table)]) == 1
    assert run(["verify-conjecture", "--nmax", "20000",
                "--max-rel-err", "1e-12"]) == 1
    assert run(["verify-conjecture", "--nmax", "20000", "--method",
                "exact", "--max-rel-err", "1.0"]) == 0
    assert run(["verify-conjecture", "--nmax", "30000", "--method",
                "exact"]) == 3  # over the exact-method cap


def test_verify_conjecture_non_ascii_table_exit_1(tmp_path, capsys):
    table = tmp_path / "t.csv"
    data = "n,value\n1,1\n2,3\u00e9\n".encode("utf-8")
    table.write_bytes(data)
    (tmp_path / "t.csv.json").write_text(json.dumps({
        "ell": 2, "nmax": 2, "format_version": 1,
        "sha256": hashlib.sha256(data).hexdigest(),
    }))
    assert run(["verify-conjecture", "--table", str(table)]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_impossible_table_values_exit_1(tmp_path, capsys):
    # sealed and well-formed, but -10^20 cannot be B(2, 2)
    table = tmp_path / "t.csv"
    data = b"n,value\n1,1\n2,-99999999999999999999\n"
    table.write_bytes(data)
    (tmp_path / "t.csv.json").write_text(json.dumps({
        "ell": 2, "nmax": 2, "format_version": 1,
        "sha256": hashlib.sha256(data).hexdigest(),
    }))
    assert run(["verify-conjecture", "--table", str(table)]) == 1
    assert run(["moments", "--ell", "2", "--m", "1", "--prime-cutoff", "100",
                "--table", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("verification failed: value at n=2") == 2
    assert "mean_E" not in captured.out and "moments" not in captured.out


def test_summary_write_is_atomic(tmp_path, monkeypatch):
    summary = tmp_path / "s.json"
    args = ["verify-conjecture", "--nmax", "2000", "--summary", str(summary)]
    assert run(args) == 0
    before = summary.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        run(["verify-conjecture", "--nmax", "3000", "--summary", str(summary)])
    monkeypatch.undo()
    assert summary.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def test_every_json_output_is_sorted_indented_ascii(tmp_path):
    table = tmp_path / "t.csv"
    assert run(["sieve", "--nmax", "1000", "--out", str(table)]) == 0
    out = {name: str(tmp_path / f"{name}.json")
           for name in ("bruteforce", "genfunc", "cauchy", "summary", "moments")}
    assert run(["bruteforce", "--n", "4", "--out", out["bruteforce"]]) == 0
    assert run(["genfunc", "--nmax", "5", "--out", out["genfunc"]]) == 0
    assert run(["cauchy", "--n", "5", "--k", "2", "--r", "0.3", "--grid", "64",
                "--out", out["cauchy"]]) == 0
    assert run(["verify-conjecture", "--table", str(table),
                "--summary", out["summary"]]) == 0
    assert run(["moments", "--m", "2", "--prime-cutoff", "100",
                "--table", str(table), "--out", out["moments"]]) == 0
    for path in [*out.values(), str(table) + ".json"]:
        raw = Path(path).read_bytes()
        assert raw.isascii(), path
        text = raw.decode("ascii")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_summary_mu_is_mu_constant(tmp_path):
    summary = tmp_path / "s.json"
    assert run(["verify-conjecture", "--nmax", "2000", "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text())["mu"].hex() == mu_constant().hex()


def test_moments_json(tmp_path):
    table = tmp_path / "t.csv"
    assert run(["sieve", "--nmax", "100000", "--out", str(table)]) == 0
    out = tmp_path / "m.json"
    assert run(["moments", "--ell", "2", "--m", "2", "--prime-cutoff", "1000",
                "--table", str(table), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ell"] == 2 and payload["m"] == 2
    assert payload["prime_cutoff"] == 1000
    assert abs(payload["theoretical"] - 3.005) < 0.01
    assert payload["empirical"] is not None
    assert payload["tail_bound"] > 0
    assert run(["moments", "--m", "0"]) == 2
    assert run(["moments", "--ell", "1", "--m", "1"]) == 2


def test_moments_on_an_exact_path_table(tmp_path, capsys):
    # B(200, n) overflows int64, so the table holds Python ints; its index
    # is divided as ints and rounded once
    table = tmp_path / "t.csv"
    assert run(["sieve", "--ell", "200", "--nmax", "100", "--out", str(table)]) == 0
    assert run(["moments", "--ell", "200", "--m", "1", "--prime-cutoff", "100",
                "--table", str(table)]) == 0
    assert "empirical=2.2443930304792516 " in capsys.readouterr().out


def test_tori_cli(tmp_path):
    dot = tmp_path / "t.dot"
    assert run(["tori", "--dims", "4,6", "--twists", "2", "--check",
                "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("graph torus {")
    assert run(["tori", "--dims", "4,6,2", "--twists", "4;2,3", "--check"]) == 0
    assert run(["tori", "--dims", "4,x"]) == 2
    assert run(["tori", "--dims", "4,6", "--twists", "9"]) == 2
    assert run(["tori", "--dims", "5", "--check"]) == 0


def test_moments_past_the_float_range_is_a_usage_error(capsys):
    assert run(["moments", "--ell", "2", "--m", "400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "ell=2, m=400" in err


@pytest.mark.parametrize("m", [364, 365])
def test_moments_past_the_float_range_on_a_table(tmp_path, capsys, m):
    # theoretical moments that stay finite, and an empirical one that does
    # not: the index is 1 up to n = 499 and 7 from there, so at m = 364 the
    # 501 terms near 4e307 are finite and their sum is not, and at m = 365
    # every such term is infinite
    values = np.arange(1, 1001, dtype=np.int64)
    values[499:] *= 7
    table = tmp_path / "t.csv"
    sieve.save_table(sieve.ArithTable(ell=2, nmax=1000, values=values,
                                      metadata={}), table)
    assert run(["moments", "--ell", "2", "--m", str(m)]) == 0
    capsys.readouterr()
    assert run(["moments", "--ell", "2", "--m", str(m),
                "--table", str(table)]) == 2
    err = capsys.readouterr().err
    assert err == ("usage error: the moment exceeds the float range for "
                   f"ell=2, m={m}\n")


def test_tori_past_the_vertex_bound_refuses_fast(tmp_path):
    # one vertex past 2^18 is refused before anything is built; building
    # 513 x 512 would take seconds
    dot = tmp_path / "t.dot"
    start = time.perf_counter()
    assert run(["tori", "--dims", "513,512", "--twists", "1", "--dot", str(dot)]) == 3
    assert time.perf_counter() - start < 1.0
    assert not list(tmp_path.iterdir())


def test_usage_errors():
    assert run(["not-a-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    assert run(["sieve", "--nmax", "10", "--out", "/tmp/x.csv",
                "--ell", "0"]) == 2


def test_unknown_option_before_subcommand_is_named(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["--threads", "2", "sieve", "--nmax", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --threads" in err
    assert "invalid choice" not in err
    assert not out.exists() and not (tmp_path / "x.csv.json").exists()


def test_no_numpy_scalar_repr_on_stdout(tmp_path, capsys):
    table = tmp_path / "b2.csv"
    assert run(["sieve", "--nmax", "20000", "--out", str(table)]) == 0
    assert run(["verify-theorem", "--nmax", "20000", "--tol", "1e-3"]) == 0
    assert run(["moments", "--m", "2", "--prime-cutoff", "100",
                "--table", str(table)]) == 0
    out = capsys.readouterr().out
    assert "mean=1.6" in out and "empirical=" in out
    assert "np.float64(" not in out


def test_summary_lines_on_stdout(capsys):
    run(["qcheck", "--q", "1/2", "--z", "1"])
    out = capsys.readouterr().out
    assert out.startswith("qcheck ") and "ok=True" in out
    run(["moments", "--m", "1", "--prime-cutoff", "100"])
    assert capsys.readouterr().out.startswith("moments ")
