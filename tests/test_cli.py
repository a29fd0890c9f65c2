import json

import pytest

from abundancy.cli import RunConfig, main


def run(argv):
    return main(argv)


def test_runconfig_validation():
    cfg = RunConfig(subcommand="sieve")
    assert cfg.ell == 2 and cfg.nmax == 1_000_000
    assert cfg.bins == 250 and cfg.prime_cutoff == 10_000 and cfg.eps == 1e-10
    for kw in (
        {"ell": 0}, {"nmax": 0}, {"bins": 0},
        {"prime_cutoff": 1}, {"eps": 0.0},
    ):
        with pytest.raises(ValueError):
            RunConfig(subcommand="x", **kw)


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


def test_bruteforce_row_and_budget(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert run(["bruteforce", "--ell", "2", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload == {"ell": 2, "n": 3, "counts": {"1": "8", "2": "9", "3": "1"}}
    assert "total=18" in capsys.readouterr().out
    assert run(["bruteforce", "--ell", "2", "--n", "12"]) == 3
    assert run(["bruteforce", "--ell", "2", "--n", "0"]) == 2


def test_genfunc_json(tmp_path):
    out = tmp_path / "tri.json"
    assert run(["genfunc", "--ell", "2", "--nmax", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ell"] == 2 and payload["N"] == 4
    assert payload["rows"][3] == ["0", "8", "9", "1"]
    assert run(["genfunc", "--nmax", "0"]) == 2


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


def test_qcheck_exit_codes():
    assert run(["qcheck", "--ell", "3", "--q", "1/3", "--z", "1",
                "--eps", "1e-12"]) == 0
    assert run(["qcheck", "--q", "3/2", "--z", "1"]) == 2  # |q| >= 1
    assert run(["qcheck", "--q", "abc", "--z", "1"]) == 2  # parse failure


def test_verify_theorem_exit_codes():
    assert run(["verify-theorem", "--ell", "2", "--nmax", "200000",
                "--tol", "1e-3"]) == 0
    assert run(["verify-theorem", "--ell", "2", "--nmax", "10000",
                "--tol", "1e-12"]) == 1
    assert run(["verify-theorem", "--ell", "1"]) == 2
    assert run(["verify-theorem", "--ell", "4", "--nmax", "1000"]) == 2  # no default tol


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
                "exact"]) == 2  # over the exact-method cap


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


def test_tori_cli(tmp_path):
    dot = tmp_path / "t.dot"
    assert run(["tori", "--dims", "4,6", "--twists", "2", "--check",
                "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("graph torus {")
    assert run(["tori", "--dims", "4,6,2", "--twists", "4;2,3", "--check"]) == 0
    assert run(["tori", "--dims", "4,x"]) == 2
    assert run(["tori", "--dims", "4,6", "--twists", "9"]) == 2
    assert run(["tori", "--dims", "5", "--check"]) == 0


def test_usage_errors():
    assert run(["not-a-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    assert run(["sieve", "--nmax", "10", "--out", "/tmp/x.csv",
                "--ell", "0"]) == 2


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
