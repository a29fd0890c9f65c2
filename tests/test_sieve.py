import json
import os

import numpy as np
import pytest

from abundancy.bvalues import b_via_recursion
from abundancy.errors import (
    BudgetError,
    ChecksumMismatch,
    MalformedTable,
    MetadataMismatch,
    VersionMismatch,
)
from abundancy.sieve import (
    ArithTable,
    cached_sieve,
    load_table,
    save_table,
    sieve_b,
)


def test_sieve_matches_recursion():
    for ell in (1, 2, 3, 4):
        t = sieve_b(ell, 200)
        for n in range(1, 201):
            assert t[n] == b_via_recursion(ell, n), (ell, n)


def test_sieve_ell2_known_values(table2):
    assert table2[1] == 1
    assert table2[6] == 12
    assert table2[1_000_000] == 2480437


def test_indexing_contract():
    t = sieve_b(2, 10)
    assert len(t) == 10
    with pytest.raises(IndexError):
        t[0]
    with pytest.raises(IndexError):
        t[11]


def test_values_are_read_only():
    t = sieve_b(2, 10)
    assert isinstance(t.values, np.ndarray)
    with pytest.raises(ValueError):
        t.values[0] = 99


def test_exact_path_promotion():
    # (nmax * mult)^(ell-1) >= 2^63 forces the Python-int path; the
    # resulting values genuinely exceed int64 at the top of this range
    t = sieve_b(20, 10)
    assert isinstance(t.values, tuple)
    assert t[10] > 2**63
    for n in range(1, 11):
        assert t[n] == b_via_recursion(20, n)


def test_int64_path_top_of_range():
    # ell=3 at nmax=10^6 stays on int64: values near (n ln n)^2 ~ 2e14
    t = sieve_b(3, 1000)
    assert isinstance(t.values, np.ndarray)
    assert t[1000] == b_via_recursion(3, 1000)


def test_budget_refusal():
    with pytest.raises(BudgetError):
        sieve_b(2, 10**9)
    # explicit raise is honored
    t = sieve_b(2, 1001, max_nmax=10_000)
    assert t[1001] == b_via_recursion(2, 1001)


def test_corrupt_table_rejected():
    with pytest.raises(ValueError):
        ArithTable(ell=2, nmax=3, values=(2, 3, 4), metadata={})


def test_save_load_round_trip(tmp_path):
    t = sieve_b(3, 50)
    path = tmp_path / "b3.csv"
    save_table(t, path)
    back = load_table(path, ell=3, nmax=50)
    assert all(back[n] == t[n] for n in range(1, 51))
    sidecar = json.loads((tmp_path / "b3.csv.json").read_text())
    assert set(sidecar) == {"ell", "nmax", "format_version", "sha256"}
    assert sidecar["ell"] == 3 and sidecar["nmax"] == 50


def test_save_table_failed_replace_keeps_old_table(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 30), path)

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_table(sieve_b(3, 40), path)
    monkeypatch.undo()
    back = load_table(path)
    assert (back.ell, back.nmax) == (2, 30)
    assert back[30] == 72
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.csv.json"]


def test_save_load_bignum_round_trip(tmp_path):
    t = sieve_b(20, 10)
    path = tmp_path / "b20.csv"
    save_table(t, path)
    back = load_table(path)
    assert isinstance(back.values, tuple)
    assert back[10] == t[10]


def test_load_rejects_wrong_metadata(tmp_path):
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 20), path)
    with pytest.raises(MetadataMismatch):
        load_table(path, ell=3)
    with pytest.raises(MetadataMismatch):
        load_table(path, nmax=21)


def test_load_rejects_tampered_data(tmp_path):
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 20), path)
    raw = path.read_text()
    path.write_text(raw.replace("6,12", "6,13", 1))
    with pytest.raises(ChecksumMismatch):
        load_table(path)


def test_load_rejects_version_and_shape(tmp_path):
    path = tmp_path / "t.csv"
    save_table(sieve_b(2, 5), path)
    side = tmp_path / "t.csv.json"

    meta = json.loads(side.read_text())
    meta["format_version"] = 99
    side.write_text(json.dumps(meta))
    with pytest.raises(VersionMismatch):
        load_table(path)

    # checksum is over the data bytes, so shape attacks need a fresh sidecar
    def reseal():
        import hashlib

        m = json.loads(side.read_text())
        m["format_version"] = 1
        m["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        side.write_text(json.dumps(m))

    path.write_text("x,y\n1,1\n")
    reseal()
    with pytest.raises(MalformedTable):
        load_table(path)

    path.write_text("n,value\n1,1\n2,3")  # no trailing newline
    reseal()
    with pytest.raises(MalformedTable):
        load_table(path)

    path.write_text("n,value\n1,1\n")  # row count disagrees with nmax=5
    reseal()
    with pytest.raises(MalformedTable):
        load_table(path)

    path.write_text("n,value\n1,1\n3,4\n2,3\n4,7\n5,6\n")  # n out of order
    reseal()
    with pytest.raises(MalformedTable):
        load_table(path)


def test_missing_sidecar(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("n,value\n1,1\n")
    with pytest.raises(MalformedTable):
        load_table(path)


def test_cached_sieve(tmp_path, monkeypatch):
    monkeypatch.setenv("ABUNDANCY_CACHE_DIR", str(tmp_path))
    t1 = cached_sieve(2, 50)
    assert (tmp_path / "b_ell2_n50.csv").exists()
    assert (tmp_path / "b_ell2_n50.csv.json").exists()
    t2 = cached_sieve(2, 50)
    assert t1[50] == t2[50] == 93


def test_cached_sieve_recovers_from_corruption(tmp_path, monkeypatch):
    monkeypatch.setenv("ABUNDANCY_CACHE_DIR", str(tmp_path))
    cached_sieve(2, 30)
    (tmp_path / "b_ell2_n30.csv").write_text("garbage")
    t = cached_sieve(2, 30)
    assert t[30] == 72
    # and the cache file was rewritten clean
    assert load_table(tmp_path / "b_ell2_n30.csv")[30] == 72
